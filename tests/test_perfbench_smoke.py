"""The benchmark still runs end to end against this checkout.

Runs ``perfbench/run.py`` for one second of ``steady_mix``, untraced and
traced, and requires a clean exit and ``"correct": true`` on its last line,
so a change under ``src/`` that would leave the benchmark unable to run or
answering wrongly fails here rather than in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_runs_and_answers_correctly(trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady_mix", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
