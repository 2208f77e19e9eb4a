"""Run one benchmark workload against this checkout's server.

    python3 perfbench/run.py --workload steady_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs half the
window untraced and half traced, replays the workload in-process through the
layer functions, and prints every per-layer metric. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every op was answered correctly.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bootstrap() -> None:
    if not (ROOT / "src" / "ans" / "__init__.py").is_file():
        sys.exit(f"perfbench: no server source at {ROOT / 'src' / 'ans'}; "
                 "run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def untraced(run, seconds: float) -> tuple[dict, dict]:
    from perfbench import loadgen, report, workloads as wl

    window = run.phase(seconds)
    if wl.probe_kinds(run.workload):
        run.phase(None)
    run.time_setup(loadgen.SETUP_LAUNCHES - len(run.setup_times))
    samples = run.samples()
    attempted, failed = run.counts()
    values = report.e2e_metrics(samples, run.setup_times, window,
                                run.server.peak_rss_mb(), attempted, failed)
    extra = {
        "window": {"ops": window.ops, "seconds": window.seconds, "server_cpu_s": window.cpu_s},
        "probe_kinds": list(wl.probe_kinds(run.workload)),
        "samples": {k: report.latency_summary(v) for k, v in samples.items() if v},
        "setup_launches_s": run.setup_times,
    }
    report.print_table("end-to-end", values, report.E2E_UNITS)
    return {k: values[k] for k in report.E2E_REPORTED}, extra


def traced(run, seconds: float) -> tuple[dict, dict]:
    from perfbench import loadgen, report, tracing, workloads as wl

    def mean_latency():
        samples = run.samples()
        return statistics.fmean(x for kind in wl.OP_KINDS for x in samples[kind])

    run.phase(seconds / 2)
    untraced_ms = mean_latency()
    run.clear_samples()
    http = tracing.Tracer()
    before = run.scrape()
    marks = [len(worker.sent) for worker in run.workers]
    run.set_tracer(http)
    ops = run.phase(seconds / 2).ops
    traced_ms = mean_latency()
    if wl.probe_kinds(run.workload):
        ops += run.phase(None).ops
    run.set_tracer(tracing.NULL_TRACER)
    server = report.server_means(before, run.scrape())
    traced_ops = [op for worker, mark in zip(run.workers, marks) for op in worker.sent[mark:]]
    reply_bytes = run.reply_bytes(traced_ops)
    replayed = tracing.Tracer()
    sent = [op for worker in run.workers for op in worker.sent]
    sizes = tracing.replay(run.setup, sent, replayed)
    sizes["server.resolve.response_bytes"] = reply_bytes
    values = report.layer_metrics(http, replayed, sizes, server, ops, traced_ms - untraced_ms)
    files = {name: f"spans-{run.workload.name}-{run.seed}-{name}.jsonl"
             for name in ("http", "replay")}
    http.write(loadgen.OUT / files["http"])
    replayed.write(loadgen.OUT / files["replay"])
    extra = {
        "overhead": {"untraced_mean_ms": untraced_ms, "traced_mean_ms": traced_ms},
        "spans_http": http.table(),
        "spans_replay": replayed.table(),
        "span_files": list(files.values()),
    }
    report.print_table("per-layer", values, report.LAYER_UNITS)
    return values, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    # Terminated runs still stop the server and peer processes on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench import loadgen, report, workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    loadgen.OUT.mkdir(parents=True, exist_ok=True)
    with loadgen.Run(workload, args.seed) as run:
        run.warmup()
        values, extra = (traced if args.trace else untraced)(run, args.seconds)
        attempted, failed = run.counts()
        errors = run.errors()
    broken = [name for name, value in values.items() if not math.isfinite(value)]
    if broken:
        raise RuntimeError(f"metrics without a value: {broken}")
    units = report.LAYER_UNITS if args.trace else report.E2E_UNITS
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": loadgen.CLIENTS,
        "loop": "closed, no pacing",
        "transport": "HTTP/1.1 over loopback 127.0.0.1",
        "server": "ansctl serve --listen 127.0.0.1:0 (python -m ans.cli), fsync on",
        "fsync": True,
        "environment": report.environment(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        **extra,
    }
    (loadgen.OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(json.dumps(result, default=str))
    for line in errors[:10]:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
