"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q

The smoke runs start real server processes and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ans.harness import harness_policies

from perfbench import loadgen, report, workloads as wl

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NOW = 1_800_000_000
PROBE = {kind: 10 for kind in wl.OP_KINDS}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- seeded inputs ----------------------------------------------------------------


def _inputs(workload: wl.Workload, seed: int):
    specs = wl.population(workload, seed)
    queries = wl.query_pool(workload, specs, seed)
    schedules = [wl.Schedule(workload, specs, queries, seed, c).take(300) for c in (0, 1)]
    probes = wl.probe_ops(workload, specs, seed, PROBE)
    return specs, queries, schedules, probes


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_identical_per_seed_and_differ_across_seeds(name):
    workload = wl.WORKLOADS[name]
    assert _inputs(workload, 7) == _inputs(workload, 7)
    first, other = _inputs(workload, 7), _inputs(workload, 8)
    assert first[0] != other[0]
    assert first[2] != other[2]


def test_steady_mix_draws_the_stated_mix():
    workload = wl.WORKLOADS["steady_mix"]
    specs = wl.population(workload, 3)
    ops = wl.Schedule(workload, specs, wl.query_pool(workload, specs, 3), 3, 0).take(20_000)
    for kind, weight in workload.mix:
        assert sum(op.kind == kind for op in ops) == weight * len(ops), kind


def test_population_groups_are_balanced():
    workload = wl.WORKLOADS["large_resolve"]
    specs = wl.population(workload, 1)
    oracle = wl.Oracle(specs, harness_policies(), NOW)
    sizes = {wl.query_kind(q): len(oracle.expected(q))
             for q in wl.query_pool(workload, specs, 1)}
    assert sizes == {wl.Q_CAPABILITY: 50, wl.Q_AGENT: 1, wl.Q_PROVIDER_ENV: 50}


def test_writer_never_makes_an_invalid_transition():
    workload = wl.WORKLOADS["write_contention"]
    specs = wl.population(workload, 5)
    writer = wl.Schedule(workload, specs, wl.query_pool(workload, specs, 5), 5, 0)
    active = {i: True for i in wl.pool_members(workload, specs)}
    assert len(active) == workload.pool_size
    revoked_counts = []
    for step, op in enumerate(writer.take(3 * workload.pool_size * 4)):
        if op.kind in (wl.RENEW, wl.REVOKE):
            assert active[op.agent], (step, op)
        active[op.agent] = op.kind != wl.REVOKE
        revoked_counts.append(sum(not a for a in active.values()))
    assert max(revoked_counts) <= workload.pool_size // 2


def test_probe_covers_exactly_the_missing_kinds():
    assert wl.probe_kinds(wl.WORKLOADS["steady_mix"]) == ()
    assert set(wl.probe_kinds(wl.WORKLOADS["large_resolve"])) == {
        wl.ATTEST, wl.REGISTER, wl.RENEW, wl.HANDSHAKE}
    workload = wl.WORKLOADS["write_contention"]
    specs = wl.population(workload, 2)
    pool = set(wl.pool_members(workload, specs))
    ops = wl.probe_ops(workload, specs, 2, PROBE)
    assert [op.kind for op in ops] == [wl.ATTEST] * 10 + [wl.HANDSHAKE] * 10
    assert not {op.agent for op in ops} & pool


# -- oracle -----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_oracle_buckets_match_a_full_scan(name):
    workload = wl.WORKLOADS[name]
    specs = wl.population(workload, 4)[:400]
    oracle = wl.Oracle(specs, harness_policies(), NOW)
    for query in wl.query_pool(workload, specs, 4):
        scan = [s for s in specs if wl.names.matches(s.name, query)]
        scan.sort(key=wl._order)
        assert oracle.expected(query) == [s.name.render() for s in scan]


def test_oracle_applies_runtime_policy():
    workload = wl.WORKLOADS["steady_mix"]
    specs = wl.population(workload, 1)
    denied = specs[0]
    specs[0] = wl.AgentSpec(denied.index, wl.AnsName(
        denied.name.protocol, denied.name.agent_id, denied.name.capability,
        denied.name.provider, denied.name.version, "forbidden"), denied.namespace)
    oracle = wl.Oracle(specs, harness_policies(), NOW)
    assert oracle.expected(wl.NameQuery(agent_id=denied.name.agent_id)) == []


def test_check_resolve():
    assert wl.check_resolve(["a", "b"], ["a", "b"], ["a", "b"]) is None
    assert wl.check_resolve(["a"], ["a"], ["a", "p", "b"]) is None
    assert wl.check_resolve(["a", "b"], ["a", "b"], ["a", "p", "b"]) is None
    assert wl.check_resolve(["a", "p", "b"], ["a", "b"], ["a", "p", "b"]) is None
    assert "missing" in wl.check_resolve(["a"], ["a", "b"], ["a", "b"])
    assert "unexpected" in wl.check_resolve(["a", "b", "x"], ["a", "b"], ["a", "b"])
    assert "order" in wl.check_resolve(["b", "a"], ["a", "b"], ["a", "b"])
    assert "duplicate" in wl.check_resolve(["a", "a", "b"], ["a", "b"], ["a", "b"])


# -- metrics ----------------------------------------------------------------------


def test_tail_rule_needs_ten_samples_beyond():
    assert report.beyond(200, 0.95) == 10
    assert report.beyond(199, 0.95) == 9
    assert report.beyond(1000, 0.99) == 10
    assert report.highest_supported(1000) == 0.99
    assert report.highest_supported(999) == 0.95
    assert report.highest_supported(200) == 0.95
    assert report.highest_supported(100) == 0.9
    assert report.highest_supported(40) == 0.75
    assert report.highest_supported(20) == 0.5
    assert report.highest_supported(19) is None
    summary = report.latency_summary([float(i) for i in range(1, 201)])
    assert summary["p95_ms"] == 190.0 and summary["beyond_p95"] == 10
    assert summary["p95_meets_tail_rule"] and summary["highest_supported"] == 0.95


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: report.E2E_UNITS[name] for name in report.E2E_REPORTED}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == report.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in wl.WORKLOADS.items()}


def test_route_names_every_registry_request():
    assert loadgen.route("GET", "/v1/resolve?capability=x&env=prod") == "resolve"
    assert loadgen.route("POST", "/v1/challenge") == "challenge"
    assert loadgen.route("POST", "/v1/attest") == "attest"
    assert loadgen.route("POST", "/v1/agents") == "register"
    assert loadgen.route("POST", "/v1/agents/a2a%3A%2F%2Fx/renew") == "renew"
    assert loadgen.route("DELETE", "/v1/agents/a2a%3A%2F%2Fx") == "revoke"
    assert loadgen.route("GET", "/v1/metrics") == "metrics"


def test_stream_draws_no_op_once_stopped():
    class Stub:
        drawn = 0

        def next_op(self):
            self.drawn += 1
            return self.drawn

    stub, stops = Stub(), iter([False, False, True])
    assert list(loadgen.Worker.stream(stub, lambda: next(stops))) == [1, 2]
    assert stub.drawn == 2


# -- end to end -------------------------------------------------------------------


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_run_has_no_errors(name):
    doc = _last_json(_run("--workload", name, "--seed", "11", "--seconds", "2", "--trace", "0"))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert list(doc["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    result = json.loads(_run_result(name, 11, 0))
    assert result["fsync"] is True and result["clients"] == 2
    assert len(result["setup_launches_s"]) == loadgen.SETUP_LAUNCHES
    assert result["samples"]["resolve"]["n"] > 0


def _run_result(name: str, seed: int, trace: int) -> str:
    return (ROOT / ".bench_build" / "perfbench" / f"result-{name}-{seed}-trace{trace}.json"
            ).read_text()


def test_traced_smoke_run_reports_every_layer():
    doc = _last_json(_run("--workload", "steady_mix", "--seed", "11", "--seconds", "3",
                          "--trace", "1"))
    assert doc["correct"]
    assert list(doc["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    assert values["server.register.mean_ms"] < 10
    result = json.loads(_run_result("steady_mix", 11, 1))
    assert "registry.register" in result["spans_replay"]
    assert "http.resolve" in result["spans_http"]


def test_fails_without_the_server_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "steady_mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
