import itertools
import time

import pytest

from ans.harness import (
    BenchConfig,
    LATENCY_BUDGET_P99_MS,
    run_benchmark,
    run_demo,
    run_policy_microbench,
    run_resolve_microbench,
    run_registration_throughput,
    run_security_suite,
    workload_schedule,
)


def test_config_invariant_enforced():
    with pytest.raises(ValueError):
        BenchConfig(n_agents=3, n_namespaces=5)


def test_workload_schedule_deterministic_per_seed():
    config = BenchConfig(n_agents=50, n_namespaces=5, seed=42)
    again = BenchConfig(n_agents=50, n_namespaces=5, seed=42)
    other = BenchConfig(n_agents=50, n_namespaces=5, seed=43)
    for agent in (0, 7, 49):
        assert workload_schedule(config, agent, 500) == workload_schedule(again, agent, 500)
    assert workload_schedule(config, 0, 500) != workload_schedule(other, 0, 500)
    ops = set(workload_schedule(config, 1, 2000))
    assert ops == {"resolve", "attest", "renew", "register_new"}


def test_security_suite_all_pass():
    results = run_security_suite()
    assert [r.scenario_id for r in results] == ["S1", "S2", "S3", "S4", "S5", "S6"]
    for result in results:
        assert result.passed, result.to_doc()
    s1 = results[0]
    assert "BAD_SIGNATURE" in s1.evidence and "message 3" in s1.evidence


def test_demo_small_run_green_and_deterministic():
    config = BenchConfig(n_agents=8, n_namespaces=4, seed=7)
    first = run_demo(config)
    assert first.success_rate == 1.0
    assert first.invalid_manifest_rejected
    assert first.rollback_ok
    assert first.phases["handshake"].count == 8
    second = run_demo(config)
    assert second.event_kinds == first.event_kinds
    assert first.event_kinds.count("Registered") == 8
    assert first.event_kinds.count("Renewed") == 8


def test_benchmark_smoke_structure():
    report = run_benchmark(BenchConfig(n_agents=8, n_namespaces=4,
                                       duration_seconds=6, warmup_seconds=2, seed=42))
    assert set(report.budgets) == set(LATENCY_BUDGET_P99_MS)
    for op in ("registration", "discovery", "capability_verification"):
        assert report.operations[op].count > 0, op
    assert report.throughput["resolves_per_sec"] > 0
    doc = report.to_doc()
    assert doc["environment"]["python"]


def test_policy_microbench_shape():
    result = run_policy_microbench(n_evals=20_000)
    assert result["per_second"] > 0 and result["evals"] == 20_000


def test_resolve_microbench_shape():
    result = run_resolve_microbench(n_records=20, n_resolves=2_000)
    assert result["per_second"] > 0


def test_resolve_microbench_under_a_clock_that_ticks_every_call(monkeypatch):
    # Every certificate is issued in a later second than the one the
    # registrations are made at unless each is issued at that second.
    ticks = itertools.count(int(time.time()))
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    result = run_resolve_microbench(n_records=5, n_resolves=100)
    assert result["resolves"] == 100


def test_registration_throughput_short_window():
    result = run_registration_throughput(duration_seconds=12, target_per_minute=600,
                                         n_workers=2)
    # 600/min paced over 12s is ~120 registrations
    assert result["total"] >= 60
    assert result["per_minute"] == [result["total"]] or result["per_minute"][0] > 0
