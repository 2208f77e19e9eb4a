import ast
import math
import pathlib
import random
import time

import pytest

import ans
from ans import metrics as metrics_module
from ans.metrics import (
    OPERATIONS,
    QUANTILES,
    Alert,
    AlertConfig,
    Metrics,
    Timer,
    evaluate_alerts,
    quantile,
    render_text,
)
from ans.registry import Registry
from ans.client import build_registration_request
from conftest import NOW, make_identity, make_name
from ans.harness import harness_policies

DAY = 86400


def _snapshot_with(failures: int, attempts: int):
    metrics = Metrics()
    metrics.inc("attestations_total", attempts)
    metrics.inc("auth_failures_total", failures)
    return metrics.snapshot()


def _record_expiring_in(ca, days: int, index: int = 0):
    registry = Registry(policies=harness_policies(), trust_anchors=ca.anchors)
    validity = days * DAY + 30  # margin so remaining stays above the day mark
    identity = make_identity(ca, make_name(index))
    from ans.client import bootstrap_identity

    identity = bootstrap_identity(
        identity.name, identity.endpoint, ("telemetry-export",), ca.intermediate_keys,
        ca.intermediate_cert, ca.root_cert, validity_seconds=validity, now=NOW,
    )
    return registry.register(build_registration_request(identity, "ns-0"), NOW)


def test_quantile_nearest_rank_oracle():
    rng = random.Random(3)
    for _ in range(50):
        samples = [rng.random() * 100 for _ in range(rng.randrange(1, 200))]
        for q in (0.5, 0.95, 0.99):
            expected = sorted(samples)[max(1, math.ceil(q * len(samples))) - 1]
            assert quantile(samples, q) == expected
    assert quantile([], 0.99) == 0.0


def test_snapshot_ranks_samples_outside_the_lock(monkeypatch):
    """A snapshot's quantiles equal ``quantile`` over the raw samples, and
    they are ranked while the lock is free, so a scrape of full rings does
    not hold up ``observe``."""
    metrics = Metrics()
    rng = random.Random(5)
    samples = {op: [rng.random() * 100 for _ in range(rng.randrange(1, 300))]
               for op in OPERATIONS}
    for op, values in samples.items():
        for value in values:
            metrics.observe(op, value)
    locked = []
    real = metrics_module.nearest_rank

    def ranking(ordered, q):
        locked.append(metrics._lock.locked())
        return real(ordered, q)

    monkeypatch.setattr(metrics_module, "nearest_rank", ranking)
    histograms = metrics.snapshot().histograms
    assert len(locked) == len(OPERATIONS) * len(QUANTILES) and not any(locked)
    for op, values in samples.items():
        assert histograms[op].quantiles_ms == {str(q): quantile(values, q) for q in QUANTILES}


def test_counters_monotonic_and_rendered():
    metrics = Metrics()
    metrics.inc("registrations_total")
    text1 = render_text(metrics.snapshot())
    assert "registrations_total 1" in text1
    metrics.inc("registrations_total", 2)
    metrics.inc("discovery_queries_total")
    text2 = render_text(metrics.snapshot())
    assert "registrations_total 3" in text2

    def counter_values(text):
        return {
            line.split(" ")[0]: int(line.split(" ")[1])
            for line in text.splitlines()
            if line and "{" not in line
        }

    first, second = counter_values(text1), counter_values(text2)
    for name, value in first.items():
        assert second[name] >= value


def test_histogram_counts_match_observations():
    metrics = Metrics()
    for i in range(7):
        metrics.observe("discovery", float(i))
    snapshot = metrics.snapshot()
    assert snapshot.histograms["discovery"].count == 7
    assert snapshot.histograms["discovery"].sum_ms == sum(range(7))
    text = render_text(snapshot)
    assert 'operation_latency_ms_count{operation="discovery"} 7' in text
    assert 'operation_latency_ms{operation="discovery",quantile="0.99"} 6' in text


def test_exposition_line_shape():
    metrics = Metrics()
    metrics.observe("registration", 1.5)
    for line in render_text(metrics.snapshot()).splitlines():
        assert line == line.strip()
        name, value = line.rsplit(" ", 1)
        float(value)  # parses as a number


def test_error_rate_alert_thresholds():
    config = AlertConfig()
    fired = evaluate_alerts(_snapshot_with(6, 100), [], config, NOW)
    assert [a.rule_id for a in fired] == ["error-rate"]
    assert "6.0%" in fired[0].message
    quiet = evaluate_alerts(_snapshot_with(5, 100), [], config, NOW)  # 5% is not >5%
    assert quiet == []
    assert evaluate_alerts(_snapshot_with(0, 0), [], config, NOW) == []


def test_cert_expiry_alert_thresholds(ca):
    config = AlertConfig()
    warn = _record_expiring_in(ca, 29)
    fine = _record_expiring_in(ca, 31, index=1)
    fired = evaluate_alerts(_snapshot_with(0, 10), [warn], config, NOW)
    assert [a.rule_id for a in fired] == ["cert-expiry"]
    assert fired[0].subject == warn.name.render()
    assert evaluate_alerts(_snapshot_with(0, 10), [fine], config, NOW) == []


def test_alert_ordering_deterministic(ca):
    config = AlertConfig()
    records = [_record_expiring_in(ca, 10, index=i) for i in range(3)]
    fired = evaluate_alerts(_snapshot_with(50, 100), records, config, NOW)
    keys = [(a.rule_id, a.subject) for a in fired]
    assert keys == sorted(keys)
    assert {a.rule_id for a in fired} == {"error-rate", "cert-expiry"}


def test_gauges_track_expiring_certs(ca):
    metrics = Metrics()
    warn = _record_expiring_in(ca, 29, index=5)
    snapshot = metrics.snapshot(records=[warn], now=NOW)
    assert snapshot.gauges["active_agents"] == 1
    assert snapshot.gauges["certs_expiring_within_30d"] == 1


def test_alert_doc_shape():
    alert = Alert("error-rate", "critical", "attestation", "boom")
    assert alert.to_doc() == {"rule_id": "error-rate", "severity": "critical",
                              "subject": "attestation", "message": "boom"}


def test_timer_observes_a_block_that_ends_and_one_that_raises():
    seen = []
    with Timer(lambda op, ms: seen.append((op, ms)), "policy_eval"):
        time.sleep(0.01)
    with pytest.raises(KeyError):
        with Timer(lambda op, ms: seen.append((op, ms)), "chain_validation"):
            raise KeyError("boom")
    assert [op for op, _ in seen] == ["policy_eval", "chain_validation"]
    assert seen[0][1] >= 10 and seen[1][1] >= 0


def test_metrics_record_only_the_operations_they_are_given():
    metrics = Metrics(("handshake",))
    with metrics.timed("handshake"):
        pass
    histograms = metrics.snapshot().histograms
    assert list(histograms) == ["handshake"] and histograms["handshake"].count == 1
    with pytest.raises(KeyError):
        metrics.observe("discovery", 1.0)
    assert list(Metrics().snapshot().histograms) == list(OPERATIONS)


def test_histogram_stats_doc():
    metrics = Metrics()
    for ms in (1.0, 2.0, 4.0004):
        metrics.observe("discovery", ms)
    histograms = metrics.snapshot().histograms
    assert histograms["discovery"].to_doc() == {
        "count": 3, "mean_ms": 2.333, "p95_ms": 4.0, "p99_ms": 4.0}
    assert histograms["registration"].to_doc() == {
        "count": 0, "mean_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}


# -- one timing mechanism ---------------------------------------------------------

def _is_perf_counter_call(node) -> bool:
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        (isinstance(func, ast.Attribute) and func.attr == "perf_counter")
        or (isinstance(func, ast.Name) and func.id == "perf_counter"))


def _latency_reports(path: pathlib.Path):
    """(line, what) for each call of an ``observe``/``_observe`` attribute and
    each ``perf_counter()`` difference multiplied by 1e3 in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("observe", "_observe")):
            yield node.lineno, f"calls .{node.func.attr}"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for factor, other in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(factor, ast.Constant) and factor.value == 1e3
                        and isinstance(other, ast.BinOp) and isinstance(other.op, ast.Sub)
                        and any(_is_perf_counter_call(n) for n in ast.walk(other))):
                    yield node.lineno, "turns a perf_counter() difference into ms"


def test_latency_is_reported_only_through_the_metrics_timer():
    """Outside ``metrics``, code times an operation with ``metrics.Timer``;
    deadlines, pacing and elapsed seconds may still read the clock."""
    package = pathlib.Path(ans.__file__).parent
    found = [f"{path.name}:{line}: {what}" for path in sorted(package.glob("*.py"))
             if path.name != "metrics.py" for line, what in _latency_reports(path)]
    assert found == []
    # The detector sees the one line that does it: the Timer's.
    assert len({line for line, _ in _latency_reports(package / "metrics.py")}) == 1
