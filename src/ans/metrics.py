"""Operational counters, latency histograms, text exposition, and alerts.

``Timer`` is the package's one latency clock: the server, the registry and
the harness time their operations with it, reporting to an ``observe``
callable such as ``Metrics.observe``.

Counters are monotonic within a process lifetime. Histograms keep raw
millisecond samples (bounded ring) so quantiles are computed from data, not
buckets. The exposition is the common line-oriented text convention:

    <name>{<label>="<value>",...} <number>

Alert evaluation is a pure function of a metrics snapshot plus the current
registry records, so alerting is deterministic and testable offline.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

from .identity import remaining_validity

COUNTERS = (
    "registrations_total",
    "discovery_queries_total",
    "attestations_total",
    "auth_failures_total",
    "policy_violations_total",
)

OPERATIONS = (
    "registration",
    "discovery",
    "attestation",
    "policy_eval",
    "chain_validation",
)

QUANTILES = (0.5, 0.95, 0.99)

# Raw samples kept per operation; count and sum cover every observation.
MAX_SAMPLES_PER_OP = 50_000

# 30 days, the certificate expiry warning horizon.
CERT_EXPIRY_WARNING_S = 30 * 86400


def quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile over raw samples."""
    return nearest_rank(sorted(samples), q)


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile over samples already sorted ascending."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class Timer:
    """``with Timer(observe, operation):`` calls ``observe(operation, ms)``
    when the block ends or raises. A plain class: it runs on every request."""

    __slots__ = ("_observe", "_operation", "_start")

    def __init__(self, observe, operation: str):
        self._observe = observe
        self._operation = operation

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self._observe(self._operation, (time.perf_counter() - self._start) * 1e3)


@dataclass(frozen=True)
class HistogramStats:
    count: int
    sum_ms: float
    quantiles_ms: dict[str, float]

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def to_doc(self) -> dict:
        return {"count": self.count, "mean_ms": round(self.mean_ms, 3),
                "p95_ms": round(self.quantiles_ms["0.95"], 3),
                "p99_ms": round(self.quantiles_ms["0.99"], 3)}


@dataclass(frozen=True)
class MetricsSnapshot:
    counters: dict[str, int]
    histograms: dict[str, HistogramStats]
    gauges: dict[str, int]


class Metrics:
    """Thread-safe sink for counters and latency samples of ``operations``."""

    def __init__(self, operations: tuple[str, ...] = OPERATIONS):
        self._lock = threading.Lock()
        self._operations = operations
        self._counters = {name: 0 for name in COUNTERS}
        self._samples: dict[str, deque[float]] = {
            op: deque(maxlen=MAX_SAMPLES_PER_OP) for op in operations
        }
        self._counts = {op: 0 for op in operations}
        self._sums = {op: 0.0 for op in operations}

    def inc(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def observe(self, operation: str, latency_ms: float) -> None:
        with self._lock:
            self._samples[operation].append(latency_ms)
            self._counts[operation] += 1
            self._sums[operation] += latency_ms

    def timed(self, operation: str) -> Timer:
        """A ``Timer`` that observes into this sink."""
        return Timer(self.observe, operation)

    def snapshot(self, records=(), now: int = 0,
                 cert_expiry_warning_s: int = CERT_EXPIRY_WARNING_S) -> MetricsSnapshot:
        # Only the copies are made under the lock: sorting full rings would
        # hold up every ``observe`` for as long.
        with self._lock:
            counters = dict(self._counters)
            rings = [(op, self._counts[op], self._sums[op], list(self._samples[op]))
                     for op in self._operations]
        histograms = {}
        for op, count, sum_ms, samples in rings:
            samples.sort()
            histograms[op] = HistogramStats(
                count=count, sum_ms=sum_ms,
                quantiles_ms={str(q): nearest_rank(samples, q) for q in QUANTILES},
            )
        expiring = sum(
            1 for r in records
            if 0 <= remaining_validity(r.chain.agent, now) < cert_expiry_warning_s
        )
        gauges = {"active_agents": len(list(records)), "certs_expiring_within_30d": expiring}
        return MetricsSnapshot(counters=counters, histograms=histograms, gauges=gauges)


def _format_number(value: float) -> str:
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(round(value, 6))


def render_text(snapshot: MetricsSnapshot) -> str:
    """Line-oriented exposition with stable naming and ordering."""
    lines: list[str] = []
    for name in sorted(snapshot.counters):
        lines.append(f"{name} {snapshot.counters[name]}")
    for op in sorted(snapshot.histograms):
        stats = snapshot.histograms[op]
        for q in sorted(stats.quantiles_ms, key=float):
            lines.append(
                f'operation_latency_ms{{operation="{op}",quantile="{q}"}} '
                f"{_format_number(stats.quantiles_ms[q])}"
            )
        lines.append(f'operation_latency_ms_count{{operation="{op}"}} {stats.count}')
        lines.append(f'operation_latency_ms_sum{{operation="{op}"}} {_format_number(stats.sum_ms)}')
    for name in sorted(snapshot.gauges):
        lines.append(f"{name} {snapshot.gauges[name]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AlertConfig:
    error_rate_threshold: float = 0.05
    cert_expiry_warning_s: int = CERT_EXPIRY_WARNING_S


@dataclass(frozen=True)
class Alert:
    rule_id: str
    severity: str
    subject: str
    message: str

    def to_doc(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
        }


def evaluate_alerts(snapshot: MetricsSnapshot, records, config: AlertConfig,
                    now: int) -> list[Alert]:
    """Deterministic alerts: attestation failure rate above threshold, and any
    active record whose agent certificate expires inside the warning window.
    Ordered by (rule id, subject)."""
    alerts: list[Alert] = []
    attempts = max(snapshot.counters.get("attestations_total", 0), 1)
    failures = snapshot.counters.get("auth_failures_total", 0)
    rate = failures / attempts
    if rate > config.error_rate_threshold:
        alerts.append(Alert(
            rule_id="error-rate",
            severity="critical",
            subject="attestation",
            message=(
                f"auth failure rate {rate:.1%} exceeds "
                f"{config.error_rate_threshold:.0%} threshold"
            ),
        ))
    for record in records:
        left = remaining_validity(record.chain.agent, now)
        if left < config.cert_expiry_warning_s:
            days = left // 86400
            alerts.append(Alert(
                rule_id="cert-expiry",
                severity="warning",
                subject=record.name.render(),
                message=f"agent certificate expires in {days} days",
            ))
    alerts.sort(key=lambda a: (a.rule_id, a.subject))
    return alerts
