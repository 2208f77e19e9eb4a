"""Metric names, percentiles with their sample counts, and the result record."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys

import cryptography

from ans.metrics import quantile

from perfbench import workloads as wl

# Every end-to-end metric, in print order, with its unit.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "error_ratio": "ratio",
    "register_p50_ms": "ms",
    "register_p95_ms": "ms",
    "resolve_p50_ms": "ms",
    "resolve_p95_ms": "ms",
    "attest_p50_ms": "ms",
    "attest_p95_ms": "ms",
    "renew_p50_ms": "ms",
    "handshake_p50_ms": "ms",
    "handshake_p95_ms": "ms",
    "server_cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
}
# Reported under "metrics" in the last output line, and so bounded by
# BENCHMARK.json. error_ratio is 0 on a correct run; the result's "failed" and
# "correct" fields carry it. Handshake latency on an idle loopback flips
# between two regimes from second to second (README), too unsteady to bound.
UNBOUNDED = ("error_ratio", "handshake_p50_ms", "handshake_p95_ms")
E2E_REPORTED = tuple(name for name in E2E_UNITS if name not in UNBOUNDED)

LAYER_UNITS = {
    "wire.register.mean_ms": "ms",
    "wire.resolve.mean_ms": "ms",
    "wire.attest.mean_ms": "ms",
    "server.register.mean_ms": "ms",
    "server.resolve.mean_ms": "ms",
    "server.attest.mean_ms": "ms",
    "server.resolve.response_bytes": "B",
    "client.sign_us": "us",
    "client.encode_us": "us",
    "client.decode_us": "us",
    "client.initiate_handshake_ms": "ms",
    "client.request_capability_ms": "ms",
    "identity.validate_chain_us": "us",
    "identity.verify_signature_us": "us",
    "identity.sign_us": "us",
    "server.chain_validation.mean_us": "us",
    "server.chain_validations_per_op": "count",
    "attestation.issue_us": "us",
    "attestation.prove_us": "us",
    "attestation.verify_us": "us",
    "policy.evaluate_us": "us",
    "server.policy_eval.mean_us": "us",
    "server.policy_evals_per_op": "count",
    "names.parse_us": "us",
    "names.matches_us": "us",
    "canonical.encode_us": "us",
    "canonical.bytes_per_response": "B",
    "registry.register_us": "us",
    "registry.renew_us": "us",
    "registry.revoke_us": "us",
    "registry.resolve_indexed_us": "us",
    "registry.resolve_scan_us": "us",
    "registry.log_append_us": "us",
    "registry.log_bytes_per_event": "B",
    "registry.recover_s": "s",
    "metrics.observe_us": "us",
    "metrics.scrape_ms": "ms",
    "trace.overhead_ms": "ms",
}

TAIL_MIN_BEYOND = 10
LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def highest_supported(n: int) -> float | None:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when even the median has fewer."""
    return next((q for q in LADDER if beyond(n, q) >= TAIL_MIN_BEYOND), None)


def latency_summary(samples: list[float]) -> dict:
    n = len(samples)
    top = highest_supported(n)
    return {
        "n": n,
        "p50_ms": quantile(samples, 0.5),
        "p95_ms": quantile(samples, 0.95),
        "beyond_p95": beyond(n, 0.95),
        "p95_meets_tail_rule": beyond(n, 0.95) >= TAIL_MIN_BEYOND,
        "highest_supported": top,
        "highest_supported_ms": quantile(samples, top) if top else None,
    }


def e2e_metrics(samples: dict[str, list[float]], setup_times: list[float], window,
                rss_mb: float, attempted: int, failed: int) -> dict[str, float]:
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": window.ops / window.seconds,
        "error_ratio": failed / attempted,
        "server_cpu_ms_per_op": window.cpu_s * 1e3 / window.ops,
        "server_rss_mb": rss_mb,
    }
    for kind in wl.OP_KINDS:
        values[f"{kind}_p50_ms"] = quantile(samples[kind], 0.5)
        values[f"{kind}_p95_ms"] = quantile(samples[kind], 0.95)
    return {name: values[name] for name in E2E_UNITS}


def server_means(before: dict, after: dict) -> dict[str, tuple[float, float]]:
    """(count delta, mean ms) per server histogram between two scrapes."""
    out = {}
    for op in ("registration", "discovery", "attestation", "policy_eval", "chain_validation"):
        count_key = f'operation_latency_ms_count{{operation="{op}"}}'
        sum_key = f'operation_latency_ms_sum{{operation="{op}"}}'
        count = after[count_key] - before[count_key]
        total = after[sum_key] - before[sum_key]
        out[op] = (count, total / count if count else float("nan"))
    return out


def layer_metrics(http, replay, sizes: dict, server: dict, ops: int,
                  overhead_ms: float) -> dict[str, float]:
    """Per-layer values from the two tracers (``http``: the traced window and
    probe over HTTP; ``replay``: the in-process replay), ``sizes`` (reply,
    response and log bytes, measured outside any span) and ``server``, the
    server's own histograms over the ``ops`` ops of the traced window and
    probe (see ``server_means``)."""
    ht, rt = http.table(), replay.table()

    def ms(name):
        return ht[name]["mean_us"] / 1e3

    values = {
        "server.register.mean_ms": server["registration"][1],
        "server.resolve.mean_ms": server["discovery"][1],
        "server.attest.mean_ms": server["attestation"][1],
        "server.chain_validation.mean_us": server["chain_validation"][1] * 1e3,
        "server.policy_eval.mean_us": server["policy_eval"][1] * 1e3,
        "server.chain_validations_per_op": server["chain_validation"][0] / ops,
        "server.policy_evals_per_op": server["policy_eval"][0] / ops,
        "client.initiate_handshake_ms": ms("client.initiate_handshake"),
        "client.request_capability_ms": ms("client.request_capability"),
        "registry.recover_s": rt["registry.recover"]["mean_us"] / 1e6,
        "metrics.scrape_ms": rt["metrics.scrape"]["mean_us"] / 1e3,
        "trace.overhead_ms": overhead_ms,
        **sizes,
    }
    values["wire.register.mean_ms"] = ms("http.register") - values["server.register.mean_ms"]
    values["wire.resolve.mean_ms"] = ms("http.resolve") - values["server.resolve.mean_ms"]
    values["wire.attest.mean_ms"] = (ms("http.challenge") + ms("http.attest")
                                     - values["server.attest.mean_ms"])
    for name, unit in LAYER_UNITS.items():
        if name not in values:  # the rest are replay spans, named as the metric
            values[name] = rt[name[:-len("_us")]]["mean_us"]
    return {name: values[name] for name in LAYER_UNITS}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "executable": sys.executable,
    }


def print_table(title: str, values: dict, units: dict, file=sys.stdout) -> None:
    print(title, file=file)
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.4f} {units[name]}", file=file)
