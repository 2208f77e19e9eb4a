"""Spans for the traced run, and the in-process replay through the layers.

A span is ``(id, parent, request id, name, start_ns, end_ns, n)``: ``n`` is
how many calls one span times when a loop is timed as a whole. Spans are kept
in memory and written out once, at the end of the run. A span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import statistics
import threading
import time
import urllib.parse
from pathlib import Path

from ans import attestation, names
from ans.attestation import CapabilityProof, ChallengeStore
from ans.canonical import canonical_bytes, canonical_json
from ans.client import build_registration_request
from ans.identity import validate_chain, verify_signature
from ans.metrics import AlertConfig, Metrics, render_text
from ans.policy import EvaluationContext, PHASE_ADMISSION, PHASE_RUNTIME, evaluate
from ans.registry import (
    AgentRecord,
    EventLog,
    Registry,
    RegistrationRequest,
    RegistryEvent,
    renewal_payload,
    revocation_payload,
)
from ans.server import query_from_params

from perfbench import workloads as wl

NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name: str, root: bool = False, n: int = 1):
        return NULL_SPAN


NULL_TRACER = NullTracer()


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False, n: int = 1):
        stack = self._local.__dict__.setdefault("stack", [])
        parent, rid = (None, None) if root or not stack else stack[-1]
        sid = next(self._ids)
        if rid is None:
            rid = sid
        stack.append((sid, rid))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, rid, name, start, end, n))

    def table(self) -> dict[str, dict]:
        """Per span name: spans, calls, mean and self time per call (µs)."""
        child_ns: dict[int, int] = {}
        for _, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        rows: dict[str, list] = {}
        for sid, _, _, name, start, end, n in self.spans:
            row = rows.setdefault(name, [0, 0, 0, 0])
            row[0] += 1
            row[1] += n
            row[2] += end - start
            row[3] += end - start - child_ns.get(sid, 0)
        return {
            name: {"spans": s, "calls": n, "mean_us": total / n / 1e3, "self_us": own / n / 1e3}
            for name, (s, n, total, own) in sorted(rows.items())
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, rid, name, start, end, n in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": rid, "name": name,
                                     "start_ns": start, "end_ns": end, "n": n}) + "\n")


# -- in-process replay -------------------------------------------------------------

REPLAY_PER_KIND = 20
OBSERVE_LOOP = 5000
SCRAPES = 3


def replay_ops(setup, ops_seen) -> dict[str, list]:
    """Up to REPLAY_PER_KIND requests of each kind, taken from what the
    workload's clients sent; kinds they never sent are drawn from the
    population with the same seed, so every layer is measured."""
    rng = wl._rng(setup.seed, setup.workload.name, "replay")
    kinds: dict[str, list] = {k: [] for k in ("resolve_indexed", "resolve_scan", wl.ATTEST,
                                              wl.RENEW, wl.REGISTER, wl.REVOKE)}
    for op in ops_seen:
        kind = op.kind
        if kind == wl.RESOLVE:
            indexed = setup.queries[op.query].capability is not None
            kind = "resolve_indexed" if indexed else "resolve_scan"
        if kind in kinds and len(kinds[kind]) < REPLAY_PER_KIND:
            kinds[kind].append(op)
    stable = [s for s in setup.specs if s.index not in setup.pool]
    for kind, ops in kinds.items():
        while len(ops) < REPLAY_PER_KIND:
            spec = stable[rng.randrange(len(stable))]
            if kind == "resolve_indexed":
                ops.append(wl.Op(wl.RESOLVE, query=-1, capability=spec.name.capability))
            elif kind == "resolve_scan":
                ops.append(wl.Op(wl.RESOLVE, query=-1, agent=spec.index))
            else:
                ops.append(wl.Op(kind, agent=spec.index, capability=spec.name.capability))
    return kinds


def _query_params(setup, op) -> dict[str, str]:
    if op.query >= 0:
        path = setup.paths[op.query]
    elif op.capability:
        path = "/v1/resolve?" + urllib.parse.urlencode({"capability": op.capability})
    else:
        path = "/v1/resolve?" + urllib.parse.urlencode(
            {"agent": setup.specs[op.agent].name.agent_id})
    query = urllib.parse.urlsplit(path).query
    return {k: v[-1] for k, v in urllib.parse.parse_qs(query).items()}


def replay(setup, ops_seen, tracer: Tracer) -> dict[str, float]:
    """Run the workload's requests through the layer functions in the order
    the server calls them, one span per call. Returns the response and log
    sizes it measured."""
    t = tracer
    workdir = setup.workdir
    shutil.copyfile(setup.log_path, workdir / "replay.log")
    metrics = Metrics()
    with t.span("registry.recover", root=True):
        registry = Registry.recover(
            policies=setup.policies, trust_anchors=setup.ca.anchors,
            log_path=str(workdir / "replay.log"), fsync=True, observe=metrics.observe)
    store = ChallengeStore()
    by_kind = replay_ops(setup, ops_seen)
    bytes_out: list[int] = []
    try:
        for op in by_kind["resolve_indexed"] + by_kind["resolve_scan"]:
            _replay_resolve(setup, registry, op, t, bytes_out)
        for op in by_kind[wl.ATTEST]:
            _replay_attest(setup, registry, store, op, t)
        for op in by_kind[wl.RENEW]:
            _replay_control(setup, registry, op, t, renew=True)
        for op in by_kind[wl.REGISTER]:
            _replay_register(setup, registry, op, t)
        for op in by_kind[wl.REVOKE]:
            _replay_control(setup, registry, op, t, renew=False)
    finally:
        registry.close()
    _replay_log_append(setup, REPLAY_PER_KIND, t)
    with t.span("metrics.observe", root=True, n=OBSERVE_LOOP):
        for i in range(OBSERVE_LOOP):
            metrics.observe("discovery", float(i))
    now = int(time.time())
    for _ in range(SCRAPES):
        with t.span("metrics.scrape", root=True):
            render_text(metrics.snapshot(
                records=registry.active_records(now), now=now,
                cert_expiry_warning_s=AlertConfig().cert_expiry_warning_s))
    log_bytes = setup.log_path.stat().st_size
    return {
        "canonical.bytes_per_response": statistics.fmean(bytes_out),
        "registry.log_bytes_per_event": log_bytes / len(setup.specs),
    }


def _replay_resolve(setup, registry, op, t, bytes_out) -> None:
    now = int(time.time())
    with t.span("replay.resolve", root=True):
        with t.span("server.query_from_params"):
            query = query_from_params(_query_params(setup, op))
        records = registry.all_records()
        with t.span("names.matches", n=len(records)):
            matched = [r for r in records if names.matches(r.name, query)]
        with t.span("policy.evaluate", n=max(1, len(matched))):
            for r in matched:
                evaluate(EvaluationContext(wl.policy_subject(setup.specs[_index(r)]),
                                           PHASE_RUNTIME, now), setup.policies)
        kind = "indexed" if query.capability is not None else "scan"
        with t.span(f"registry.resolve_{kind}"):
            hits = registry.resolve(query, now)
        with t.span("canonical.encode"):
            body = canonical_json([r.doc for r in hits]).encode("utf-8")
        bytes_out.append(len(body))
        with t.span("client.decode"):
            [AgentRecord.from_doc(d) for d in json.loads(body)]


def _index(record: AgentRecord) -> int:
    return int(record.name.agent_id.rsplit("-", 1)[1])


def _replay_attest(setup, registry, store, op, t) -> None:
    identity = setup.identities[op.agent]
    capability = op.capability or identity.name.capability
    now = int(time.time())
    with t.span("replay.attest", root=True):
        with t.span("attestation.issue"):
            challenge = store.issue(identity.name, now)
        with t.span("attestation.prove"):
            proof = attestation.prove(challenge, identity.capabilities[capability],
                                      identity.identity_keys, identity.name, now)
        with t.span("client.encode"):
            raw = json.dumps(proof.to_doc()).encode("utf-8")
        with t.span("server.json_decode"):
            doc = json.loads(raw)
        with t.span("from_doc"):
            proof = CapabilityProof.from_doc(doc)
        record = registry.get_active(proof.agent_name, now)
        commitment = next(c for c in record.commitments if c.capability == capability)
        with t.span("attestation.verify"):
            result = attestation.verify(proof, commitment, record.chain,
                                        registry.trust_anchors, store, now)
        if not result.granted:
            raise RuntimeError(f"replayed attest denied: {result.reason}")
        with t.span("canonical.encode"):
            canonical_json({"granted": True, "agent": proof.agent_name, "capability": capability})


def _replay_register(setup, registry, op, t) -> None:
    spec = setup.specs[op.agent]
    # A pool name re-registers as it is; any other is a certificate rotation.
    identity = (setup.identities[op.agent] if op.agent in setup.pool
                else setup.rotated(op.agent))
    now = int(time.time())
    with t.span("replay.register", root=True):
        with t.span("client.sign"):
            request = build_registration_request(identity, spec.namespace)
        payload = canonical_bytes(request.signing_payload())
        with t.span("identity.sign"):
            identity.identity_keys.sign(payload)
        with t.span("client.encode"):
            raw = json.dumps(request.to_doc()).encode("utf-8")
        with t.span("server.json_decode"):
            doc = json.loads(raw)
        with t.span("from_doc"):
            request = RegistrationRequest.from_doc(doc)
        with t.span("names.parse"):
            names.parse(request.name_text)
        with t.span("identity.validate_chain"):
            validate_chain(request.chain, registry.trust_anchors, now).raise_if_invalid()
        with t.span("identity.verify_signature"):
            ok = verify_signature(request.chain.agent.public_key, request.signature,
                                  canonical_bytes(request.signing_payload()))
        if not ok:
            raise RuntimeError("replayed registration signature does not verify")
        with t.span("policy.evaluate"):
            evaluate(EvaluationContext(wl.policy_subject(spec), PHASE_ADMISSION, now),
                     setup.policies)
        with t.span("registry.register"):
            record = registry.register(request, now)
        with t.span("canonical.encode"):
            body = canonical_json(record.to_doc()).encode("utf-8")
        with t.span("client.decode"):
            AgentRecord.from_doc(json.loads(body))


def _replay_control(setup, registry, op, t, renew: bool) -> None:
    """A renew or revoke, signed by the agent's own key."""
    identity = setup.identities[op.agent]
    name = identity.name.render()
    now = int(time.time())
    kind = "renew" if renew else "revoke"
    payload_fn = renewal_payload if renew else revocation_payload
    with t.span(f"replay.{kind}", root=True):
        with t.span("client.sign"):
            signature = identity.identity_keys.sign(canonical_bytes(payload_fn(name, now)))
        with t.span("client.encode"):
            raw = json.dumps({"ts": now, "signature": signature.hex()}).encode("utf-8")
        with t.span("server.json_decode"):
            doc = json.loads(raw)
        ts, sig = int(doc["ts"]), bytes.fromhex(doc["signature"])
        if renew:
            with t.span("registry.renew"):
                result = registry.renew(name, ts, sig, now).to_doc()
        else:
            with t.span("registry.revoke"):
                registry.revoke(name, ts, sig, now)
            result = {"revoked": name}
        with t.span("canonical.encode"):
            canonical_json(result)


def _replay_log_append(setup, count: int, t) -> None:
    """EventLog.append with fsync on, outside the registry lock, for the
    first ``count`` events of the workload's own log."""
    with open(setup.log_path, "r", encoding="utf-8") as fh:
        events = [RegistryEvent.from_doc(json.loads(line))
                  for line in itertools.islice(fh, count)]
    log = EventLog(str(setup.workdir / "append.log"), fsync=True)
    try:
        for event in events:
            with t.span("registry.log_append", root=True):
                log.append(event)
    finally:
        log.close()
