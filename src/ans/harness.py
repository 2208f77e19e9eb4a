"""Benchmark, security-validation, and scripted-demo harness.

Everything runs on one machine: the registry server is started in-process
and agents are concurrent client tasks over loopback TCP, so the code paths
under test are the real wire paths while runs stay reproducible. A fixed
seed fixes each agent's workload operation sequence; only latencies vary.

The latency budgets are p99 upper bounds the desk-scale run must stay
under; a local run exceeding them indicates an implementation problem, not
environmental noise.
"""

from __future__ import annotations

import functools
import os
import platform
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, replace

from . import attestation, client, names
from .attestation import ChallengeStore
from .canonical import canonical_json
from .client import (
    AgentIdentity,
    LoopbackTransport,
    PeerServer,
    RegistryClient,
    TcpTransport,
    bootstrap_identity,
)
from .errors import AnsError, TransportError
from .identity import CaSetup, KeyPair, build_ca
from .manifest import manifest_for_name
from .metrics import HistogramStats, Metrics
from .names import AnsName, NameQuery, Version
from .policy import Policy, PolicyRule, RuleConditions, RuleMatch, policies_to_doc
from .registry import Registry
from .server import AnsServer, ServerConfig

# p99 ceilings per operation, milliseconds.
LATENCY_BUDGET_P99_MS = {
    "registration": 156.0,
    "discovery": 41.0,
    "capability_verification": 267.0,
    "policy_evaluation": 12.0,
    "certificate_validation": 52.0,
}

REGISTRATION_FLOOR_PER_MIN = 1000
RESOLVE_SOFT_FLOOR_PER_S = 10_000
POLICY_SOFT_FLOOR_PER_S = 100_000


@dataclass(frozen=True)
class BenchConfig:
    n_agents: int = 50
    n_namespaces: int = 5
    duration_seconds: int = 60
    warmup_seconds: int = 10
    seed: int = 42

    def __post_init__(self) -> None:
        if not (self.n_agents >= self.n_namespaces >= 1):
            raise ValueError("need n_agents >= n_namespaces >= 1")


# -- shared scaffolding --------------------------------------------------------


def harness_policies(extra_rules: tuple[PolicyRule, ...] = ()) -> list[Policy]:
    """Realistic default policy set: staging/prod allowed, one explicit deny
    for the quarantined environment, and the policy ids demo manifests
    reference."""
    base = Policy(
        id="registry-base",
        description="environments the desk-scale runs may use",
        rules=(
            PolicyRule(
                id="allow-known-environments",
                effect="allow",
                conditions=RuleConditions(allowed_environments=("prod", "staging")),
            ),
            PolicyRule(
                id="deny-forbidden-env",
                effect="deny",
                match=RuleMatch(environment="forbidden"),
            ),
            *extra_rules,
        ),
    )
    security = Policy(
        id="agent-security-policy",
        description="certificate hygiene for demo agents",
        rules=(
            PolicyRule(
                id="cert-validity-cap",
                effect="allow",
                conditions=RuleConditions(max_cert_validity_seconds=120 * 86400),
            ),
        ),
    )
    data_access = Policy(
        id="data-access-policy",
        description="capability families demo agents may claim",
        rules=(
            PolicyRule(
                id="no-admin-caps",
                effect="allow",
                conditions=RuleConditions(capability_denylist=("admin-*",)),
            ),
        ),
    )
    return [base, security, data_access]


class _TempServer:
    """Server plus its scratch directory; always torn down."""

    def __init__(self, ca: CaSetup, policies):
        self.dir = tempfile.mkdtemp(prefix="ans-harness-")
        anchors_path = os.path.join(self.dir, "anchors.json")
        with open(anchors_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json([ca.root_cert.to_doc()]))
        policy_path = os.path.join(self.dir, "policy.json")
        with open(policy_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(policies_to_doc(policies)))
        self.log_path = os.path.join(self.dir, "events.log")
        config = ServerConfig(
            listen="127.0.0.1:0",
            anchors_path=anchors_path,
            policy_path=policy_path,
            log_path=self.log_path,
            snapshot_path=os.path.join(self.dir, "snapshot.json"),
        )
        self.server = AnsServer(config)
        self.server.start()

    @property
    def url(self) -> str:
        return self.server.url

    def close(self) -> None:
        try:
            self.server.shutdown()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


CAPABILITY_POOL = tuple(f"cap-{chr(ord('a') + i)}" for i in range(10))


def _agent_name(index: int, n_namespaces: int, rng: random.Random) -> tuple[AnsName, str]:
    namespace = f"ns-{index % n_namespaces}"
    protocol = ("a2a", "mcp", "acp")[index % 3]
    name = AnsName(
        protocol=protocol,
        agent_id=f"agent-{index:03d}",
        capability=CAPABILITY_POOL[index % len(CAPABILITY_POOL)],
        provider=f"prov-{index % n_namespaces}",
        version=Version(1, rng.randrange(0, 3)),
        extension="prod" if index % 2 == 0 else "staging",
    )
    return name, namespace


def _make_identity(ca: CaSetup, name: AnsName, endpoint: str = "http://127.0.0.1:0",
                   now: int | None = None) -> AgentIdentity:
    return bootstrap_identity(
        name, endpoint, ("telemetry-export",), ca.intermediate_keys,
        ca.intermediate_cert, ca.root_cert, now=now,
    )


# -- benchmark -----------------------------------------------------------------

def _draw_op(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.80:
        return "resolve"
    if roll < 0.90:
        return "attest"
    if roll < 0.95:
        return "renew"
    return "register_new"


def workload_schedule(config: BenchConfig, agent_index: int, n_ops: int) -> list[str]:
    """The first n_ops operations agent agent_index will run. Pure function of
    (seed, agent_index): two runs with one seed share the schedule."""
    rng = random.Random(config.seed * 7919 + agent_index)
    return [_draw_op(rng) for _ in range(n_ops)]


# Operations the benchmark's clients time; the server times the other two.
CLIENT_OPERATIONS = ("registration", "discovery", "capability_verification")


@dataclass(frozen=True)
class BenchReport:
    operations: dict[str, HistogramStats]
    throughput: dict[str, float]
    budgets: dict[str, dict]
    passed: bool
    environment: dict[str, str]

    def to_doc(self) -> dict:
        return {
            "operations": {op: s.to_doc() for op, s in self.operations.items()},
            "throughput": {k: round(v, 2) for k, v in self.throughput.items()},
            "budgets": self.budgets,
            "passed": self.passed,
            "environment": self.environment,
        }


def _environment() -> dict[str, str]:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": str(os.cpu_count() or 0),
    }


def _run_workers(what: str, workers) -> None:
    """Call each ``worker(stop)`` in its own thread. The first ``AnsError`` or
    ``TransportError`` sets ``stop`` for all of them; once every thread has
    joined, ``RuntimeError`` reports the errors."""
    stop = threading.Event()
    errors: list[str] = []

    def run(index: int, worker) -> None:
        try:
            worker(stop)
        except (AnsError, TransportError) as exc:
            errors.append(f"worker {index}: {exc}")
            stop.set()

    threads = [threading.Thread(target=run, args=entry, daemon=True)
               for entry in enumerate(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError(f"{what} aborted: {errors[:3]}")


def run_benchmark(config: BenchConfig = BenchConfig()) -> BenchReport:
    """Desk-scale benchmark: start a registry, spread n_agents over
    n_namespaces, register everyone, then run the seeded mixed workload
    (resolve-heavy with periodic attest/renew/fresh registrations) for
    duration_seconds after warmup. Latencies are wall clock on the client
    side; policy evaluation and chain validation come from the server's own
    operation histograms. Any unexpected error code aborts the run."""
    import sys

    ca = build_ca()
    harness_server = _TempServer(ca, harness_policies())
    # Operations that start before the warmup ends record apart.
    warmup, measured = Metrics(CLIENT_OPERATIONS), Metrics(CLIENT_OPERATIONS)
    # shorter GIL slices keep tail latency down with ~100 live threads
    old_switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    warmup_end = time.perf_counter() + config.warmup_seconds
    deadline = warmup_end + config.duration_seconds

    seed_rng = random.Random(config.seed)
    prepared = []
    for i in range(config.n_agents):
        name, namespace = _agent_name(i, config.n_namespaces, seed_rng)
        prepared.append((i, _make_identity(ca, name), namespace))

    def metrics() -> Metrics:
        return warmup if time.perf_counter() < warmup_end else measured

    def worker(index: int, identity: AgentIdentity, namespace: str, stop) -> None:
        rng = random.Random(config.seed * 7919 + index)
        pace = random.Random(config.seed * 104729 + index)
        registry_client = RegistryClient(harness_server.url)
        ephemeral = 0
        try:
            # stagger startup across the warmup window so the initial burst of
            # registrations does not serialize behind itself
            time.sleep(pace.uniform(0, max(config.warmup_seconds - 1, 0)))
            with metrics().timed("registration"):
                client.register_with(identity, harness_server.url, namespace,
                                     client=registry_client)
            while not stop.is_set() and time.perf_counter() < deadline:
                op = _draw_op(rng)
                if op == "resolve":
                    capability = CAPABILITY_POOL[pace.randrange(len(CAPABILITY_POOL))]
                    with metrics().timed("discovery"):
                        client.discover(harness_server.url, NameQuery(capability=capability),
                                        client=registry_client)
                elif op == "attest":
                    with metrics().timed("capability_verification"):
                        client.attest_with(identity, harness_server.url,
                                           identity.name.capability, client=registry_client)
                elif op == "renew":
                    client.renew_with(identity, harness_server.url, client=registry_client)
                else:
                    ephemeral += 1
                    # dedicated capability so churn does not inflate the
                    # discovery answers the other agents are timing
                    extra_name = AnsName(
                        protocol="a2a",
                        agent_id=f"extra-{index:03d}-{ephemeral:05d}",
                        capability="burst-traffic",
                        provider=identity.name.provider,
                        version=Version(1, 0),
                        extension="staging",
                    )
                    extra = _make_identity(ca, extra_name)
                    with metrics().timed("registration"):
                        client.register_with(extra, harness_server.url, namespace,
                                             client=registry_client)
                time.sleep(pace.uniform(0.10, 0.30))
        finally:
            registry_client.close()

    try:
        _run_workers("benchmark", [functools.partial(worker, *entry) for entry in prepared])
        early, late = warmup.snapshot().histograms, measured.snapshot().histograms
        # short runs: an operation with no sample after the warmup reports
        # its warmup samples rather than none
        operations = {op: late[op] if late[op].count else early[op]
                      for op in CLIENT_OPERATIONS}
        server = harness_server.server.metrics.snapshot().histograms
        operations["policy_evaluation"] = server["policy_eval"]
        operations["certificate_validation"] = server["chain_validation"]

        seconds = max(time.perf_counter() - warmup_end + config.warmup_seconds, 1e-9)
        throughput = {
            "registrations_per_min": (early["registration"].count
                                      + late["registration"].count) / seconds * 60,
            "resolves_per_sec": (early["discovery"].count + late["discovery"].count) / seconds,
            "policy_evals_per_sec": server["policy_eval"].count / seconds,
        }

        budgets = {}
        passed = True
        for op, budget in LATENCY_BUDGET_P99_MS.items():
            stats = operations[op]
            p99_ms = stats.quantiles_ms["0.99"]
            ok = stats.count > 0 and p99_ms <= budget
            budgets[op] = {"p99_ms": round(p99_ms, 3), "budget_ms": budget, "pass": ok}
            passed = passed and ok

        return BenchReport(
            operations=operations,
            throughput=throughput,
            budgets=budgets,
            passed=passed,
            environment=_environment(),
        )
    finally:
        sys.setswitchinterval(old_switch_interval)
        harness_server.close()


# -- dedicated throughput runs ---------------------------------------------------


def run_registration_throughput(
    duration_seconds: int = 300,
    target_per_minute: int = 2000,
    n_workers: int = 4,
    seed: int = 42,
) -> dict:
    """Paced sustained registration over HTTP. Reports per-minute completion
    counts; the floor check belongs to the caller."""
    ca = build_ca()
    harness_server = _TempServer(ca, harness_policies())
    interval = 60.0 * n_workers / target_per_minute
    t0 = time.perf_counter()
    completions: list[float] = []
    completions_lock = threading.Lock()

    def worker(worker_index: int, stop) -> None:
        registry_client = RegistryClient(harness_server.url)
        rng = random.Random(seed + worker_index)
        count = 0
        try:
            next_at = t0 + rng.uniform(0, interval)
            while not stop.is_set():
                now = time.perf_counter()
                if now >= t0 + duration_seconds:
                    return
                if now < next_at:
                    time.sleep(min(next_at - now, 0.05))
                    continue
                count += 1
                name = AnsName(
                    protocol="a2a",
                    agent_id=f"bulk-{worker_index}-{count:06d}",
                    capability=CAPABILITY_POOL[count % len(CAPABILITY_POOL)],
                    provider=f"prov-{worker_index}",
                    version=Version(1, 0),
                    extension="staging",
                )
                identity = _make_identity(ca, name)
                client.register_with(identity, harness_server.url, f"ns-{worker_index}",
                                     client=registry_client)
                with completions_lock:
                    completions.append(time.perf_counter() - t0)
                next_at += interval
        finally:
            registry_client.close()

    try:
        _run_workers("throughput run",
                     [functools.partial(worker, i) for i in range(n_workers)])
    finally:
        harness_server.close()

    n_minutes = duration_seconds // 60
    per_minute = [0] * max(n_minutes, 1)
    for at in completions:
        bucket = int(at // 60)
        if bucket < len(per_minute):
            per_minute[bucket] += 1
    return {
        "total": len(completions),
        "duration_seconds": duration_seconds,
        "per_minute": per_minute,
        "min_per_minute": min(per_minute) if per_minute else 0,
        "rate_per_minute": len(completions) / duration_seconds * 60,
    }


def run_resolve_microbench(n_records: int = 50, n_resolves: int = 50_000,
                           seed: int = 42) -> dict:
    """In-process resolve rate against a populated registry."""
    ca = build_ca()
    registry = Registry(policies=harness_policies(), trust_anchors=ca.anchors)
    now = int(time.time())
    rng = random.Random(seed)
    for i in range(n_records):
        name, namespace = _agent_name(i, 5, rng)
        identity = _make_identity(ca, name, now=now)
        registry.register(client.build_registration_request(identity, namespace), now)
    queries = [NameQuery(capability=c) for c in CAPABILITY_POOL]
    start = time.perf_counter()
    for i in range(n_resolves):
        registry.resolve(queries[i % len(queries)], now)
    elapsed = time.perf_counter() - start
    return {"resolves": n_resolves, "seconds": elapsed,
            "per_second": n_resolves / elapsed}


def run_policy_microbench(n_evals: int = 300_000) -> dict:
    """Pure policy-engine evaluation rate on a 10-rule set."""
    from .policy import EvaluationContext, PHASE_RUNTIME, PolicySubject, evaluate

    rules = [
        PolicyRule(id=f"r{i}", effect="allow",
                   match=RuleMatch(namespace=f"ns-{i}"),
                   conditions=RuleConditions(allowed_environments=("prod", "staging")))
        for i in range(9)
    ]
    rules.append(PolicyRule(id="deny-admin", effect="deny",
                            match=RuleMatch(capability="admin-*")))
    policies = [Policy(id="micro", description="", rules=tuple(rules))]
    subject = PolicySubject(
        protocol="a2a", agent_id="agent-000", capability="cap-a",
        capabilities=("cap-a", "telemetry-export"), provider="prov-0",
        environment="prod", namespace="ns-3", cert_validity_seconds=90 * 86400,
    )
    ctx = EvaluationContext(subject, PHASE_RUNTIME, int(time.time()))
    start = time.perf_counter()
    for _ in range(n_evals):
        evaluate(ctx, policies)
    elapsed = time.perf_counter() - start
    return {"evals": n_evals, "seconds": elapsed, "per_second": n_evals / elapsed}


# -- security suite --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    scenario_id: str
    expected: str
    observed: str
    passed: bool
    evidence: str

    def to_doc(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
            "evidence": self.evidence,
        }


def _result(scenario_id: str, expected: str, observed: str, evidence: str) -> ScenarioResult:
    return ScenarioResult(scenario_id, expected, observed, expected == observed, evidence)


def _fresh_registry(ca: CaSetup) -> Registry:
    return Registry(policies=harness_policies(), trust_anchors=ca.anchors)


def _registered_identity(ca: CaSetup, registry: Registry, index: int, now: int) -> AgentIdentity:
    name, namespace = _agent_name(index, 5, random.Random(index))
    identity = _make_identity(ca, name, now=now)
    registry.register(client.build_registration_request(identity, namespace), now)
    return identity


def _handshake_outcome(initiator: AgentIdentity, responder: AgentIdentity, anchors,
                       now: int) -> tuple[str, str]:
    """The responder's outcome (``SESSION`` or error code) and error message."""
    t_init, t_resp = LoopbackTransport.pair()
    outcome = ("NONE", "")

    def run_responder() -> None:
        nonlocal outcome
        try:
            client.respond_handshake(responder, t_resp, anchors, now=now)
            outcome = ("SESSION", "")
        except AnsError as exc:
            outcome = (exc.code, exc.message)

    thread = threading.Thread(target=run_responder)
    thread.start()
    try:
        client.initiate_handshake(initiator, t_init, anchors, now=now)
    except AnsError:
        pass
    thread.join()
    return outcome


def _register_outcome(registry: Registry, identity: AgentIdentity, namespace: str,
                      now: int) -> AnsError | None:
    """The error a registration raised, or None when it was accepted."""
    try:
        registry.register(client.build_registration_request(identity, namespace), now)
    except AnsError as exc:
        return exc
    return None


def _scenario_impersonation(now: int) -> ScenarioResult:
    ca = build_ca(now)
    registry = _fresh_registry(ca)
    victim = _registered_identity(ca, registry, 0, now)
    responder = _registered_identity(ca, registry, 1, now)
    # stolen certificate chain, wrong private key
    imposter = replace(victim, identity_keys=KeyPair.generate(), capabilities={})
    code, message = _handshake_outcome(imposter, responder, ca.anchors, now)
    return _result("S1", "BAD_SIGNATURE", code, f"responder: {code} ({message})")


def _scenario_escalation(now: int) -> ScenarioResult:
    ca = build_ca(now)
    prover_name, _ = _agent_name(2, 5, random.Random(2))
    verifier_name, _ = _agent_name(3, 5, random.Random(3))
    prover = _make_identity(ca, prover_name, now=now)
    verifier = _make_identity(ca, verifier_name, now=now)
    t_init, t_resp = LoopbackTransport.pair()
    outcome = {}

    def run_verifier() -> None:
        session = client.respond_handshake(verifier, t_resp, ca.anchors, now=now)
        store = ChallengeStore()
        outcome["verdict"] = client.serve_capability_request(
            session, t_resp, ca.anchors, store, now=now)

    thread = threading.Thread(target=run_verifier)
    thread.start()
    session = client.initiate_handshake(prover, t_init, ca.anchors, now=now)
    verdict = client.request_capability(session, t_init, "admin-root", prover, now=now)
    thread.join()
    observed = verdict.reason or "GRANTED"
    return _result("S2", "UNKNOWN_CAPABILITY", observed,
                   f"uncommitted capability request denied: {verdict.message}")


def _scenario_expired_cert(now: int) -> ScenarioResult:
    past = now - 200 * 86400
    ca = build_ca(past)
    registry = _fresh_registry(ca)
    name, namespace = _agent_name(4, 5, random.Random(4))
    # certificate window ended ~110 days ago
    stale = bootstrap_identity(name, "http://127.0.0.1:0", (), ca.intermediate_keys,
                               ca.intermediate_cert, ca.root_cert, now=past)
    error = _register_outcome(registry, stale, namespace, now)
    reg_code = "ACCEPTED" if error is None else error.code

    fresh_ca = build_ca(now)
    honest = _make_identity(fresh_ca, _agent_name(5, 5, random.Random(5))[0], now=now)
    hs_code, _ = _handshake_outcome(stale, honest, (fresh_ca.root_cert, ca.root_cert), now)
    combined = f"{reg_code}+{hs_code}"
    return _result("S3", "CERT_EXPIRED+CERT_EXPIRED", combined,
                   f"registration: {reg_code}, handshake: {hs_code}")


def _scenario_replay(now: int) -> ScenarioResult:
    ca = build_ca(now)
    registry = _fresh_registry(ca)
    identity = _registered_identity(ca, registry, 6, now)
    store = ChallengeStore()
    challenge = store.issue(identity.name, now)
    secret = identity.capabilities[identity.name.capability]
    proof = attestation.prove(challenge, secret, identity.identity_keys, identity.name, now)
    commitment = next(c for c in identity.commitments()
                      if c.capability == identity.name.capability)
    first = attestation.verify(proof, commitment, identity.chain, ca.anchors, store, now)
    second = attestation.verify(proof, commitment, identity.chain, ca.anchors, store, now)
    observed = "NONE"
    if first.granted and not second.granted:
        observed = second.reason or "DENIED"
    return _result("S4", "NONCE_REPLAY", observed,
                   "second submission rejected" if observed == "NONCE_REPLAY"
                   else f"first={first}, second={second}")


def _scenario_policy_violation(now: int) -> ScenarioResult:
    ca = build_ca(now)
    registry = _fresh_registry(ca)
    name = AnsName("a2a", "rogue-agent", "cap-a", "prov-0", Version(1, 0), "forbidden")
    identity = _make_identity(ca, name, now=now)
    error = _register_outcome(registry, identity, "ns-0", now)
    if error is None:
        return _result("S5", "POLICY_DENIED", "ACCEPTED", "registration was accepted")
    detail = error.details.get("explain", "") if isinstance(error.details, dict) else ""
    return _result("S5", "POLICY_DENIED", error.code,
                   f"matched deny rule: {'deny-forbidden-env' in detail}, {error.message}")


def _scenario_tampered_chain(now: int) -> ScenarioResult:
    ca = build_ca(now)
    registry = _fresh_registry(ca)
    name, namespace = _agent_name(7, 5, random.Random(7))
    identity = _make_identity(ca, name, now=now)
    tampered_inter = replace(identity.chain.intermediate,
                             serial=identity.chain.intermediate.serial + 1)
    tampered = replace(identity, chain=replace(identity.chain, intermediate=tampered_inter))
    error = _register_outcome(registry, tampered, namespace, now)
    if error is None:
        return _result("S6", "CHAIN_INVALID", "ACCEPTED", "registration was accepted")
    return _result("S6", "CHAIN_INVALID", error.code, error.message)


def run_security_suite(now: int | None = None) -> list[ScenarioResult]:
    """Attack scenarios S1-S6, each against a fresh registry. Failures are
    reported in the results, never thrown."""
    if now is None:
        now = int(time.time())
    return [
        _scenario_impersonation(now),
        _scenario_escalation(now),
        _scenario_expired_cert(now),
        _scenario_replay(now),
        _scenario_policy_violation(now),
        _scenario_tampered_chain(now),
    ]


# -- scripted demo -----------------------------------------------------------------


DEMO_PHASES = ("admission", "registration", "discovery", "handshake", "capability", "renewal")


@dataclass(frozen=True)
class DemoReport:
    agents: int
    succeeded: int
    success_rate: float
    invalid_manifest_rejected: bool
    rollback_ok: bool
    phases: dict[str, HistogramStats]
    event_kinds: list[str]
    elapsed_seconds: float

    def to_doc(self) -> dict:
        return {
            "agents": self.agents,
            "succeeded": self.succeeded,
            "success_rate": self.success_rate,
            "invalid_manifest_rejected": self.invalid_manifest_rejected,
            "rollback_ok": self.rollback_ok,
            "phases": {k: v.to_doc() for k, v in self.phases.items()},
            "event_kinds": self.event_kinds,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def _resolve_sweep(url: str, registry_client: RegistryClient) -> str:
    """Canonical serialization of the answers to a fixed query battery;
    equality of two sweeps means observably identical resolve behavior."""
    battery: list[NameQuery] = []
    for capability in CAPABILITY_POOL:
        battery.append(NameQuery(capability=capability))
        battery.append(NameQuery(capability=capability,
                                 version_req=names.VersionRequirement.latest()))
    for i in range(5):
        battery.append(NameQuery(provider=f"prov-{i}"))
    for protocol in ("a2a", "mcp", "acp"):
        battery.append(NameQuery(protocol=protocol))
    for env in ("prod", "staging"):
        battery.append(NameQuery(extension=env))
    answers = []
    for query in battery:
        records = client.discover(url, query, client=registry_client)
        answers.append([r.to_doc() for r in records])
    return canonical_json(answers)


def run_demo(config: BenchConfig = BenchConfig(n_agents=50, n_namespaces=5, seed=7)) -> DemoReport:
    """Scripted lifecycle for n_agents: admission-validate the manifest,
    register, discover peers, mutual handshake ring, capability check, renew.
    One invalid manifest is injected and must be rejected with resolve
    behavior unchanged (checked by a query sweep before and after)."""
    started = time.perf_counter()
    ca = build_ca()
    harness_server = _TempServer(ca, harness_policies())
    url = harness_server.url
    rng = random.Random(config.seed)
    phases = Metrics(DEMO_PHASES)
    peers: list[PeerServer] = []
    registry_client = RegistryClient(url)
    succeeded = 0
    try:
        identities: list[AgentIdentity] = []
        namespaces: list[str] = []
        for i in range(config.n_agents):
            name, namespace = _agent_name(i, config.n_namespaces, rng)
            identities.append(_make_identity(ca, name))
            namespaces.append(namespace)

        for i, identity in enumerate(identities):
            manifest = manifest_for_name(
                identity.name, namespaces[i],
                capabilities=tuple(identity.capabilities),
                policies=("agent-security-policy", "data-access-policy"),
            )
            with phases.timed("admission"):
                decision = registry_client.post("/v1/admission/validate", manifest.to_doc())
            if not decision["allowed"]:
                continue
            with phases.timed("registration"):
                client.register_with(identity, url, namespaces[i], client=registry_client)
            with phases.timed("discovery"):
                found = client.discover(url, NameQuery(capability=identity.name.capability),
                                        client=registry_client)
            if not any(r.name == identity.name for r in found):
                continue
            succeeded += 1

        # mutual handshake ring with capability checks
        for identity in identities:
            peers.append(PeerServer(identity, ca.anchors).start())
        handshake_ok = 0
        for i, identity in enumerate(identities):
            peer = identities[(i + 1) % len(identities)]
            host, port = peers[(i + 1) % len(peers)].address
            transport = TcpTransport.connect(host, port)
            try:
                with phases.timed("handshake"):
                    session = client.initiate_handshake(identity, transport, ca.anchors,
                                                        expected_name=peer.name)
                with phases.timed("capability"):
                    verdict = client.request_capability(session, transport,
                                                        identity.name.capability, identity)
                if verdict.granted:
                    handshake_ok += 1
            finally:
                transport.close()

        for identity in identities:
            with phases.timed("renewal"):
                client.renew_with(identity, url, client=registry_client)

        succeeded = min(succeeded, handshake_ok)

        # injected failure: quarantined environment; admission denies it and a
        # forced registration attempt must bounce without changing resolution
        bad_name = AnsName("a2a", "rogue-agent", "cap-a", "prov-0", Version(9, 9), "forbidden")
        bad_manifest = manifest_for_name(bad_name, "ns-0")
        bad_decision = registry_client.post("/v1/admission/validate", bad_manifest.to_doc())
        invalid_rejected = not bad_decision["allowed"]

        before = _resolve_sweep(url, registry_client)
        bad_identity = _make_identity(ca, bad_name)
        try:
            client.register_with(bad_identity, url, "ns-0", client=registry_client)
            invalid_rejected = False
        except AnsError:
            pass
        after = _resolve_sweep(url, registry_client)
        rollback_ok = before == after

        from .registry import EventLog

        event_kinds = [e.kind for e in EventLog.read_events(harness_server.log_path)]
        return DemoReport(
            agents=config.n_agents,
            succeeded=succeeded,
            success_rate=succeeded / config.n_agents,
            invalid_manifest_rejected=invalid_rejected,
            rollback_ok=rollback_ok,
            phases=phases.snapshot().histograms,
            event_kinds=event_kinds,
            elapsed_seconds=time.perf_counter() - started,
        )
    finally:
        registry_client.close()
        for peer in peers:
            peer.stop()
        harness_server.close()
