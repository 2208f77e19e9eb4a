"""Seeded workload definitions: populations, query pools, op schedules and the
resolve oracle.

Everything that shapes the work is drawn from the seed: names, namespaces,
versions, which agents and queries each client touches, and in which order.
Key material is not: ``harness.build_ca`` and ``bootstrap_identity`` draw keys
from the OS, so certificates and signatures differ between runs while the
amount of work they cause does not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ans import names
from ans.identity import AGENT_VALIDITY_S
from ans.names import AnsName, NameQuery, Version
from ans.policy import EvaluationContext, PHASE_RUNTIME, PolicySubject, evaluate

PROTOCOLS = ("a2a", "mcp", "acp")
ENVIRONMENTS = ("prod", "staging")
EXTRA_CAPABILITY = "telemetry-export"
N_NAMESPACES = 5

RESOLVE, ATTEST, REGISTER, RENEW, REVOKE, HANDSHAKE = (
    "resolve", "attest", "register", "renew", "revoke", "handshake")
OP_KINDS = (RESOLVE, ATTEST, REGISTER, RENEW, HANDSHAKE)

# Resolve query kinds. ``capability`` uses the registry's index; ``agent`` and
# ``provider_env`` scan every record.
Q_CAPABILITY, Q_AGENT, Q_PROVIDER_ENV = "capability", "agent", "provider_env"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_agents: int
    n_capabilities: int
    n_providers: int
    query_kinds: tuple[str, ...]
    # Op-kind weights each mixed client draws from; empty for role workloads.
    mix: tuple[tuple[str, float], ...] = ()
    # write_contention: names the writer cycles through.
    pool_size: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady_mix",
            why="small requests of every kind, so fixed per-request cost (HTTP framing, "
                "the delayed-ACK stall, Ed25519, metrics) dominates",
            n_agents=200, n_capabilities=40, n_providers=20,
            query_kinds=(Q_CAPABILITY, Q_AGENT),
            mix=((RESOLVE, 0.50), (ATTEST, 0.15), (REGISTER, 0.15), (RENEW, 0.10),
                 (HANDSHAKE, 0.10)),
        ),
        Workload(
            name="large_resolve",
            why="5,000 records and ~50-hit resolves, so scans, per-hit policy, encoding and "
                "decoding dominate and large bodies bypass the small-response stall",
            n_agents=5000, n_capabilities=100, n_providers=50,
            query_kinds=(Q_CAPABILITY, Q_AGENT, Q_PROVIDER_ENV),
            mix=((RESOLVE, 1.0),),
        ),
        Workload(
            name="write_contention",
            why="one writer cycling register/renew/revoke against one reader on shared "
                "index sets, so registry lock waits and fsync on the write path show",
            n_agents=1000, n_capabilities=50, n_providers=20,
            query_kinds=(Q_CAPABILITY,),
            pool_size=100,
        ),
    )
}

# Query pool sizes per kind; scans are drawn from a sample of agents.
AGENT_QUERIES = 200


@dataclass(frozen=True)
class AgentSpec:
    index: int
    name: AnsName
    namespace: str

    @property
    def capabilities(self) -> tuple[str, ...]:
        return (self.name.capability, EXTRA_CAPABILITY)


@dataclass(frozen=True)
class Op:
    kind: str
    agent: int = -1        # population index (attest, register, renew, revoke, handshake)
    capability: str = ""   # attest, handshake
    query: int = -1        # query pool index (resolve)


def _rng(seed: int, *labels) -> random.Random:
    return random.Random("/".join(str(x) for x in (seed, *labels)))


def population(workload: Workload, seed: int) -> list[AgentSpec]:
    """Agent names with exactly balanced capability and provider+env groups."""
    rng = _rng(seed, workload.name, "population")
    n = workload.n_agents
    cap_slot = list(range(n))
    group_slot = list(range(n))
    rng.shuffle(cap_slot)
    rng.shuffle(group_slot)
    specs = []
    for i in range(n):
        group = group_slot[i] % (workload.n_providers * len(ENVIRONMENTS))
        name = AnsName(
            protocol=rng.choice(PROTOCOLS),
            agent_id=f"agent-{i:04d}",
            capability=f"cap-{cap_slot[i] % workload.n_capabilities:03d}",
            provider=f"prov-{group // len(ENVIRONMENTS):02d}",
            version=Version(1, rng.randrange(3), rng.randrange(10)),
            extension=ENVIRONMENTS[group % len(ENVIRONMENTS)],
        )
        specs.append(AgentSpec(i, name, f"ns-{i % N_NAMESPACES}"))
    return specs


def query_pool(workload: Workload, specs: list[AgentSpec], seed: int) -> list[NameQuery]:
    """Every query a resolve op may send, grouped by kind in a fixed order."""
    rng = _rng(seed, workload.name, "queries")
    queries: list[NameQuery] = []
    for kind in workload.query_kinds:
        if kind == Q_CAPABILITY:
            queries += [NameQuery(capability=f"cap-{c:03d}")
                        for c in range(workload.n_capabilities)]
        elif kind == Q_AGENT:
            sample = rng.sample(specs, min(AGENT_QUERIES, len(specs)))
            queries += [NameQuery(agent_id=s.name.agent_id) for s in sample]
        elif kind == Q_PROVIDER_ENV:
            queries += [NameQuery(provider=f"prov-{p:02d}", extension=env)
                        for p in range(workload.n_providers) for env in ENVIRONMENTS]
    return queries


def query_kind(query: NameQuery) -> str:
    if query.capability is not None:
        return Q_CAPABILITY
    if query.agent_id is not None:
        return Q_AGENT
    return Q_PROVIDER_ENV


def pool_members(workload: Workload, specs: list[AgentSpec]) -> list[int]:
    """write_contention's writer pool: the first ``pool_size / n_capabilities``
    agents of every capability, so each reader query shares its index set
    with the writer."""
    if not workload.pool_size:
        return []
    per_capability = workload.pool_size // workload.n_capabilities
    taken: dict[str, int] = {}
    members = []
    for spec in specs:
        if taken.get(spec.name.capability, 0) < per_capability:
            taken[spec.name.capability] = taken.get(spec.name.capability, 0) + 1
            members.append(spec.index)
    return members


BLOCK = 20  # a mix workload's op kinds are drawn in shuffled blocks of this many


class Schedule:
    """One client's endless, seeded op stream.

    Op kinds (and resolve query kinds) come in shuffled blocks that hold each
    kind in its exact share, so every run of a given length sends the same
    mix; the seed picks the order within blocks and the agents and queries.
    """

    def __init__(self, workload: Workload, specs: list[AgentSpec], queries: list[NameQuery],
                 seed: int, client: int):
        self.workload = workload
        self.specs = specs
        self.rng = _rng(seed, workload.name, "client", client)
        self.client = client
        self._by_kind: dict[str, list[int]] = {}
        for i, q in enumerate(queries):
            self._by_kind.setdefault(query_kind(q), []).append(i)
        self._op_kinds = self._blocks([k for k, w in workload.mix for _ in range(round(w * BLOCK))])
        self._query_kinds = self._blocks([k for k in workload.query_kinds if k in self._by_kind])
        self._step = 0
        if workload.pool_size:
            self._pool = pool_members(workload, specs)
            self.rng.shuffle(self._pool)

    def _blocks(self, block: list[str]):
        while block:
            block = list(block)
            self.rng.shuffle(block)
            yield from block

    def _query(self) -> Op:
        pool = self._by_kind[next(self._query_kinds)]
        return Op(RESOLVE, query=pool[self.rng.randrange(len(pool))])

    def _agent_op(self, kind: str) -> Op:
        spec = self.specs[self.rng.randrange(len(self.specs))]
        capability = ""
        if kind in (ATTEST, HANDSHAKE):
            capability = spec.capabilities[self.rng.randrange(len(spec.capabilities))]
        return Op(kind, agent=spec.index, capability=capability)

    def _writer(self) -> Op:
        """Visit the pool round-robin; each visit moves that name one step
        through renew -> revoke -> register, starting at a per-name offset so
        about a third of the pool is revoked at any time."""
        position = self._step % len(self._pool)
        visit = self._step // len(self._pool)
        self._step += 1
        phase = (visit + position) % 3
        return Op((RENEW, REVOKE, REGISTER)[phase], agent=self._pool[position])

    def next(self) -> Op:
        if self.workload.pool_size:
            return self._writer() if self.client == 0 else self._query()
        kind = next(self._op_kinds)
        return self._query() if kind == RESOLVE else self._agent_op(kind)

    def take(self, n: int) -> list[Op]:
        return [self.next() for _ in range(n)]


def probe_kinds(workload: Workload) -> tuple[str, ...]:
    """Op kinds the workload's own clients never send."""
    if workload.pool_size:
        sent = {RESOLVE, REGISTER, RENEW, REVOKE}
    else:
        sent = {kind for kind, _ in workload.mix}
    return tuple(k for k in OP_KINDS if k not in sent)


def probe_ops(workload: Workload, specs: list[AgentSpec], seed: int,
              per_kind: dict[str, int]) -> list[Op]:
    """The fixed probe one client runs alone after the window: ``per_kind``
    ops of every kind the workload's clients never send.

    Kinds run in blocks, so each op follows one of its own kind, as in a
    closed loop of that kind alone; interleaving kinds would leave the
    registry connection idle for varying gaps, which changes whether a reply
    waits for a delayed ACK. Agents the writer moves are never probed, as
    they may be revoked."""
    rng = _rng(seed, workload.name, "probe")
    pool = set(pool_members(workload, specs))
    stable = [s for s in specs if s.index not in pool]
    ops = []
    for kind in probe_kinds(workload):
        for _ in range(per_kind[kind]):
            spec = stable[rng.randrange(len(stable))]
            capability = spec.capabilities[rng.randrange(2)] if kind in (ATTEST, HANDSHAKE) else ""
            ops.append(Op(kind, agent=spec.index, capability=capability))
    return ops


# -- resolve oracle -------------------------------------------------------------


def policy_subject(spec: AgentSpec) -> PolicySubject:
    name = spec.name
    return PolicySubject(
        protocol=name.protocol,
        agent_id=name.agent_id,
        capability=name.capability,
        capabilities=spec.capabilities,
        provider=name.provider,
        environment=name.extension,
        namespace=spec.namespace,
        cert_validity_seconds=AGENT_VALIDITY_S,
    )


def _order(spec: AgentSpec):
    return (tuple(-v for v in spec.name.version.sort_key()), spec.name.render())


class Oracle:
    """Expected resolve answers, computed from the population alone.

    A record is expected iff ``names.matches`` holds, it is visible (active
    and unexpired; every record is registered with a 24 h TTL inside the run)
    and runtime ``policy.evaluate`` allows it. Candidates are bucketed by the
    query's constrained field first so large populations stay cheap; the
    tests check the buckets against a full scan.
    """

    def __init__(self, specs: list[AgentSpec], policies, now: int):
        self.specs = specs
        allowed = [
            evaluate(EvaluationContext(policy_subject(s), PHASE_RUNTIME, now), policies).allowed
            for s in specs
        ]
        self._allowed = allowed
        self._buckets: dict[tuple, list[int]] = {}
        for s in specs:
            n = s.name
            for key in (("capability", n.capability), ("agent", n.agent_id),
                        ("provider", n.provider)):
                self._buckets.setdefault(key, []).append(s.index)

    def candidates(self, query: NameQuery) -> list[int]:
        if query.capability is not None:
            return self._buckets.get(("capability", query.capability), [])
        if query.agent_id is not None:
            return self._buckets.get(("agent", query.agent_id), [])
        if query.provider is not None:
            return self._buckets.get(("provider", query.provider), [])
        return [s.index for s in self.specs]

    def expected(self, query: NameQuery, present=None) -> list[str]:
        """Rendered names in server order; ``present(index)`` filters records
        the caller knows to be registered."""
        hits = [
            self.specs[i] for i in self.candidates(query)
            if names.matches(self.specs[i].name, query) and self._allowed[i]
            and (present is None or present(i))
        ]
        hits.sort(key=_order)
        return [s.name.render() for s in hits]


def check_resolve(got: list[str], required: list[str], allowed: list[str]) -> str | None:
    """``got`` must hold every required name, only allowed names, no
    duplicates, in the oracle's order. ``required == allowed`` unless a writer
    is moving names in and out during the query."""
    if got == required:
        return None
    allowed_set = set(allowed)
    if len(set(got)) != len(got):
        return "duplicate records in answer"
    if not set(required) <= set(got):
        return f"missing {sorted(set(required) - set(got))[:3]}"
    if not set(got) <= allowed_set:
        return f"unexpected {sorted(set(got) - allowed_set)[:3]}"
    if got != [n for n in allowed if n in set(got)]:
        return "records out of order"
    return None
