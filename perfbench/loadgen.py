"""Closed-loop load generator: builds a workload's population, starts the real
server (``ansctl serve``) and a handshake peer as their own processes, and
drives them over loopback HTTP from at most two client threads.

Each client holds one persistent ``RegistryClient`` and sends its next
request only after the previous reply arrived; nothing sleeps between ops.
Every answer is checked (resolve against the oracle, attest granted,
register and renew carrying the expected name and expiry); a wrong answer
counts as a failed op.
"""

from __future__ import annotations

import collections
import gc
import http.client
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace
from pathlib import Path

from ans.canonical import canonical_bytes, canonical_json
from ans.cli import save_identity
from ans.client import (
    AgentIdentity,
    RegistryClient,
    TcpTransport,
    attest_with,
    bootstrap_identity,
    build_registration_request,
    discover,
    initiate_handshake,
    register_with,
    renew_with,
    request_capability,
)
from ans.harness import build_ca, harness_policies
from ans.identity import AGENT_VALIDITY_S, ROLE_AGENT, issue_certificate
from ans.names import AnsName, Version
from ans.policy import policies_to_doc
from ans.registry import (
    DEFAULT_RECORD_TTL_S,
    AgentRecord,
    EventLog,
    Registry,
    renewal_payload,
    revocation_payload,
)

from perfbench import workloads as wl
from perfbench.tracing import NULL_TRACER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

CLIENTS = 2
# setup_s is the median of this many server starts: half before the timed
# window (the last of them is the server the clients use), half after it, so
# the median spans the run rather than one moment of it.
SETUP_LAUNCHES = 16
WARMUP_OPS = 4             # per client, before the timed window
# Probe ops per kind a workload's own clients never send.
PROBE_PER_KIND = {wl.ATTEST: 40, wl.REGISTER: 40, wl.RENEW: 40, wl.HANDSHAKE: 200}
CHUNK = 256                # ops prepared per client at a time
REPLY_SAMPLE = 50          # resolves re-sent after a traced window to size replies
START_TIMEOUT_S = 60.0
PEER_NAME = AnsName("a2a", "bench-peer", "verify", "prov-peer", Version(1, 0), "prod")


def child_env() -> dict:
    """The server runs the checkout's own source; ANS_* settings from the
    caller's environment are dropped so the shipped defaults (fsync on) hold."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANS_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- child processes ------------------------------------------------------------


class Child:
    """A process that announces its address on its first stdout line."""

    def __init__(self, argv: list[str], stderr_path: Path, pattern: str):
        self.started = time.perf_counter()
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self._stderr, env=child_env(), cwd=str(ROOT))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            match = re.search(pattern, line)
            if match is None:
                raise RuntimeError(f"{argv[2:4]} did not start (see {stderr_path}): {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self.ready()
        except BaseException:
            self.stop()
            raise

    def ready(self) -> None:
        """Wait until the process serves; its first stdout line is in."""

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self._stderr.close()

    def cpu_s(self) -> float:
        """User + system CPU seconds of the process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")


def healthz(host: str, port: int) -> bool:
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        return response.status == 200 and response.read() == b"ok"
    except OSError:
        return False
    finally:
        conn.close()


class Server(Child):
    """``ansctl serve --listen 127.0.0.1:0`` on ``log`` in the workload's
    directory, fsync on."""

    def __init__(self, workdir: Path, log: str):
        argv = [sys.executable, "-m", "ans.cli", "serve", "--listen", "127.0.0.1:0",
                "--anchors", str(workdir / "anchors.json"),
                "--policy", str(workdir / "policy.json"),
                "--log", str(workdir / log)]
        super().__init__(argv, workdir / "server.stderr", r"serving on http://([\d.]+):(\d+)")
        self.url = f"http://{self.host}:{self.port}"

    def ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not healthz(self.host, self.port):
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
        self.setup_s = time.perf_counter() - self.started


def scrape(client: RegistryClient) -> dict[str, float]:
    """The server's /v1/metrics as ``{line name: value}``."""
    out = {}
    for line in client.get("/v1/metrics").splitlines():
        key, _, value = line.rpartition(" ")
        out[key] = float(value)
    return out


# -- population -----------------------------------------------------------------


def resolve_path(query) -> str:
    """The request ``client.discover`` sends for this query."""
    params = {k: v for k, v in (("agent", query.agent_id), ("capability", query.capability),
                                ("provider", query.provider), ("env", query.extension))
              if v is not None}
    return "/v1/resolve?" + urllib.parse.urlencode(params)


class Setup:
    """A workload's generated inputs, materialized with keys and written to
    the event log the server recovers from."""

    def __init__(self, workload: wl.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.specs = wl.population(self.workload, self.seed)
        self.queries = wl.query_pool(self.workload, self.specs, self.seed)
        self.now = int(time.time())
        self.ca = build_ca(self.now)
        self.policies = harness_policies()
        self.identities = [
            bootstrap_identity(s.name, f"https://{s.name.agent_id}.example/agent",
                               (wl.EXTRA_CAPABILITY,), self.ca.intermediate_keys,
                               self.ca.intermediate_cert, self.ca.root_cert, now=self.now)
            for s in self.specs
        ]
        self.requests = [build_registration_request(i, s.namespace)
                         for i, s in zip(self.identities, self.specs)]
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "anchors.json").write_text(canonical_json([self.ca.root_cert.to_doc()]))
        (self.workdir / "policy.json").write_text(
            canonical_json(policies_to_doc(self.policies)))
        # The log is the benchmark's own data generation: written without
        # fsync, then copied for the server, which recovers it and appends to
        # it with fsync on. The original stays as generated for the replay.
        self.log_path = self.workdir / "population.log"
        registry = Registry(policies=self.policies, trust_anchors=self.ca.anchors,
                            log=EventLog(str(self.log_path), fsync=False))
        try:
            for request in self.requests:
                registry.register(request, self.now)
        finally:
            registry.close()
        shutil.copyfile(self.log_path, self.workdir / "events.log")
        self.pool = set(wl.pool_members(self.workload, self.specs))
        oracle = wl.Oracle(self.specs, self.policies, self.now)
        self.expected = [
            (oracle.expected(q, present=lambda i: i not in self.pool), oracle.expected(q))
            for q in self.queries
        ]
        self.paths = [resolve_path(q) for q in self.queries]
        self.peer = bootstrap_identity(PEER_NAME, "tcp://127.0.0.1", (), self.ca.intermediate_keys,
                                       self.ca.intermediate_cert, self.ca.root_cert, now=self.now)
        save_identity(str(self.workdir / "peer.json"), self.peer)
        # write_contention re-sends these signed documents, so chains repeat.
        self.signed = {}
        for i in self.pool:
            name = self.specs[i].name.render()
            keys = self.identities[i].identity_keys
            self.signed[i] = {
                wl.REGISTER: self.requests[i].to_doc(),
                wl.RENEW: {"ts": self.now,
                           "signature": keys.sign(canonical_bytes(
                               renewal_payload(name, self.now))).hex()},
                wl.REVOKE: {"ts": self.now,
                            "signature": keys.sign(canonical_bytes(
                                revocation_payload(name, self.now))).hex()},
            }

    def rotated(self, index: int) -> AgentIdentity:
        """The agent under a freshly issued certificate for the same key."""
        identity = self.identities[index]
        cert = issue_certificate(
            self.ca.intermediate_keys, self.ca.intermediate_cert,
            identity.identity_keys.public_key, ROLE_AGENT, AGENT_VALIDITY_S,
            subject_name=identity.name, commitments=identity.commitments(), now=int(time.time()),
        )
        return replace(identity, chain=replace(identity.chain, agent=cert))


# -- ops ------------------------------------------------------------------------


def route(method: str, path: str) -> str:
    """The registry route a request goes to, named as its op."""
    path = path.split("?", 1)[0]
    if method == "DELETE":
        return "revoke"
    if path.endswith("/renew"):
        return "renew"
    return {"/v1/resolve": "resolve", "/v1/challenge": "challenge", "/v1/attest": "attest",
            "/v1/agents": "register", "/v1/metrics": "metrics"}[path]


class TracedClient(RegistryClient):
    """A ``RegistryClient`` whose every request is an ``http.<route>`` span:
    JSON text, socket round trip and JSON parse. The SDK functions take it as
    their ``client``, so traced and untraced ops run the same code."""

    tracer = NULL_TRACER

    def _request(self, method: str, path: str, body=None):
        with self.tracer.span(f"http.{route(method, path)}"):
            return super()._request(method, path, body)


class OpError(Exception):
    """The server answered, but not with what the oracle expects."""


def _check_record(record: AgentRecord, name: str, wall0: float, wall1: float) -> None:
    """Active, under the expected name, and expiring one TTL after the server
    handled it, which was between ``wall0`` and ``wall1``."""
    if record.name.render() != name or record.status != "active":
        raise OpError(f"record {record.name.render()} {record.status}, expected active {name}")
    ttl = DEFAULT_RECORD_TTL_S
    if not int(wall0) + ttl <= record.expires_at <= int(wall1) + ttl:
        raise OpError(f"{name} expires_at {record.expires_at} is not now + TTL")


class Worker:
    """One client thread: a persistent RegistryClient and its op stream."""

    def __init__(self, setup: Setup, index: int, url: str, peer: tuple[str, int]):
        self.setup = setup
        self.url = url
        self.peer = peer
        self.client = TracedClient(url)
        self.schedule = wl.Schedule(setup.workload, setup.specs, setup.queries,
                                    setup.seed, index)
        self.pending: collections.deque = collections.deque()
        self.prepare(2 * CHUNK)
        self.samples: dict[str, list[float]] = {k: [] for k in (*wl.OP_KINDS, wl.REVOKE)}
        self.attempted = 0
        self.sent: list = []
        self.errors: list[str] = []
        self.tracer = NULL_TRACER

    def set_tracer(self, tracer) -> None:
        self.tracer = self.client.tracer = tracer

    def prepare(self, n: int) -> None:
        """Draw the next ``n`` ops; a mix workload's register needs a freshly
        issued certificate, which is made here, outside any timing."""
        for op in self.schedule.take(n):
            self.pending.append((op, self._payload(op)))

    def _payload(self, op):
        if op.kind == wl.REGISTER and not self.setup.pool:
            return self.setup.rotated(op.agent)
        return None

    def next_op(self):
        if not self.pending:
            self.prepare(CHUNK)
        return self.pending.popleft()

    def run(self, ops) -> tuple[int, float]:
        """Run ops in a closed loop. Returns (ops completed, perf_counter at
        the last completion)."""
        done, last = 0, time.perf_counter()
        for op, payload in ops:
            self.attempted += 1
            self.sent.append(op)
            wall0 = time.time()
            t0 = time.perf_counter()
            try:
                with self.tracer.span(f"op.{op.kind}", root=True):
                    check = getattr(self, f"_{op.kind}")(op, payload)
                last = time.perf_counter()
                self.samples[op.kind].append((last - t0) * 1e3)
                if op.kind == wl.RESOLVE:
                    kind = wl.query_kind(self.setup.queries[op.query])
                    self.samples.setdefault(f"resolve.{kind}", []).append((last - t0) * 1e3)
                check(wall0, time.time())
            except Exception as exc:  # every failure is a counted error, not a crash
                last = time.perf_counter()
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            done += 1
        return done, last

    def stream(self, stop):
        """The op stream until ``stop()`` is true. It is checked before an op
        is drawn, so the op after a phase is kept for the next one: a
        writer's cycle must not lose a step."""
        while not stop():
            yield self.next_op()

    # Each executor performs the op and returns a checker for its answer, so
    # the oracle comparison stays outside the timed region. Checkers take the
    # wall-clock interval the op ran in.

    def _resolve(self, op, payload):
        setup = self.setup
        records = discover(self.url, setup.queries[op.query], client=self.client)
        required, allowed = setup.expected[op.query]

        def check(wall0, wall1):
            problem = wl.check_resolve([r.name.render() for r in records], required, allowed)
            if problem:
                raise OpError(f"resolve {setup.paths[op.query]}: {problem}")
        return check

    def _attest(self, op, payload):
        identity = self.setup.identities[op.agent]
        doc = attest_with(identity, self.url, op.capability, client=self.client)
        want = {"granted": True, "agent": identity.name.render(), "capability": op.capability}

        def check(wall0, wall1):
            if doc != want:
                raise OpError(f"attest answered {doc}")
        return check

    def _register(self, op, payload):
        name = self.setup.specs[op.agent].name.render()
        if self.setup.pool:
            record = AgentRecord.from_doc(
                self.client.post("/v1/agents", self.setup.signed[op.agent][wl.REGISTER]))
            serial = self.setup.identities[op.agent].chain.agent.serial
        else:
            record = register_with(payload, self.url, self.setup.specs[op.agent].namespace,
                                   client=self.client)
            serial = payload.chain.agent.serial

        def check(wall0, wall1):
            _check_record(record, name, wall0, wall1)
            if record.chain.agent.serial != serial:
                raise OpError(f"register of {name} stored another certificate")
        return check

    def _renew(self, op, payload):
        identity = self.setup.identities[op.agent]
        name = identity.name.render()
        if self.setup.pool:
            record = AgentRecord.from_doc(self.client.post(
                f"/v1/agents/{urllib.parse.quote(name, safe='')}/renew",
                self.setup.signed[op.agent][wl.RENEW]))
        else:
            record = renew_with(identity, self.url, client=self.client)
        return lambda wall0, wall1: _check_record(record, name, wall0, wall1)

    def _revoke(self, op, payload):
        name = self.setup.specs[op.agent].name.render()
        doc = self.client.delete(f"/v1/agents/{urllib.parse.quote(name, safe='')}",
                                 self.setup.signed[op.agent][wl.REVOKE])

        def check(wall0, wall1):
            if doc != {"revoked": name}:
                raise OpError(f"revoke answered {doc}")
        return check

    def _handshake(self, op, payload):
        identity = self.setup.identities[op.agent]
        t = self.tracer
        with t.span("client.connect"):
            transport = TcpTransport.connect(*self.peer)
        try:
            with t.span("client.initiate_handshake"):
                session = initiate_handshake(identity, transport, self.setup.ca.anchors,
                                             expected_name=PEER_NAME)
            with t.span("client.request_capability"):
                result = request_capability(session, transport, op.capability, identity)
        finally:
            transport.close()

        def check(wall0, wall1):
            if session.peer_name != PEER_NAME or not result.granted:
                raise OpError(f"handshake {session.peer_name} granted={result.granted} "
                              f"{result.reason}")
        return check


# -- one run --------------------------------------------------------------------


@dataclass
class Phase:
    """Client-observed outcome of one closed-loop phase."""

    ops: int = 0
    seconds: float = 0.0
    cpu_s: float = 0.0


class Run:
    """Set up, start the processes, and run phases against them."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.workdir = OUT / f"run-{os.getpid()}-{workload.name}-{seed}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.children: list[Child] = []
        self.setup = Setup(workload, seed, self.workdir)

    def __enter__(self):
        # The generated inputs live as long as the run: keep the collector
        # from rescanning them while clients are timed.
        gc.collect()
        gc.freeze()
        try:
            self.setup_times = []
            self.time_setup(SETUP_LAUNCHES // 2 - 1)
            server = self.server = Server(self.workdir, "events.log")
            self.children.append(server)
            self.setup_times.append(server.setup_s)
            self.peer = Child([sys.executable, str(ROOT / "perfbench" / "peer.py"),
                               str(self.workdir / "peer.json"),
                               str(self.workdir / "anchors.json")],
                              self.workdir / "peer.stderr", r"peer on ([\d.]+):(\d+)")
            self.children.append(self.peer)
            self.workers = [Worker(self.setup, i, server.url, (self.peer.host, self.peer.port))
                            for i in range(CLIENTS)]
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc_info):
        self.close()

    def time_setup(self, launches: int) -> None:
        """Start and stop the server ``launches`` times, each on a fresh copy
        of the generated log, and keep each start's set-up time."""
        for _ in range(launches):
            shutil.copyfile(self.setup.log_path, self.workdir / "setup.log")
            server = Server(self.workdir, "setup.log")
            server.stop()
            self.setup_times.append(server.setup_s)

    def close(self) -> None:
        for worker in getattr(self, "workers", ()):
            worker.client.close()
        for child in self.children:
            child.stop()
        self.children = []
        gc.unfreeze()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _parallel(self, jobs) -> list:
        results = [None] * len(jobs)
        errors = []

        def call(i, fn):
            try:
                results[i] = fn()
            except BaseException as exc:
                errors.append(exc)
        threads = [threading.Thread(target=call, args=(i, fn)) for i, fn in enumerate(jobs)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    def warmup(self) -> None:
        self._parallel([lambda w=w: w.run(w.next_op() for _ in range(WARMUP_OPS))
                        for w in self.workers])
        self.clear_samples()

    def phase(self, seconds: float | None) -> Phase:
        """A timed closed-loop window, or the fixed probe when ``seconds`` is
        None."""
        result = Phase()
        cpu0 = self.server.cpu_s()
        start = time.perf_counter()
        if seconds is None:
            probe = wl.probe_ops(self.workload, self.setup.specs, self.seed, PROBE_PER_KIND)
            worker = self.workers[0]
            jobs = [lambda: worker.run((op, self._probe_payload(op)) for op in probe)]
        else:
            until = start + seconds
            jobs = [lambda w=w: w.run(w.stream(lambda: time.perf_counter() >= until))
                    for w in self.workers]
        outcomes = self._parallel(jobs)
        result.ops = sum(done for done, _ in outcomes)
        result.seconds = max(last for _, last in outcomes) - start
        result.cpu_s = self.server.cpu_s() - cpu0
        return result

    def scrape(self) -> dict[str, float]:
        """The server's /v1/metrics, read on client 0's connection while the
        clients are idle."""
        return scrape(self.workers[0].client)

    def reply_bytes(self, ops) -> float:
        """Mean body length of the server's reply to the first REPLY_SAMPLE
        resolves among ``ops``, re-sent off the clock on a connection of their
        own."""
        paths = [self.setup.paths[op.query] for op in ops if op.kind == wl.RESOLVE]
        conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=10)
        sizes = []
        try:
            for path in paths[:REPLY_SAMPLE]:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    raise RuntimeError(f"GET {path}: HTTP {response.status}")
                sizes.append(len(body))
        finally:
            conn.close()
        return statistics.fmean(sizes)

    def samples(self) -> dict[str, list[float]]:
        merged: dict[str, list[float]] = {}
        for worker in self.workers:
            for kind, values in worker.samples.items():
                merged.setdefault(kind, []).extend(values)
        return merged

    def counts(self) -> tuple[int, int]:
        """(ops attempted, ops failed) over the whole run."""
        return (sum(w.attempted for w in self.workers),
                sum(len(w.errors) for w in self.workers))

    def errors(self) -> list[str]:
        return [e for w in self.workers for e in w.errors]

    def clear_samples(self) -> None:
        for worker in self.workers:
            for values in worker.samples.values():
                values.clear()

    def _probe_payload(self, op):
        return self.setup.rotated(op.agent) if op.kind == wl.REGISTER else None

    def set_tracer(self, tracer) -> None:
        for worker in self.workers:
            worker.set_tracer(tracer)
