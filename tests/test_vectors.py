"""Frozen vectors: bytes this version serves, rebuilt from fixed seeds,
serials and clocks and compared with the files in ``tests/vectors``, and a
log and snapshot this version wrote, which every later version must recover.

``tests/vectors/make_vectors.py`` rewrites those files from the builders
here; no test runs it. A change that alters a vector's bytes changes the wire
format, and must say so. The v1 log and snapshot are never rewritten: a
format change adds files beside them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import pathlib
import shutil
import tempfile
import urllib.parse
import urllib.request

from ans import client
from ans.attestation import Challenge, create_capability, prove
from ans.canonical import canonical_bytes, canonical_json
from ans.harness import harness_policies
from ans.identity import (
    AGENT_VALIDITY_S,
    INTERMEDIATE_VALIDITY_S,
    ROLE_AGENT,
    ROLE_INTERMEDIATE,
    ROLE_ROOT,
    ROOT_VALIDITY_S,
    CertificateChain,
    KeyPair,
    issue_certificate,
    verify_signature,
)
from ans.names import AnsName, NameQuery, Version
from ans.policy import policies_to_doc
from ans.registry import EventLog, Registry, renewal_payload, revocation_payload
from ans.server import AnsServer, ServerConfig

VECTORS = pathlib.Path(__file__).parent / "vectors"
RESOLVE_REPLY = VECTORS / "resolve_reply.json"
PAYLOADS = VECTORS / "payloads.json"
V1_LOG = VECTORS / "v1.log"
V1_SNAPSHOT = VECTORS / "v1.snapshot"

CLOCK = 1_700_000_000
ISSUED = CLOCK - 3600
RESOLVE_QUERY = NameQuery(capability="vector-search")
# (agent_id, provider, version) of each record, in registration order: 2- and
# 3-part versions, equal keys under different texts, v1.10 beside v1.9.
RESOLVE_AGENTS = (
    ("indexer", "prov-a", Version(1, 2)),
    ("indexer", "prov-a", Version(1, 10, 0)),
    ("ranker", "prov-b", Version(1, 9)),
    ("ranker", "prov-b", Version(2, 0, 1)),
    ("indexer", "prov-b", Version(1, 2, 0)),
    ("crawler", "prov-a", Version(1, 10)),
)
# The order the reply lists them in: version descending, then name.
RESOLVE_ORDER = [
    "a2a://ranker.vector-search.prov-b.v2.0.1.prod",
    "a2a://crawler.vector-search.prov-a.v1.10.prod",
    "a2a://indexer.vector-search.prov-a.v1.10.0.prod",
    "a2a://ranker.vector-search.prov-b.v1.9.prod",
    "a2a://indexer.vector-search.prov-a.v1.2.prod",
    "a2a://indexer.vector-search.prov-b.v1.2.0.prod",
]


def _keys(n: int) -> KeyPair:
    return KeyPair.generate(bytes([n]) * 32)


def _identities(agents=RESOLVE_AGENTS):
    """The CA's root certificate and one identity per ``agents`` entry, every
    key, serial and window fixed."""
    root_keys, inter_keys = _keys(1), _keys(2)
    root = issue_certificate(root_keys, None, root_keys.public_key, ROLE_ROOT,
                             ROOT_VALIDITY_S, serial=1, now=ISSUED)
    inter = issue_certificate(root_keys, root, inter_keys.public_key, ROLE_INTERMEDIATE,
                              INTERMEDIATE_VALIDITY_S, serial=2, now=ISSUED)
    identities = []
    for i, (agent_id, provider, version) in enumerate(agents):
        name = AnsName("a2a", agent_id, "vector-search", provider, version, "prod")
        keys = _keys(10 + i)
        secret, commitment = create_capability("vector-search", seed=bytes([40 + i]) * 32)
        agent = issue_certificate(inter_keys, inter, keys.public_key, ROLE_AGENT,
                                  AGENT_VALIDITY_S, subject_name=name,
                                  commitments=(commitment,), serial=100 + i, now=ISSUED)
        identities.append(client.AgentIdentity(
            name, keys, CertificateChain(agent, inter, root), {"vector-search": secret},
            f"http://{agent_id}.{provider}.example:8080"))
    return root, identities


@contextlib.contextmanager
def resolve_server(directory: pathlib.Path):
    """A started ``AnsServer`` on a fixed clock, holding the vector's records."""
    root, identities = _identities()
    anchors, policy = directory / "anchors.json", directory / "policy.json"
    anchors.write_text(canonical_json([root.to_doc()]))
    policy.write_text(canonical_json(policies_to_doc(harness_policies())))
    server = AnsServer(ServerConfig(listen="127.0.0.1:0", anchors_path=str(anchors),
                                    policy_path=str(policy), fsync=False),
                       clock=lambda: CLOCK)
    server.start()
    try:
        for identity in identities:
            client.register_with(identity, server.url, "vectors")
        yield server
    finally:
        server.shutdown()


def resolve_reply(server) -> bytes:
    """The body of the server's ``/v1/resolve`` reply to ``RESOLVE_QUERY``."""
    path = "/v1/resolve?" + urllib.parse.urlencode(RESOLVE_QUERY.to_params())
    with urllib.request.urlopen(server.url + path) as response:
        return response.read()


def build_resolve_reply() -> bytes:
    with tempfile.TemporaryDirectory() as directory, \
            resolve_server(pathlib.Path(directory)) as server:
        return resolve_reply(server)


def test_resolve_reply_vector(tmp_path):
    """The server rebuilds the frozen reply byte for byte, and the SDK's
    decoding of it re-encodes to the same bytes while sharing one
    intermediate and one root object among its records."""
    with resolve_server(tmp_path) as server:
        body = resolve_reply(server)
        records = client.discover(server.url, RESOLVE_QUERY)
    assert body == RESOLVE_REPLY.read_bytes()
    assert [r.name.render() for r in records] == RESOLVE_ORDER
    assert b"[" + b",".join(r.doc_bytes for r in records) + b"]" == body
    assert len({id(r.chain.intermediate) for r in records}) == 1
    assert len({id(r.chain.root) for r in records}) == 1


# -- signed payloads ---------------------------------------------------------------

PROOF_NONCE = bytes(range(32))


def build_payloads() -> dict:
    """Name -> the canonical text, signature and signer key of each payload
    the first ``RESOLVE_AGENTS`` identity signs at ``CLOCK``."""
    identity = _identities()[1][0]
    name = identity.name.render()
    secret = identity.capabilities["vector-search"]
    request = client.build_registration_request(identity, "vectors")
    challenge = Challenge(PROOF_NONCE, CLOCK, CLOCK + 60, name)
    proof = prove(challenge, secret, identity.identity_keys, identity.name, CLOCK)

    def signed(doc, keys, signature=None):
        payload = canonical_bytes(doc)
        return {"payload": payload.decode("ascii"), "public_key": keys.public_key.hex(),
                "signature": (signature or keys.sign(payload)).hex()}

    keys = identity.identity_keys
    return {
        "register": signed(request.signing_payload(), keys, request.signature),
        "renew": signed(renewal_payload(name, CLOCK), keys),
        "revoke": signed(revocation_payload(name, CLOCK), keys),
        "proof_binding": signed(proof.binding_doc(), secret.keypair,
                                proof.capability_signature),
        "proof_countersign": signed(proof.countersign_doc(), keys, proof.identity_signature),
    }


def test_signed_payload_vectors():
    """Each signed payload rebuilds to the frozen canonical text, signature
    and signer, and each signature verifies under its signer's key."""
    frozen = json.loads(PAYLOADS.read_text(encoding="ascii"))
    assert build_payloads() == frozen
    for name, vector in frozen.items():
        assert verify_signature(bytes.fromhex(vector["public_key"]),
                                bytes.fromhex(vector["signature"]),
                                vector["payload"].encode("ascii")), name


# -- the v1 log and snapshot ---------------------------------------------------------

# The v1 log's agents: the resolve reply's six, then two more.
V1_AGENTS = RESOLVE_AGENTS + (
    ("planner", "prov-c", Version(3, 1)),
    ("summarizer", "prov-c", Version(0, 9, 2)),
)
# The v1 log's events in order, as (step, index into V1_AGENTS); event n is
# written at CLOCK + 60 * n. "rotate" registers the agent again, by the same
# DID, under a new certificate for its key.
V1_STEPS = (
    ("register", 0), ("register", 1), ("register", 2), ("register", 3),
    ("register", 4), ("register", 5), ("renew", 0), ("revoke", 1),
    ("renew", 3), ("rotate", 3), ("renew", 4), ("renew", 0),
    ("register", 6), ("revoke", 4), ("register", 7), ("renew", 5),
    ("renew", 6), ("revoke", 5), ("renew", 0), ("revoke", 6),
)
V1_SNAPSHOT_SEQ = 12  # v1.snapshot is the state after this event
# (name, status, expires_at) of each record the v1 files recover to.
V1_STATE = [
    ("a2a://indexer.vector-search.prov-a.v1.2.prod", "active", 1_700_087_540),
    ("a2a://indexer.vector-search.prov-a.v1.10.0.prod", "revoked", 1_700_086_520),
    ("a2a://ranker.vector-search.prov-b.v1.9.prod", "active", 1_700_086_580),
    ("a2a://ranker.vector-search.prov-b.v2.0.1.prod", "active", 1_700_087_000),
    ("a2a://indexer.vector-search.prov-b.v1.2.0.prod", "revoked", 1_700_087_060),
    ("a2a://crawler.vector-search.prov-a.v1.10.prod", "revoked", 1_700_087_360),
    ("a2a://planner.vector-search.prov-c.v3.1.prod", "revoked", 1_700_087_420),
    ("a2a://summarizer.vector-search.prov-c.v0.9.2.prod", "active", 1_700_087_300),
]


def _rotated(identity):
    """``identity`` under a new agent certificate for the same key."""
    chain = identity.chain
    agent = issue_certificate(_keys(2), chain.intermediate, identity.identity_keys.public_key,
                              ROLE_AGENT, AGENT_VALIDITY_S, subject_name=identity.name,
                              commitments=chain.agent.capability_commitments, serial=200,
                              now=ISSUED + 1800)
    return dataclasses.replace(identity, chain=dataclasses.replace(chain, agent=agent))


def build_v1_files(directory: pathlib.Path) -> None:
    """Write ``v1.log`` and ``v1.snapshot`` into ``directory`` by running
    ``V1_STEPS`` against a ``Registry``."""
    root, identities = _identities(V1_AGENTS)
    registry = Registry(policies=harness_policies(), trust_anchors=[root],
                        log=EventLog(str(directory / V1_LOG.name), fsync=False))
    for seq, (step, i) in enumerate(V1_STEPS, start=1):
        now = CLOCK + 60 * seq
        if step == "rotate":
            identities[i] = _rotated(identities[i])
        identity = identities[i]
        key = identity.name.render()
        if step in ("register", "rotate"):
            registry.register(client.build_registration_request(identity, "vectors"), now)
        elif step == "renew":
            registry.renew(key, now, identity.identity_keys.sign(
                canonical_bytes(renewal_payload(key, now))), now)
        else:
            registry.revoke(key, now, identity.identity_keys.sign(
                canonical_bytes(revocation_payload(key, now))), now)
        if seq == V1_SNAPSHOT_SEQ:
            registry.write_snapshot(str(directory / V1_SNAPSHOT.name))
    registry.close()


def _logged_records(lines: list[bytes], after_seq: int) -> dict[str, bytes]:
    """Name -> record text of each record whose last event in ``lines`` is
    its ``Registered`` line, among those written after ``after_seq``."""
    last = {}
    for line in lines:
        event = json.loads(line)
        payload = event["payload"]
        name = payload["record"]["name"] if event["kind"] == "Registered" else payload["name"]
        last[name] = (event, line)
    start = b'"payload":{"record":'
    return {name: line[line.index(start) + len(start):line.rindex(b'},"seq":')]
            for name, (event, line) in last.items()
            if event["kind"] == "Registered" and event["seq"] > after_seq}


def test_v1_log_and_snapshot_recover(tmp_path):
    """The v1 log recovers alone, and behind the v1 snapshot, to the pinned
    state; each record whose last event is its ``Registered`` line serves
    that line's bytes without encoding, and a sweep past every TTL empties
    the registry."""
    for frozen in (V1_LOG, V1_SNAPSHOT):
        shutil.copyfile(frozen, tmp_path / frozen.name)
    lines = V1_LOG.read_bytes().splitlines()
    recovered = {}
    for snapshot, after_seq in ((None, 0), (tmp_path / V1_SNAPSHOT.name, V1_SNAPSHOT_SEQ)):
        registry = Registry.recover(policies=harness_policies(),
                                    log_path=str(tmp_path / V1_LOG.name),
                                    snapshot_path=snapshot and str(snapshot), fsync=False)
        registry.close()
        logged = _logged_records(lines, after_seq)
        preset = {r.name.render(): r.__dict__.get("doc_bytes") for r in registry.all_records()}
        assert {name: text for name, text in preset.items() if text is not None} == logged
        for record in registry.all_records():
            assert record.doc_bytes == canonical_bytes(record.to_doc())
        assert registry.audit_index()
        recovered[after_seq] = registry
    alone, behind = recovered[0], recovered[V1_SNAPSHOT_SEQ]
    assert alone.snapshot_doc() == behind.snapshot_doc()
    assert alone.last_seq == len(lines) == len(V1_STEPS)
    assert [(d["name"], d["status"], d["expires_at"])
            for d in alone.snapshot_doc()["records"]] == V1_STATE
    past_every_ttl = max(expires_at for _, _, expires_at in V1_STATE) + 1
    for registry in (alone, behind):
        assert registry.sweep_expired(past_every_ttl) == len(V1_STATE)
        assert registry.all_records() == [] and registry.audit_index()
