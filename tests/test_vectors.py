"""Frozen vectors: bytes this version serves, rebuilt from fixed seeds,
serials and clocks and compared with the files in ``tests/vectors``.

``tests/vectors/make_vectors.py`` rewrites those files from the builders
here; no test runs it. A change that alters a vector's bytes changes the wire
format, and must say so.
"""

from __future__ import annotations

import contextlib
import pathlib
import tempfile
import urllib.parse
import urllib.request

from ans import client
from ans.attestation import create_capability
from ans.canonical import canonical_json
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
)
from ans.names import AnsName, NameQuery, Version
from ans.policy import policies_to_doc
from ans.server import AnsServer, ServerConfig

VECTORS = pathlib.Path(__file__).parent / "vectors"
RESOLVE_REPLY = VECTORS / "resolve_reply.json"

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


def _identities():
    """The CA's root certificate and one identity per ``RESOLVE_AGENTS``
    entry, every key, serial and window fixed."""
    root_keys, inter_keys = _keys(1), _keys(2)
    root = issue_certificate(root_keys, None, root_keys.public_key, ROLE_ROOT,
                             ROOT_VALIDITY_S, serial=1, now=ISSUED)
    inter = issue_certificate(root_keys, root, inter_keys.public_key, ROLE_INTERMEDIATE,
                              INTERMEDIATE_VALIDITY_S, serial=2, now=ISSUED)
    identities = []
    for i, (agent_id, provider, version) in enumerate(RESOLVE_AGENTS):
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
