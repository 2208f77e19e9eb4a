import itertools
import json
import socket
import threading
import time

import pytest

from ans import attestation, client, names
from ans.attestation import ChallengeStore
from ans.canonical import canonical_bytes
from ans.client import (
    AgentIdentity,
    LoopbackTransport,
    PeerServer,
    TcpTransport,
    initiate_handshake,
    request_capability,
    respond_handshake,
    serve_capability_request,
)
from ans.errors import AnsError, TransportError
from ans.identity import KeyPair
from ans.names import NameQuery
from conftest import NOW, make_identity, make_name

REAL_NOW = int(time.time())


@pytest.fixture()
def pair(ca):
    a = make_identity(ca, make_name(20, capability="cap-hs"), now=REAL_NOW - 5)
    b = make_identity(ca, make_name(21, capability="cap-hs2"), now=REAL_NOW - 5)
    return a, b


def _run_handshake(initiator, responder, anchors, now=None, expected_name=None):
    t_init, t_resp = LoopbackTransport.pair()
    outcome: dict = {}

    def run_responder():
        try:
            outcome["session"] = respond_handshake(responder, t_resp, anchors, now=now)
        except AnsError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run_responder)
    thread.start()
    try:
        session = initiate_handshake(initiator, t_init, anchors, now=now,
                                     expected_name=expected_name)
    finally:
        thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return session, outcome["session"]


# -- registry interaction -------------------------------------------------------


def test_register_with_returns_active_record(server, ca):
    identity = make_identity(ca, make_name(22))
    record = client.register_with(identity, server.url, "ns-0")
    assert record.status == "active" and record.name == identity.name


def test_register_duplicate_name_propagates_code(server, ca):
    client.register_with(make_identity(ca, make_name(23)), server.url, "ns-0")
    with pytest.raises(AnsError) as err:
        client.register_with(make_identity(ca, make_name(23)), server.url, "ns-0")
    assert err.value.code == "DUPLICATE_AGENT"


def test_registry_down_is_transport_error(ca):
    identity = make_identity(ca, make_name(24))
    with pytest.raises(TransportError):
        client.register_with(identity, "http://127.0.0.1:9", "ns-0")


class _DroppingStub:
    """Accepts connections, reads each request's head and body, and drops
    the connection without replying."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.requests = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self):
        return "http://127.0.0.1:%d" % self.sock.getsockname()[1]

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as fh:
                head = [fh.readline()]
                while head[-1] not in (b"\r\n", b""):
                    head.append(fh.readline())
                length = next((int(line.split(b":")[1]) for line in head
                               if line.lower().startswith(b"content-length:")), 0)
                fh.read(length)
                self.requests.append(head[0])

    def close(self):
        self.sock.close()


@pytest.mark.parametrize("method,sent", [("POST", 1), ("DELETE", 1), ("GET", 2)])
def test_only_get_is_sent_again_after_a_dropped_connection(method, sent):
    """A write the server may have applied is never replayed: a POST or
    DELETE whose connection drops raises TransportError after one send."""
    stub = _DroppingStub()
    rc = client.RegistryClient(stub.url, timeout=5)
    try:
        with pytest.raises(TransportError):
            rc._request(method, "/v1/agents", None if method == "GET" else {"ts": 1})
    finally:
        rc.close()
        stub.close()
    assert len(stub.requests) == sent
    assert all(r.startswith(method.encode() + b" ") for r in stub.requests)


def test_discover_includes_self(server, ca):
    identity = make_identity(ca, make_name(25, capability="cap-disc"))
    client.register_with(identity, server.url, "ns-0")
    found = client.discover(server.url, NameQuery(capability="cap-disc"))
    assert any(r.name == identity.name for r in found)


def test_discover_decodes_shared_issuers_once(server, ca):
    for i in (27, 28, 29):
        client.register_with(make_identity(ca, make_name(i, capability="cap-share")),
                             server.url, "ns-0")
    found = client.discover(server.url, NameQuery(capability="cap-share"))
    assert len(found) == 3
    for record in found:
        assert record.chain.intermediate is found[0].chain.intermediate
        assert record.chain.root is found[0].chain.root


def test_discover_empty_is_not_an_error(server):
    assert client.discover(server.url, NameQuery(capability="cap-none")) == []


def test_discover_bad_version_constraint(server):
    rc = client.RegistryClient(server.url)
    try:
        with pytest.raises(AnsError) as err:
            rc.get("/v1/resolve?version=not-a-version")
        assert err.value.code == "INVALID_NAME"
    finally:
        rc.close()


def test_attest_with_round_trip(server, ca):
    identity = make_identity(ca, make_name(26, capability="cap-full"))
    client.register_with(identity, server.url, "ns-0")
    result = client.attest_with(identity, server.url, "cap-full")
    assert result["granted"] is True


def test_revoke_with_hides_the_agent_and_is_idempotent(server, ca):
    identity = make_identity(ca, make_name(27, capability="cap-revoke"))
    client.register_with(identity, server.url, "ns-0")
    client.revoke_with(identity, server.url)
    assert client.discover(server.url, NameQuery(capability="cap-revoke")) == []
    with pytest.raises(AnsError) as err:
        client.attest_with(identity, server.url, "cap-revoke")
    assert err.value.code == "UNKNOWN_AGENT"
    client.revoke_with(identity, server.url)


# -- handshake --------------------------------------------------------------------


def test_honest_handshake_matching_transcripts(pair, ca):
    a, b = pair
    session_a, session_b = _run_handshake(a, b, ca.anchors)
    assert session_a.transcript_hash == session_b.transcript_hash
    assert session_a.peer_name == b.name and session_b.peer_name == a.name
    assert session_a.peer_did == b.chain.agent.subject_did


def test_impersonator_fails_at_message_3(pair, ca):
    a, b = pair
    imposter = AgentIdentity(name=a.name, identity_keys=KeyPair.generate(),
                             chain=a.chain, capabilities={}, endpoint=a.endpoint)
    with pytest.raises(AnsError) as err:
        _run_handshake(imposter, b, ca.anchors)
    assert err.value.code == "BAD_SIGNATURE"
    assert "message 3" in err.value.message


def test_expired_peer_rejected_before_signatures(pair, ca):
    from ans.harness import build_ca

    past = REAL_NOW - 200 * 86400
    old_ca = build_ca(past)
    stale = client.bootstrap_identity(make_name(27), "e", (), old_ca.intermediate_keys,
                                      old_ca.intermediate_cert, old_ca.root_cert, now=past)
    _, b = pair
    anchors = (old_ca.root_cert, ca.root_cert)
    with pytest.raises(AnsError) as err:
        _run_handshake(stale, b, anchors, now=REAL_NOW)
    assert err.value.code == "CERT_EXPIRED"


def test_peer_name_expectation_enforced(pair, ca):
    a, b = pair
    with pytest.raises(AnsError) as err:
        _run_handshake(a, b, ca.anchors, expected_name=make_name(63))
    assert err.value.code == "BAD_SIGNATURE"


def test_handshake_timeout(pair, ca):
    a, _ = pair
    lonely, _unused = LoopbackTransport.pair()
    with pytest.raises(AnsError) as err:
        initiate_handshake(a, lonely, ca.anchors, timeout=0.1)
    assert err.value.code == "HANDSHAKE_TIMEOUT"


def test_mismatched_key_cert_fuzz(pair, ca):
    a, b = pair
    for _ in range(10):
        imposter = AgentIdentity(name=a.name, identity_keys=KeyPair.generate(),
                                 chain=a.chain, capabilities={}, endpoint=a.endpoint)
        with pytest.raises(AnsError):
            _run_handshake(imposter, b, ca.anchors)


def _messages(transport) -> list[dict]:
    """Every message waiting on a loopback transport, decoded."""
    out = []
    while True:
        try:
            out.append(json.loads(transport.recv(0.05)))
        except TimeoutError:
            return out


def _hello(identity, **fields) -> bytes:
    doc = {"type": "hello", "chain": identity.chain.to_doc(), "nonce": "11" * 32, **fields}
    return canonical_bytes(doc)


def test_hello_ack_without_signature_is_malformed_and_aborted(pair, ca):
    a, b = pair
    t_init, t_peer = LoopbackTransport.pair()
    t_peer.send(_hello(b, type="hello_ack"))
    with pytest.raises(AnsError) as err:
        initiate_handshake(a, t_init, ca.anchors)
    assert err.value.code == "MALFORMED"
    hello, abort = _messages(t_peer)
    assert hello["type"] == "hello"
    assert (abort["type"], abort["error"]) == ("abort", "MALFORMED")


def test_confirm_without_signature_is_malformed_and_aborted(pair, ca):
    a, b = pair
    t_resp, t_peer = LoopbackTransport.pair()
    t_peer.send(_hello(a))
    t_peer.send(canonical_bytes({"type": "confirm"}))
    with pytest.raises(AnsError) as err:
        respond_handshake(b, t_resp, ca.anchors)
    assert err.value.code == "MALFORMED"
    hello_ack, abort = _messages(t_peer)
    assert hello_ack["type"] == "hello_ack"
    assert (abort["type"], abort["error"]) == ("abort", "MALFORMED")


def test_hello_with_a_chain_of_numbers_is_malformed_and_aborted(pair, ca):
    a, b = pair
    t_resp, t_peer = LoopbackTransport.pair()
    t_peer.send(_hello(a, chain=[1, 2, 3]))
    with pytest.raises(AnsError) as err:
        respond_handshake(b, t_resp, ca.anchors)
    assert err.value.code == "MALFORMED"
    assert [(m["type"], m["error"]) for m in _messages(t_peer)] == [("abort", "MALFORMED")]


def test_peer_server_aborts_a_malformed_hello(pair, ca):
    a, b = pair
    peer = PeerServer(b, ca.anchors).start()
    try:
        transport = TcpTransport.connect(*peer.address)
        transport.send(_hello(a, chain=[1, 2, 3]))
        abort = json.loads(transport.recv(5.0))
        transport.close()
    finally:
        peer.stop()
    assert (abort["type"], abort["error"]) == ("abort", "MALFORMED")


@pytest.mark.parametrize("error", ["NOT_A_CODE", ["MALFORMED"], None])
def test_abort_with_an_unknown_code_is_malformed(pair, ca, error):
    a, _ = pair
    t_init, t_peer = LoopbackTransport.pair()
    t_peer.send(canonical_bytes({"type": "abort", "error": error, "message": "x"}))
    with pytest.raises(AnsError) as err:
        initiate_handshake(a, t_init, ca.anchors)
    assert err.value.code == "MALFORMED"


# -- capability exchange -------------------------------------------------------------


def _capability_exchange(prover, verifier, anchors, capability, store=None):
    t_init, t_resp = LoopbackTransport.pair()
    store = store or ChallengeStore()
    outcome: dict = {}

    def run_verifier():
        session = respond_handshake(verifier, t_resp, anchors)
        outcome["verdict"] = serve_capability_request(session, t_resp, anchors, store)

    thread = threading.Thread(target=run_verifier)
    thread.start()
    session = initiate_handshake(prover, t_init, anchors)
    result = request_capability(session, t_init, capability, prover)
    thread.join()
    return result, outcome.get("verdict")


def test_committed_capability_granted(pair, ca):
    a, b = pair
    result, verdict = _capability_exchange(a, b, ca.anchors, "cap-hs")
    assert result.granted and verdict.granted


def test_uncommitted_capability_blocked(pair, ca):
    a, b = pair
    result, verdict = _capability_exchange(a, b, ca.anchors, "admin-root")
    assert not result.granted
    assert result.reason == "UNKNOWN_CAPABILITY"
    assert verdict.reason == "UNKNOWN_CAPABILITY"


def test_capability_minimality_power_set(ca):
    universe = ("cap-hs", "telemetry-export", "extra-1")
    verifier = make_identity(ca, make_name(30), now=REAL_NOW - 5)
    for committed in itertools.chain.from_iterable(
            itertools.combinations(universe, r) for r in range(len(universe) + 1)):
        prover = client.bootstrap_identity(
            make_name(31, capability="cap-base"), "e", committed,
            ca.intermediate_keys, ca.intermediate_cert, ca.root_cert, now=REAL_NOW - 5)
        for asked in universe:
            result, _ = _capability_exchange(prover, verifier, ca.anchors, asked)
            assert result.granted == (asked in committed)


def test_proof_replay_in_new_session_rejected(pair, ca):
    a, b = pair
    store = ChallengeStore()

    # first session: capture the proof by running the flow manually
    t_init, t_resp = LoopbackTransport.pair()
    captured: dict = {}

    def verifier_once():
        import json

        from ans.canonical import canonical_bytes

        session = respond_handshake(b, t_resp, ca.anchors)
        t_resp.recv(5.0)  # capability_request
        challenge = store.issue(session.peer_name, int(time.time()))
        t_resp.send(canonical_bytes({"type": "challenge", "challenge": challenge.to_doc()}))
        proof_msg = json.loads(t_resp.recv(5.0))
        captured["proof"] = proof_msg["proof"]
        # verify for real so the nonce is actually consumed
        proof = attestation.CapabilityProof.from_doc(proof_msg["proof"])
        commitment = next(c for c in session.peer_chain.agent.capability_commitments
                          if c.capability == proof.capability)
        verdict = attestation.verify(proof, commitment, session.peer_chain,
                                     ca.anchors, store, int(time.time()))
        assert verdict.granted
        t_resp.send(canonical_bytes({"type": "capability_granted"}))

    thread = threading.Thread(target=verifier_once)
    thread.start()
    session = initiate_handshake(a, t_init, ca.anchors)
    result = request_capability(session, t_init, "cap-hs", a)
    thread.join()
    assert result.granted

    # replay the captured proof against the same verifier store
    proof = attestation.CapabilityProof.from_doc(captured["proof"])
    commitment = next(c for c in a.commitments() if c.capability == "cap-hs")
    replay = attestation.verify(proof, commitment, a.chain, ca.anchors, store,
                                int(time.time()))
    assert not replay.granted and replay.reason == "NONCE_REPLAY"


# -- transports -----------------------------------------------------------------------


def test_tcp_transport_framing():
    import socket

    server_sock = socket.socket()
    server_sock.bind(("127.0.0.1", 0))
    server_sock.listen(1)
    host, port = server_sock.getsockname()
    received = {}

    def echo_once():
        conn, _ = server_sock.accept()
        transport = TcpTransport(conn)
        received["msg"] = transport.recv(5.0)
        transport.send(received["msg"] * 2)
        transport.close()

    thread = threading.Thread(target=echo_once)
    thread.start()
    transport = TcpTransport.connect(host, port)
    transport.send(b"\x00\x01framed")
    assert transport.recv(5.0) == b"\x00\x01framed" * 2
    thread.join()
    transport.close()
    server_sock.close()


def test_peer_server_end_to_end(pair, ca):
    a, b = pair
    peer = PeerServer(b, ca.anchors).start()
    try:
        host, port = peer.address
        transport = TcpTransport.connect(host, port)
        session = initiate_handshake(a, transport, ca.anchors, expected_name=b.name)
        result = request_capability(session, transport, "cap-hs", a)
        assert result.granted
        # a second request on the same connection also works
        again = request_capability(session, transport, "telemetry-export", a)
        assert again.granted
        transport.close()
    finally:
        peer.stop()
