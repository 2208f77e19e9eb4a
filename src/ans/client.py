"""Agent-side SDK: identity bootstrap, registry calls, and peer-to-peer auth.

Registry interaction is a thin HTTP client that re-raises the server's error
codes as AnsError and keeps transport failures (dead socket, refused
connection) as a separate TransportError.

Peer authentication is an application-layer mutual handshake over any
ordered, reliable message transport:

    1. initiator -> {chain_I, nonce_I}
    2. responder -> {chain_R, nonce_R, sig_R over SHA-256(serial_I, nonce_I, nonce_R)}
    3. initiator -> {sig_I over SHA-256(serial_R, nonce_R, nonce_I)}

Each side validates the peer chain before trusting any signature; both end up
with a Session whose transcript hash binds both serials and both nonces.
After the handshake either side can demand a capability proof; the verifier
checks it against the commitment in the prover's certificate, never against
anything self-asserted.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import queue
import socket
import struct
import time
import urllib.parse
from dataclasses import dataclass, field, replace

from . import attestation, names
from .attestation import (
    AttestationResult,
    CapabilityProof,
    CapabilitySecret,
    Challenge,
    ChallengeStore,
    create_capability,
)
from .canonical import canonical_bytes, sha256
from .errors import (
    AnsError,
    BAD_SIGNATURE,
    ERROR_CODES,
    HANDSHAKE_TIMEOUT,
    MALFORMED,
    TransportError,
    UNKNOWN_CAPABILITY,
    decode_doc,
)
from .identity import (
    AGENT_VALIDITY_S,
    Certificate,
    CertificateChain,
    KeyPair,
    ROLE_AGENT,
    issue_certificate,
    validate_chain,
    verify_signature,
)
from .listener import Listener
from .names import AnsName, NameQuery
from .registry import (
    AgentRecord,
    RecordDecoder,
    RegistrationRequest,
    renewal_payload,
    revocation_payload,
)

HANDSHAKE_TIMEOUT_S = 5.0


# -- identity ----------------------------------------------------------------


@dataclass(frozen=True)
class AgentIdentity:
    """Everything one agent holds: name, identity keys, certified chain, and
    the capability secrets matching the commitments in its certificate."""

    name: AnsName
    identity_keys: KeyPair
    chain: CertificateChain
    capabilities: dict[str, CapabilitySecret]
    endpoint: str

    def commitments(self):
        return self.chain.agent.capability_commitments


def bootstrap_identity(
    name: AnsName,
    endpoint: str,
    capabilities: tuple[str, ...],
    intermediate_keys: KeyPair,
    intermediate_cert: Certificate,
    root_cert: Certificate,
    validity_seconds: int = AGENT_VALIDITY_S,
    now: int | None = None,
    seed: bytes | None = None,
) -> AgentIdentity:
    """Generate identity and capability keys, then obtain an agent certificate
    from the intermediate. The name's own capability is always committed."""
    if now is None:
        now = int(time.time())
    identity_keys = KeyPair.generate(seed)
    secrets_map: dict[str, CapabilitySecret] = {}
    commitments = []
    for capability in dict.fromkeys((name.capability, *capabilities)):
        secret, commitment = create_capability(capability)
        secrets_map[capability] = secret
        commitments.append(commitment)
    cert = issue_certificate(
        intermediate_keys,
        intermediate_cert,
        identity_keys.public_key,
        ROLE_AGENT,
        validity_seconds,
        subject_name=name,
        commitments=tuple(commitments),
        now=now,
    )
    chain = CertificateChain(agent=cert, intermediate=intermediate_cert, root=root_cert)
    return AgentIdentity(name, identity_keys, chain, secrets_map, endpoint)


# -- registry HTTP client ----------------------------------------------------


def _json_reply(raw: bytes):
    return json.loads(raw) if raw else None


class RegistryClient:
    """HTTP client with one persistent connection per instance.

    Not thread-safe; give each worker its own client.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"registry url must be http://host:port, got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        # Only a GET is sent again on a fresh connection. A POST or DELETE
        # may have been applied before the connection failed, so sending it
        # again could apply it twice.
        attempts = 2 if method == "GET" else 1
        for attempt in range(attempts):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self._host, self._port,
                                                        timeout=self._timeout)
                try:
                    self._conn.connect()
                    self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError as exc:
                    self.close()
                    raise TransportError(f"connect {self._host}:{self._port}: {exc}") from exc
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                break
            except (OSError, http.client.HTTPException) as exc:
                self.close()
                if attempt == attempts - 1:
                    raise TransportError(f"{method} {path}: {exc}") from exc
        text = response.headers.get("Content-Type", "").startswith("text/plain")
        try:
            doc = decode_doc("reply", bytes.decode if text else _json_reply, raw)
        except AnsError as exc:
            raise TransportError(f"{method} {path}: undecodable response") from exc
        if response.status >= 400:
            if isinstance(doc, dict) and "error" in doc:
                raise AnsError(doc["error"], doc.get("message", ""), doc.get("details"))
            raise TransportError(f"{method} {path}: HTTP {response.status}")
        return doc

    def get(self, path: str):
        return self._request("GET", path)

    def post(self, path: str, body):
        return self._request("POST", path, body)

    def delete(self, path: str, body):
        return self._request("DELETE", path, body)


def build_registration_request(identity: AgentIdentity, namespace: str) -> RegistrationRequest:
    request = RegistrationRequest(
        name_text=identity.name.render(),
        endpoint=identity.endpoint,
        namespace=namespace,
        chain=identity.chain,
        commitments=identity.commitments(),
    )
    signature = identity.identity_keys.sign(canonical_bytes(request.signing_payload()))
    return replace(request, signature=signature)


def _client(registry_url: str, client: RegistryClient | None):
    """The caller's client, or one opened for the call and closed after it."""
    if client is not None:
        return contextlib.nullcontext(client)
    return contextlib.closing(RegistryClient(registry_url))


def _control_body(identity: AgentIdentity, payload, now: int | None) -> tuple[str, dict]:
    """The quoted name and the body, signing ``payload(name, ts)``, of a renew or revoke."""
    ts = int(time.time()) if now is None else now
    name_text = identity.name.render()
    signature = identity.identity_keys.sign(canonical_bytes(payload(name_text, ts)))
    return urllib.parse.quote(name_text, safe=""), {"ts": ts, "signature": signature.hex()}


def register_with(identity: AgentIdentity, registry_url: str, namespace: str,
                  client: RegistryClient | None = None) -> AgentRecord:
    request = build_registration_request(identity, namespace)
    with _client(registry_url, client) as own:
        return decode_doc("register reply", AgentRecord.from_doc,
                          own.post("/v1/agents", request.to_doc()))


def renew_with(identity: AgentIdentity, registry_url: str,
               client: RegistryClient | None = None, now: int | None = None) -> AgentRecord:
    quoted, body = _control_body(identity, renewal_payload, now)
    with _client(registry_url, client) as own:
        return decode_doc("renew reply", AgentRecord.from_doc,
                          own.post(f"/v1/agents/{quoted}/renew", body))


def revoke_with(identity: AgentIdentity, registry_url: str,
                client: RegistryClient | None = None, now: int | None = None) -> None:
    quoted, body = _control_body(identity, revocation_payload, now)
    with _client(registry_url, client) as own:
        own.delete(f"/v1/agents/{quoted}", body)


def discover(registry_url: str, query: NameQuery,
             client: RegistryClient | None = None) -> list[AgentRecord]:
    """Thin wrapper over /v1/resolve preserving the server's ordering."""
    path = "/v1/resolve?" + urllib.parse.urlencode(query.to_params())
    with _client(registry_url, client) as own:
        return decode_doc("resolve reply", _records, own.get(path))


def _records(doc) -> list[AgentRecord]:
    if not isinstance(doc, list):
        raise TypeError("expected an array of records")
    decoder = RecordDecoder()  # records in one reply share issuers
    return [decoder.record(d) for d in doc]


def request_challenge(registry_url: str, name: AnsName,
                      client: RegistryClient | None = None) -> Challenge:
    with _client(registry_url, client) as own:
        return decode_doc("challenge reply", Challenge.from_doc,
                          own.post("/v1/challenge", {"name": name.render()}))


def attest_with(identity: AgentIdentity, registry_url: str, capability: str,
                client: RegistryClient | None = None, now: int | None = None) -> dict:
    """Full challenge/prove/attest round trip against the registry."""
    secret = identity.capabilities.get(capability)
    if secret is None:
        raise AnsError(UNKNOWN_CAPABILITY, f"identity holds no secret for {capability!r}")
    with _client(registry_url, client) as own:
        challenge = request_challenge(registry_url, identity.name, client=own)
        ts = int(time.time()) if now is None else now
        proof = attestation.prove(challenge, secret, identity.identity_keys, identity.name, ts)
        return own.post("/v1/attest", proof.to_doc())


# -- message transports -------------------------------------------------------


class LoopbackTransport:
    """In-process pair of message queues; the test and demo transport."""

    def __init__(self, inbox: "queue.Queue[bytes]", outbox: "queue.Queue[bytes]"):
        self._inbox = inbox
        self._outbox = outbox

    @classmethod
    def pair(cls) -> tuple["LoopbackTransport", "LoopbackTransport"]:
        a: "queue.Queue[bytes]" = queue.Queue()
        b: "queue.Queue[bytes]" = queue.Queue()
        return cls(a, b), cls(b, a)

    def send(self, data: bytes) -> None:
        self._outbox.put(data)

    def recv(self, timeout: float) -> bytes:
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("no message within timeout")

    def close(self) -> None:
        pass


class TcpTransport:
    """Length-prefixed messages (4-byte big-endian) over a stream socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = HANDSHAKE_TIMEOUT_S) -> "TcpTransport":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"connect {host}:{port}: {exc}") from exc
        return cls(sock)

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(struct.pack(">I", len(data)) + data)
        except OSError as exc:
            raise TransportError(f"send: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        while n > 0:
            chunk = self._sock.recv(n)
            if not chunk:
                raise TransportError("peer closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    def recv(self, timeout: float) -> bytes:
        self._sock.settimeout(timeout)
        try:
            header = self._recv_exact(4)
            (length,) = struct.unpack(">I", header)
            if length > 16 * 1024 * 1024:
                raise TransportError(f"oversized frame: {length} bytes")
            return self._recv_exact(length)
        except socket.timeout:
            raise TimeoutError("no message within timeout")
        except OSError as exc:
            raise TransportError(f"recv: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _send_doc(transport, doc: dict) -> None:
    transport.send(canonical_bytes(doc))


def _recv_doc(transport, timeout: float, *expected: str) -> dict:
    """The next message, of one of the ``expected`` types if any; an abort raises."""
    try:
        raw = transport.recv(timeout)
    except TimeoutError:
        raise AnsError(HANDSHAKE_TIMEOUT, "peer did not answer in time")
    doc = decode_doc("handshake message", json.loads, raw)
    if not isinstance(doc, dict) or "type" not in doc:
        raise AnsError(MALFORMED, "handshake message must carry a type")
    if doc["type"] == "abort":
        code = doc.get("error", BAD_SIGNATURE)
        if not (isinstance(code, str) and code in ERROR_CODES):
            code = MALFORMED
        raise AnsError(code, f"aborted by peer: {doc.get('message', '')}")
    if expected and doc["type"] not in expected:
        raise AnsError(MALFORMED, f"expected {' or '.join(expected)}, got {doc['type']!r}")
    return doc


@contextlib.contextmanager
def _aborting(transport):
    """Send the peer an abort for any AnsError raised inside, then raise it."""
    try:
        yield
    except AnsError as exc:
        try:
            _send_doc(transport, {"type": "abort", "error": exc.code, "message": exc.message})
        except Exception:
            pass
        raise


# -- mutual handshake ----------------------------------------------------------


@dataclass(frozen=True)
class Session:
    """Exists only after both handshake signatures verified."""

    peer_did: str
    peer_name: AnsName
    transcript_hash: bytes
    established_at: int
    peer_chain: CertificateChain = field(repr=False, compare=False, default=None)  # type: ignore[assignment]


def _session(peer_chain: CertificateChain, serial_i: int, serial_r: int,
             nonce_i: bytes, nonce_r: bytes, now: int) -> Session:
    """The session with a peer; its transcript binds both serials and nonces."""
    return Session(
        peer_did=peer_chain.agent.subject_did,
        peer_name=peer_chain.agent.subject_name,
        transcript_hash=sha256(canonical_bytes(
            [serial_i, serial_r, nonce_i.hex(), nonce_r.hex()])),
        established_at=now,
        peer_chain=peer_chain,
    )


def _handshake_digest(serial: int, first_nonce: bytes, second_nonce: bytes) -> bytes:
    return sha256(canonical_bytes([serial, first_nonce.hex(), second_nonce.hex()]))


def _hello_fields(doc: dict) -> tuple[CertificateChain, bytes]:
    return CertificateChain.from_doc(doc["chain"]), bytes.fromhex(doc["nonce"])


def _peer_hello(doc: dict, trust_anchors, now: int,
                expected_name: AnsName | None) -> tuple[CertificateChain, bytes]:
    """The validated chain and the 32-byte nonce of a hello or hello_ack."""
    chain, nonce = decode_doc("handshake payload", _hello_fields, doc)
    if len(nonce) != 32:
        raise AnsError(MALFORMED, "handshake nonce must be 32 bytes")
    validate_chain(chain, trust_anchors, now).raise_if_invalid()
    if chain.agent.subject_name is None:
        raise AnsError(BAD_SIGNATURE, "peer certificate carries no agent name")
    if expected_name is not None and chain.agent.subject_name != expected_name:
        raise AnsError(BAD_SIGNATURE, "peer presented a certificate for a different name")
    return chain, nonce


def _check_signature(doc: dict, chain: CertificateChain, digest: bytes, failure: str) -> None:
    """Verify a handshake message's signature over ``digest`` by the peer's key."""
    signature = decode_doc("handshake payload", bytes.fromhex, doc.get("signature"))
    if not verify_signature(chain.agent.public_key, signature, digest):
        raise AnsError(BAD_SIGNATURE, failure)


def initiate_handshake(
    identity: AgentIdentity,
    transport,
    trust_anchors,
    now: int | None = None,
    expected_name: AnsName | None = None,
    timeout: float = HANDSHAKE_TIMEOUT_S,
) -> Session:
    if now is None:
        now = int(time.time())
    serial_i = identity.chain.agent.serial
    nonce_i = os.urandom(32)
    _send_doc(transport, {
        "type": "hello",
        "chain": identity.chain.to_doc(),
        "nonce": nonce_i.hex(),
    })
    reply = _recv_doc(transport, timeout, "hello_ack")
    with _aborting(transport):
        peer_chain, nonce_r = _peer_hello(reply, trust_anchors, now, expected_name)
        _check_signature(reply, peer_chain, _handshake_digest(serial_i, nonce_i, nonce_r),
                         "responder signature does not verify")
    sig_i = identity.identity_keys.sign(
        _handshake_digest(peer_chain.agent.serial, nonce_r, nonce_i)
    )
    _send_doc(transport, {"type": "confirm", "signature": sig_i.hex()})
    return _session(peer_chain, serial_i, peer_chain.agent.serial, nonce_i, nonce_r, now)


def respond_handshake(
    identity: AgentIdentity,
    transport,
    trust_anchors,
    now: int | None = None,
    timeout: float = HANDSHAKE_TIMEOUT_S,
) -> Session:
    if now is None:
        now = int(time.time())
    serial_r = identity.chain.agent.serial
    hello = _recv_doc(transport, timeout, "hello")
    with _aborting(transport):
        peer_chain, nonce_i = _peer_hello(hello, trust_anchors, now, None)
    nonce_r = os.urandom(32)
    sig_r = identity.identity_keys.sign(
        _handshake_digest(peer_chain.agent.serial, nonce_i, nonce_r)
    )
    _send_doc(transport, {
        "type": "hello_ack",
        "chain": identity.chain.to_doc(),
        "nonce": nonce_r.hex(),
        "signature": sig_r.hex(),
    })
    confirm = _recv_doc(transport, timeout, "confirm")
    with _aborting(transport):
        _check_signature(confirm, peer_chain, _handshake_digest(serial_r, nonce_r, nonce_i),
                         "initiator signature does not verify at message 3")
    return _session(peer_chain, peer_chain.agent.serial, serial_r, nonce_i, nonce_r, now)


# -- capability exchange over an established session ---------------------------


def request_capability(
    session: Session,
    transport,
    capability: str,
    prover: AgentIdentity,
    now: int | None = None,
    timeout: float = HANDSHAKE_TIMEOUT_S,
) -> AttestationResult:
    """Prover side: ask the peer to verify one of our committed capabilities."""
    if now is None:
        now = int(time.time())
    _send_doc(transport, {"type": "capability_request", "capability": capability})
    reply = _recv_doc(transport, timeout, "challenge", "capability_denied")
    if reply["type"] == "capability_denied":
        return AttestationResult.deny(reply.get("reason", BAD_SIGNATURE),
                                      reply.get("message", ""))
    challenge = decode_doc("challenge", Challenge.from_doc, reply.get("challenge"))
    secret = prover.capabilities.get(capability)
    if secret is None:
        return AttestationResult.deny(UNKNOWN_CAPABILITY,
                                      f"no local secret for {capability!r}")
    proof = attestation.prove(challenge, secret, prover.identity_keys, prover.name, now)
    _send_doc(transport, {"type": "capability_proof", "proof": proof.to_doc()})
    verdict = _recv_doc(transport, timeout, "capability_granted", "capability_denied")
    if verdict["type"] == "capability_denied":
        return AttestationResult.deny(verdict.get("reason", BAD_SIGNATURE),
                                      verdict.get("message", ""))
    return AttestationResult(True)


def serve_capability_request(
    session: Session,
    transport,
    trust_anchors,
    store: ChallengeStore,
    now: int | None = None,
    timeout: float = HANDSHAKE_TIMEOUT_S,
) -> AttestationResult | None:
    """Verifier side: handle one capability request from the session peer.

    Returns the verdict, or None when the peer hung up.
    """
    if now is None:
        now = int(time.time())
    try:
        request = _recv_doc(transport, timeout)
    except (TransportError, AnsError):
        return None
    if request.get("type") != "capability_request":
        return None
    capability = request.get("capability")
    commitment = next(
        (c for c in session.peer_chain.agent.capability_commitments
         if c.capability == capability),
        None,
    )
    if commitment is None:
        result = AttestationResult.deny(
            UNKNOWN_CAPABILITY,
            f"peer certificate carries no commitment for {capability!r}",
        )
    else:
        challenge = store.issue(session.peer_name, now)
        _send_doc(transport, {"type": "challenge", "challenge": challenge.to_doc()})
        answer = _recv_doc(transport, timeout, "capability_proof")
        proof = decode_doc("capability proof", CapabilityProof.from_doc, answer.get("proof"))
        result = attestation.verify(proof, commitment, session.peer_chain, trust_anchors,
                                    store, now)
    if result.granted:
        _send_doc(transport, {"type": "capability_granted"})
    else:
        _send_doc(transport, {"type": "capability_denied", "reason": result.reason,
                              "message": result.message})
    return result


class PeerServer:
    """TCP listener an agent runs so peers can handshake and verify
    capabilities against it, on a ``listener.Listener``: one thread per
    connection; demo-scale. A session open at ``stop()`` runs until its peer
    hangs up."""

    def __init__(self, identity: AgentIdentity, trust_anchors,
                 host: str = "127.0.0.1", port: int = 0):
        self.identity = identity
        self.trust_anchors = tuple(trust_anchors)
        self.challenges = ChallengeStore()
        self._listener = Listener((host, port), self._serve_conn)

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    def start(self) -> "PeerServer":
        self._listener.start()
        return self

    def stop(self) -> None:
        self._listener.close()

    def _serve_conn(self, conn: socket.socket) -> None:
        transport = TcpTransport(conn)
        try:
            session = respond_handshake(self.identity, transport, self.trust_anchors)
            while serve_capability_request(session, transport, self.trust_anchors,
                                           self.challenges) is not None:
                pass
        except (AnsError, TransportError):
            return
