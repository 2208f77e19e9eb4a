"""HTTP/JSON wire protocol for the registry.

Endpoints:

    POST   /v1/agents                  register
    POST   /v1/agents/{name}/renew     renew (name URL-encoded)
    DELETE /v1/agents/{name}           revoke
    GET    /v1/resolve                 discovery queries
    POST   /v1/challenge               issue an attestation challenge
    POST   /v1/attest                  verify a capability proof
    POST   /v1/admission/validate      manifest admission decision
    GET    /v1/metrics                 text exposition
    GET    /v1/healthz                 liveness

Transport is plain HTTP/1.1: authenticity lives in the signed payloads and
certificate chains, not the socket. Errors are ``{"error": code, "message",
"details"?}`` with a fixed code-to-status mapping; a method and path outside
the table above is 404 ``UNKNOWN_ROUTE``, except that HEAD answers each GET
route as GET does, without the body. Bodies are framed by
``Content-Length`` only, so a request with ``Transfer-Encoding`` is refused.

Connections are accepted by a ``listener.Listener``, which serves each on
its own daemon thread; the request loop is this module's own: requests read
in turn until one closes the connection, no idle timeout. It keeps
``http.server``'s limits, replies and framing, but not its imports:
``http.server`` loads ``http.client``, and with it ``ssl`` and ``email``,
which the registry never uses. HTTP/0.9 is refused: a request line without a
version gets a 400 with a status line. Each reply is sent from one place, and
still goes out as two writes, the head and then the body; that framing is
kept on purpose until ROADMAP item 1 changes it.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import time
import urllib.parse
from dataclasses import dataclass
from http import HTTPStatus

from . import attestation, errors as codes, names
from .attestation import CapabilityProof, ChallengeStore
from .canonical import canonical_bytes
from .errors import (
    BOOL, LIST, MAP, POSITIVE_INT, STATUS_BY_CODE, STRING, AnsError, decode_doc, read_doc,
    read_fields,
)
from .identity import Certificate, CertificateChain
from .listener import Listener
from .manifest import validate_admission
from .metrics import Metrics, render_text
from .policy import load_policy_file
from .registry import AgentRecord, RegistrationRequest, Registry

# Largest request body read; a registration or a manifest is a few KiB.
MAX_BODY_BYTES = 1 << 20
# A byte count in ASCII digits. Leading zeros are allowed, but no more
# digits after them than MAX_BODY_BYTES has, so a count too long for ``int``
# to convert is refused before it is converted.
_CONTENT_LENGTH = re.compile(r"0*([0-9]{1,%d})" % len(str(MAX_BODY_BYTES)))
# The stdlib's request limits: bytes per request line and per header line,
# header lines per request.
MAX_REQUEST_LINE = 65536
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

PROTOCOL_VERSION = "HTTP/1.1"
SERVER_HEADER = "ans Python/" + sys.version.split()[0]
_REASONS = {status.value: status.phrase for status in HTTPStatus}


@dataclass(frozen=True)
class ServerConfig:
    listen: str = "127.0.0.1:8400"
    anchors_path: str | None = None
    policy_path: str | None = None
    log_path: str | None = None
    snapshot_path: str | None = None
    fsync: bool = True
    record_ttl_seconds: int = 24 * 3600
    challenge_ttl_seconds: int = attestation.CHALLENGE_TTL_S

    # The keys a config file may set, and the check on each value.
    _FILE_CHECKS = {"listen": STRING, "anchors_path": STRING, "policy_path": STRING,
                    "log_path": STRING, "snapshot_path": STRING, "fsync": BOOL,
                    "record_ttl_seconds": POSITIVE_INT, "challenge_ttl_seconds": POSITIVE_INT}

    _ENV_KEYS = {
        "listen": "ANS_LISTEN",
        "anchors_path": "ANS_ANCHORS_PATH",
        "policy_path": "ANS_POLICY_PATH",
        "log_path": "ANS_LOG_PATH",
        "snapshot_path": "ANS_SNAPSHOT_PATH",
    }

    @classmethod
    def load(cls, config_path: str | None = None, env: dict | None = None) -> "ServerConfig":
        """File values, overridden by environment variables. An unknown file
        key or a wrongly typed value (a TTL is a positive int) is ``MALFORMED``."""
        env = os.environ if env is None else env
        values: dict = {}
        if config_path is not None:
            doc = read_doc(config_path, "config", json.loads)
            values = read_fields(doc, f"config {config_path}",
                                 {key: (check, getattr(cls, key))
                                  for key, check in cls._FILE_CHECKS.items()})
        for attr, env_key in cls._ENV_KEYS.items():
            if env.get(env_key):
                values[attr] = env[env_key]
        return cls(**values)

    def host_port(self) -> tuple[str, int]:
        """``listen`` as ``host:port``, whichever source set it; an empty host
        is 127.0.0.1, and anything else is ``MALFORMED``."""
        host, colon, port = self.listen.rpartition(":")
        if not (colon and port.isascii() and port.isdigit() and len(port) <= 5
                and int(port) <= 65535):
            raise AnsError(codes.MALFORMED, f"'listen' must be host:port with a port "
                                            f"from 0 to 65535, not {self.listen!r}")
        return host or "127.0.0.1", int(port)


def load_anchors(path: str) -> tuple[Certificate, ...]:
    """The certificates of a JSON array file; a fault in it is ``MALFORMED``."""
    return read_doc(path, "trust anchor file", _anchors_from_json)


def _anchors_from_json(raw: bytes) -> tuple[Certificate, ...]:
    doc = json.loads(raw)
    if not isinstance(doc, list):
        raise TypeError("expected an array of certificates")
    return tuple(Certificate.from_doc(c) for c in doc)


class AnsServer:
    """Registry, challenge store, metrics, and the HTTP front end.

    State is recovered from persistence before the socket accepts traffic;
    shutdown flushes a snapshot.
    """

    def __init__(self, config: ServerConfig, clock=time.time):
        self.config = config
        self.clock = clock
        host, port = config.host_port()
        anchors = load_anchors(config.anchors_path) if config.anchors_path else ()
        policies = tuple(load_policy_file(config.policy_path)) if config.policy_path else ()
        self.metrics = Metrics()
        self.registry = Registry.recover(
            policies=policies,
            trust_anchors=anchors,
            record_ttl_seconds=config.record_ttl_seconds,
            log_path=config.log_path,
            snapshot_path=config.snapshot_path,
            fsync=config.fsync,
            observe=self.metrics.observe,
        )
        self.challenges = ChallengeStore(ttl_seconds=config.challenge_ttl_seconds)
        self._listener = Listener((host, port), lambda conn: _Handler(self, conn).handle())

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def now(self) -> int:
        return int(self.clock())

    def start(self) -> None:
        self._listener.start()

    def serve_forever(self) -> None:
        self._listener.serve_forever()

    def shutdown(self) -> None:
        self._listener.close()
        if self.config.snapshot_path:
            self.registry.write_snapshot(self.config.snapshot_path)
        self.registry.close()

    # -- operation bodies, shared by the HTTP handler ------------------------
    # Each returns the reply's status and its body's bytes.

    def op_register(self, body: dict) -> tuple[int, bytes]:
        """The reply body is the stored record's canonical bytes, the same
        bytes its log line embeds and later resolves reuse."""
        with self.metrics.timed("registration"):
            now = self.now()
            request = decode_doc("registration body", RegistrationRequest.from_doc, body)
            try:
                record = self.registry.register(request, now)
            except AnsError as exc:
                if exc.code == codes.POLICY_DENIED:
                    self.metrics.inc("policy_violations_total")
                raise
        self.metrics.inc("registrations_total")
        return 201, record.doc_bytes

    def op_renew(self, name_text: str, body: dict) -> tuple[int, bytes]:
        ts, signature = decode_doc("control body", _control_fields, body)
        record = self.registry.renew(name_text, ts, signature, self.now())
        return 200, record.doc_bytes

    def op_revoke(self, name_text: str, body: dict) -> tuple[int, bytes]:
        ts, signature = decode_doc("control body", _control_fields, body)
        self.registry.revoke(name_text, ts, signature, self.now())
        return 200, canonical_bytes({"revoked": name_text})

    def op_resolve(self, params: dict[str, str]) -> tuple[int, bytes]:
        """The reply body is the canonical JSON array of the hits, joined from
        each record's cached bytes."""
        self.metrics.inc("discovery_queries_total")
        with self.metrics.timed("discovery"):
            query = names.NameQuery.from_params(params)
            records = self.registry.resolve(query, self.now())
        return 200, b"[" + b",".join(r.doc_bytes for r in records) + b"]"

    def op_challenge(self, body: dict) -> tuple[int, bytes]:
        name_text = body.get("name")
        if not isinstance(name_text, str):
            raise AnsError(codes.MALFORMED, "challenge body must carry the agent name")
        record = self._record_or_404(name_text)
        challenge = self.challenges.issue(record.name, self.now())
        return 200, canonical_bytes(challenge.to_doc())

    def op_attest(self, body: dict) -> tuple[int, bytes]:
        self.metrics.inc("attestations_total")
        with self.metrics.timed("attestation"):
            proof = decode_doc("proof body", CapabilityProof.from_doc, body)
            record = self._record_or_404(proof.agent_name)
            commitment = next(
                (c for c in record.commitments if c.capability == proof.capability), None
            )
            if commitment is None:
                self.metrics.inc("auth_failures_total")
                raise AnsError(
                    codes.CAPABILITY_MISMATCH,
                    f"{proof.agent_name} has no commitment for {proof.capability!r}",
                )
            result = attestation.verify(
                proof, commitment, record.chain, self.registry.trust_anchors,
                self.challenges, self.now(), self.registry.verified,
            )
            if not result.granted:
                self.metrics.inc("auth_failures_total")
                assert result.reason is not None
                raise AnsError(result.reason, result.message)
        return 200, canonical_bytes({"granted": True, "agent": proof.agent_name,
                                     "capability": proof.capability})

    def op_admission(self, body: dict) -> tuple[int, bytes]:
        manifest_doc, chain = body, None
        if "manifest" in body:
            envelope = read_fields(body, "admission body", {"manifest": MAP, "chain": (LIST, None)})
            manifest_doc = envelope["manifest"]
            if envelope["chain"] is not None:
                chain = decode_doc("admission chain", CertificateChain.from_doc, envelope["chain"])
        result = validate_admission(
            manifest_doc, self.registry.policies, self.registry.trust_anchors,
            self.now(), chain=chain,
        )
        if not result.allowed:
            self.metrics.inc("policy_violations_total")
        return 200, canonical_bytes(result.to_doc())

    def op_metrics(self) -> tuple[int, bytes]:
        now = self.now()
        return 200, render_text(self.metrics.snapshot(records=self.registry.active_records(now),
                                                      now=now)).encode("utf-8")

    def _record_or_404(self, name_text: str) -> AgentRecord:
        record = self.registry.get_active(name_text, self.now())
        if record is None:
            raise AnsError(codes.UNKNOWN_AGENT, f"no active record for {name_text}")
        return record


def _control_fields(body: dict) -> tuple[int, bytes]:
    return int(body["ts"]), bytes.fromhex(body["signature"])


# The resolve parameter mapping under its older name.
query_from_params = names.NameQuery.from_params


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/major.minor`` as two integers, or None if malformed (the
    stdlib's rules: one dot, digits only, at most ten of them each)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() and len(p) <= 10 for p in parts):
        return None
    return int(parts[0]), int(parts[1])


_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date(timestamp: float | None = None) -> str:
    """An IMF-fixdate (RFC 9110 §5.6.7), such as ``Sun, 06 Nov 1994 08:49:37
    GMT``, with English names whatever the locale."""
    t = time.gmtime(timestamp)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year:04d} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


# The route table each request method is dispatched to. HEAD answers a GET
# route without the body (RFC 9110 §9.3.2): ``_send`` leaves it out.
_DISPATCH_AS = {"GET": "GET", "HEAD": "GET", "POST": "POST", "DELETE": "DELETE"}
# The POST routes whose path is fixed, each with its operation.
_POST_ROUTES = {"/v1/agents": AnsServer.op_register, "/v1/challenge": AnsServer.op_challenge,
                "/v1/attest": AnsServer.op_attest,
                "/v1/admission/validate": AnsServer.op_admission}
_AGENTS = "/v1/agents/"
_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"


class _Handler:
    """One connection: requests in turn until one of them closes it. The
    socket has no timeout, so a client may keep it idle between requests."""

    def __init__(self, ans: AnsServer, conn: socket.socket):
        self.ans = ans
        self.conn = conn
        self.rfile = conn.makefile("rb")
        self.close_connection = False

    def handle(self) -> None:
        with self.rfile:
            while not self.close_connection:
                self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read, parse and answer one request; every path through it sets
        ``close_connection``."""
        self.command = None
        line = self.rfile.readline(MAX_REQUEST_LINE + 1)
        if len(line) > MAX_REQUEST_LINE:
            self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
        elif not line:
            self.close_connection = True
        elif self.parse_request(line):
            method = _DISPATCH_AS.get(self.command)
            if method is None:
                self.send_error(HTTPStatus.NOT_FOUND, f"Unsupported method ({self.command!r})",
                                codes.UNKNOWN_ROUTE)
            else:
                self._dispatch(method)

    def parse_request(self, raw: bytes) -> bool:
        """The stdlib's ``parse_request``, with the header lines split into a
        dict keyed by lower-cased name instead of parsed by ``email``, which
        costs about ten times as much per request; of a repeated field the
        first value counts. Limits and meaning are the stdlib's: 414 for a
        request line over 65,536 bytes (``handle_one_request``), 431 for a
        header line over 65,536 bytes or over 100 header lines, 505 for
        HTTP/2 and later, HTTP/1.0 or ``Connection: close`` closes the
        connection, and ``Expect: 100-continue`` gets its interim reply.
        Beyond the stdlib, a request line without a version (HTTP/0.9), a
        malformed header line, two different ``Content-Length`` values and
        any ``Transfer-Encoding`` get 400. Every refusal has a status line
        and closes the connection."""
        self.close_connection = True
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        version = words[-1]
        if len(words) >= 3:
            number = _version_number(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
        if len(words) == 2:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({words[0]!r})")
            return False
        if len(words) != 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
            return False
        self.command, path = words[:2]
        # As the stdlib does: '//host/x' would read as a scheme-relative URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self.headers = {}
        lines = 0
        while True:
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers")
                return False
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                self.send_error(HTTPStatus.BAD_REQUEST, "Malformed header line")
                return False
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                self.send_error(HTTPStatus.BAD_REQUEST, "Conflicting Content-Length values")
                return False
            headers.setdefault(name, value)
        if "transfer-encoding" in headers:
            # A proxy that frames the body by its transfer coding would see
            # one request where Content-Length framing sees two (RFC 9112 §11.2).
            self.send_error(HTTPStatus.BAD_REQUEST, "Transfer-Encoding is not supported")
            return False

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and version >= "HTTP/1.1":
            self.conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, status: int, message: str | None = None,
                   error: str = codes.MALFORMED) -> None:
        """A refusal by the parser, as a JSON error. The request may be
        partly unread, so the connection closes."""
        self.close_connection = True
        self._send(status, _JSON,
                   canonical_bytes(AnsError(error, message or _REASONS[status]).to_doc()))

    def _read_body(self) -> dict:
        length = _CONTENT_LENGTH.fullmatch(self.headers.get("content-length", "0"))
        if length is None or int(length[1]) > MAX_BODY_BYTES:
            # The body's extent is unknown or refused, so the connection
            # cannot be reused after the reply.
            self.close_connection = True
            raise AnsError(codes.MALFORMED,
                           f"Content-Length must be a byte count of at most {MAX_BODY_BYTES}")
        raw = self.rfile.read(int(length[1]))
        if not raw:
            raise AnsError(codes.MALFORMED, "empty request body")
        body = decode_doc("request body", json.loads, raw)
        if not isinstance(body, dict):
            raise AnsError(codes.MALFORMED, "body must be a JSON object")
        return body

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        # The head and the body go out as two writes, as they did under
        # http.server, so a small reply waits for the client's delayed ACK
        # (about 40 ms on Linux). The framing is kept on purpose: sending
        # each reply as one write is ROADMAP item 1.
        head = (f"{PROTOCOL_VERSION} {status:d} {_REASONS[status]}\r\n"
                f"Server: {SERVER_HEADER}\r\nDate: {_http_date()}\r\n"
                f"Content-Type: {content_type}\r\nContent-Length: {len(data)}\r\n")
        if self.close_connection:
            head += "Connection: close\r\n"
        self.conn.sendall((head + "\r\n").encode("latin-1"))
        if self.command != "HEAD":
            self.conn.sendall(data)

    def _dispatch(self, method: str) -> None:
        """Run the route's operation, then send its reply, or the error it
        raised, from one place."""
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        # No GET route reads a body, and a body left unread would be parsed
        # as the next request, so the connection closes after the reply.
        if method == "GET" and self.headers.get("content-length", "0") != "0":
            self.close_connection = True
        content_type = _JSON
        try:
            if method == "GET" and path == "/v1/healthz":
                status, body, content_type = 200, b"ok", _TEXT
            elif method == "GET" and path == "/v1/metrics":
                status, body = self.ans.op_metrics()
                content_type = _TEXT
            elif method == "GET" and path == "/v1/resolve":
                params = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
                status, body = self.ans.op_resolve(params)
            elif method == "POST" and path in _POST_ROUTES:
                status, body = _POST_ROUTES[path](self.ans, self._read_body())
            elif method == "POST" and path.startswith(_AGENTS) and path.endswith("/renew"):
                name_text = urllib.parse.unquote(path[len(_AGENTS):-len("/renew")])
                status, body = self.ans.op_renew(name_text, self._read_body())
            elif method == "DELETE" and path.startswith(_AGENTS):
                name_text = urllib.parse.unquote(path[len(_AGENTS):])
                status, body = self.ans.op_revoke(name_text, self._read_body())
            else:
                self.close_connection = True  # its body, if any, is unread
                raise AnsError(codes.UNKNOWN_ROUTE, f"no route {method} {path}")
        except AnsError as exc:
            status, content_type = STATUS_BY_CODE[exc.code], _JSON
            body = canonical_bytes(exc.to_doc())
        except Exception:
            # A fault of the server: its text stays in the server's stderr.
            import traceback  # only a failing request pays for the import
            traceback.print_exc()
            status, content_type = 500, _JSON
            body = canonical_bytes(AnsError(codes.INTERNAL, _REASONS[500]).to_doc())
        self._send(status, content_type, body)
