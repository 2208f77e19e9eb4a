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

The request loop is this module's own, on ``socketserver``: one daemon
thread per connection, requests read in turn until one closes it, no idle
timeout. It keeps ``http.server``'s limits, replies and framing, but not its
imports: ``http.server`` loads ``http.client``, and with it ``ssl`` and
``email``, which the registry never uses. Each reply still goes out as two
writes, the head and then the body; that framing is kept on purpose until
ROADMAP item 1 changes it.
"""

from __future__ import annotations

import json
import os
import socketserver
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http import HTTPStatus

from . import attestation, errors as codes, names
from .attestation import CapabilityProof, ChallengeStore
from .canonical import canonical_json
from .errors import (
    BOOL, LIST, MAP, POSITIVE_INT, STATUS_BY_CODE, STRING, AnsError, decode_doc, read_fields,
)
from .identity import Certificate, CertificateChain
from .manifest import validate_admission
from .metrics import Metrics, render_text
from .policy import load_policy_file
from .registry import AgentRecord, RegistrationRequest, Registry

# Largest request body read; a registration or a manifest is a few KiB.
MAX_BODY_BYTES = 1 << 20
# The stdlib's request limits: bytes per request line and per header line,
# header lines per request.
MAX_REQUEST_LINE = 65536
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100

PROTOCOL_VERSION = "HTTP/1.1"
# A request line without a version is HTTP/0.9, whose reply is the body alone.
HTTP_0_9 = "HTTP/0.9"
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
            where = f"config {config_path}"
            with open(config_path, "rb") as fh:
                doc = decode_doc(where, json.loads, fh.read())
            values = read_fields(doc, where, {key: (check, getattr(cls, key))
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
    with open(path, "rb") as fh:
        return decode_doc(f"trust anchor file {path}", _anchors_from_json, fh.read())


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
        self._httpd = _Listener((host, port), self)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[0], self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def now(self) -> int:
        return int(self.clock())

    def start(self) -> None:
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="ans-server", daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self.config.snapshot_path:
            self.registry.write_snapshot(self.config.snapshot_path)
        self.registry.close()

    # -- operation bodies, shared by the HTTP handler ------------------------

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

    def op_revoke(self, name_text: str, body: dict) -> tuple[int, dict]:
        ts, signature = decode_doc("control body", _control_fields, body)
        self.registry.revoke(name_text, ts, signature, self.now())
        return 200, {"revoked": name_text}

    def op_resolve(self, params: dict[str, str]) -> tuple[int, bytes]:
        """The reply body is the canonical JSON array of the hits, joined from
        each record's cached bytes."""
        self.metrics.inc("discovery_queries_total")
        with self.metrics.timed("discovery"):
            query = names.NameQuery.from_params(params)
            records = self.registry.resolve(query, self.now())
        return 200, b"[" + b",".join(r.doc_bytes for r in records) + b"]"

    def op_challenge(self, body: dict) -> tuple[int, dict]:
        name_text = body.get("name")
        if not isinstance(name_text, str):
            raise AnsError(codes.MALFORMED, "challenge body must carry the agent name")
        record = self._record_or_404(name_text)
        challenge = self.challenges.issue(record.name, self.now())
        return 200, challenge.to_doc()

    def op_attest(self, body: dict) -> tuple[int, dict]:
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
            return 200, {"granted": True, "agent": proof.agent_name, "capability": proof.capability}

    def op_admission(self, body: dict) -> tuple[int, dict]:
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
        return 200, result.to_doc()

    def op_metrics(self) -> str:
        now = self.now()
        return render_text(self.metrics.snapshot(records=self.registry.active_records(now),
                                                 now=now))

    def _record_or_404(self, name_text: str) -> AgentRecord:
        record = self.registry.get_active(name_text, self.now())
        if record is None:
            raise AnsError(codes.UNKNOWN_AGENT, f"no active record for {name_text}")
        return record


def _control_fields(body: dict) -> tuple[int, bytes]:
    return int(body["ts"]), bytes.fromhex(body["signature"])


# The resolve parameter mapping under its older name.
query_from_params = names.NameQuery.from_params


class _Headers(dict):
    """Request header fields keyed by lower-cased name, read with ``get`` in
    any case; of a repeated field the first value counts, as with the
    stdlib's ``email`` message."""

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


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


class _Listener(socketserver.ThreadingTCPServer):
    """The listening socket: each connection is served by ``_Handler`` on a
    daemon thread, and a port in TIME_WAIT can be bound again at once."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], ans_server: AnsServer):
        self.ans_server = ans_server
        super().__init__(address, _Handler)


# The route table each request method is dispatched to. HEAD answers a GET
# route without the body (RFC 9110 §9.3.2): ``_send`` leaves it out.
_DISPATCH_AS = {"GET": "GET", "HEAD": "GET", "POST": "POST", "DELETE": "DELETE"}


class _Handler(socketserver.StreamRequestHandler):
    """One connection: requests in turn until one of them closes it. The
    socket has no timeout, so a client may keep it idle between requests."""

    def _ans(self) -> AnsServer:
        return self.server.ans_server  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection:
            self.handle_one_request()

    def handle_one_request(self) -> None:
        """Read, parse and answer one request; every path through it sets
        ``close_connection``."""
        self.command = None
        try:
            self.raw_requestline = self.rfile.readline(MAX_REQUEST_LINE + 1)
            if len(self.raw_requestline) > MAX_REQUEST_LINE:
                self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self.parse_request():
                return
            method = _DISPATCH_AS.get(self.command)
            if method is None:
                self.send_error(HTTPStatus.NOT_IMPLEMENTED,
                                f"Unsupported method ({self.command!r})")
                return
            self._dispatch(method)
        except TimeoutError:
            # The peer stopped acknowledging (ETIMEDOUT): drop the connection.
            self.close_connection = True

    def parse_request(self) -> bool:
        """The stdlib's ``parse_request``, with the header lines split into a
        ``_Headers`` map instead of parsed by ``email``, which costs about ten
        times as much per request. Limits and meaning are the stdlib's:
        414 for a request line over 65,536 bytes (``handle_one_request``),
        431 for a header line over 65,536 bytes or over 100 header lines,
        505 for HTTP/2 and later, HTTP/1.0 or ``Connection: close`` closes
        the connection, and ``Expect: 100-continue`` gets its interim reply.
        Beyond the stdlib, a malformed header line, two different
        ``Content-Length`` values and any ``Transfer-Encoding`` get 400, and
        a malformed request line gets a 400 with a status line and
        ``Connection: close`` rather than a bare error page, HTTP/0.9 style.
        Every refusal closes the connection."""
        self.request_version = HTTP_0_9
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            number = _version_number(words[-1])
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({words[-1]!r})")
                return False
            self.request_version = words[-1]
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version ({words[-1][5:]})")
                return False
            self.close_connection = number < (1, 1)
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
                return False
        self.command = command
        # As the stdlib does: '//host/x' would read as a scheme-relative URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self.headers = _Headers()
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
        if (headers.get("expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def send_error(self, code: int, message: str | None = None) -> None:
        """The stdlib's refusals as JSON: ``MALFORMED`` under their own status,
        and an unsupported method (501) as 404 ``UNKNOWN_ROUTE``, like an
        unknown path. The request may be partly unread, so the connection closes."""
        # A status line even before the request's version is known, where
        # the stdlib would send a bare HTTP/0.9 page.
        self.request_version = PROTOCOL_VERSION
        error = codes.MALFORMED
        if code == HTTPStatus.NOT_IMPLEMENTED:
            code, error = HTTPStatus.NOT_FOUND, codes.UNKNOWN_ROUTE
        self.close_connection = True
        self._send_json(code, AnsError(error, message or _REASONS[code]).to_doc())

    def _read_body(self) -> dict:
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()) or int(length) > MAX_BODY_BYTES:
            # The body's extent is unknown or refused, so the connection
            # cannot be reused after the reply.
            self.close_connection = True
            raise AnsError(codes.MALFORMED,
                           f"Content-Length must be a byte count of at most {MAX_BODY_BYTES}")
        raw = self.rfile.read(int(length))
        if not raw:
            raise AnsError(codes.MALFORMED, "empty request body")
        try:
            body = json.loads(raw)
        except (RecursionError, ValueError) as exc:
            raise AnsError(codes.MALFORMED, f"body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise AnsError(codes.MALFORMED, "body must be a JSON object")
        return body

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        # The head and the body go out as two writes on an unbuffered
        # socket, as they did under http.server, so a small reply waits for
        # the client's delayed ACK (about 40 ms on Linux). The framing is
        # kept on purpose: sending each reply as one write is ROADMAP item 1.
        if self.request_version != HTTP_0_9:
            head = (f"{PROTOCOL_VERSION} {status:d} {_REASONS[status]}\r\n"
                    f"Server: {SERVER_HEADER}\r\nDate: {_http_date()}\r\n"
                    f"Content-Type: {content_type}\r\nContent-Length: {len(data)}\r\n")
            if self.close_connection:
                head += "Connection: close\r\n"
            self.wfile.write((head + "\r\n").encode("latin-1"))
        if self.command != "HEAD":
            self.wfile.write(data)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, "application/json", canonical_json(payload).encode("utf-8"))

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, "text/plain; charset=utf-8", text.encode("utf-8"))

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        path = parsed.path
        # No GET route reads a body, and a body left unread would be parsed
        # as the next request, so the connection closes after the reply.
        if method == "GET" and self.headers.get("Content-Length", "0") != "0":
            self.close_connection = True
        try:
            if method == "GET" and path == "/v1/healthz":
                self._send_text(200, "ok")
                return
            if method == "GET" and path == "/v1/metrics":
                self._send_text(200, self._ans().op_metrics())
                return
            if method == "GET" and path == "/v1/resolve":
                params = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
                status, body = self._ans().op_resolve(params)
                self._send(status, "application/json", body)
                return
            if method == "POST" and path == "/v1/agents":
                status, body = self._ans().op_register(self._read_body())
                self._send(status, "application/json", body)
                return
            if method == "POST" and path.startswith("/v1/agents/") and path.endswith("/renew"):
                name_text = urllib.parse.unquote(path[len("/v1/agents/"):-len("/renew")])
                status, body = self._ans().op_renew(name_text, self._read_body())
                self._send(status, "application/json", body)
                return
            if method == "DELETE" and path.startswith("/v1/agents/"):
                name_text = urllib.parse.unquote(path[len("/v1/agents/"):])
                status, payload = self._ans().op_revoke(name_text, self._read_body())
                self._send_json(status, payload)
                return
            if method == "POST" and path == "/v1/challenge":
                status, payload = self._ans().op_challenge(self._read_body())
                self._send_json(status, payload)
                return
            if method == "POST" and path == "/v1/attest":
                status, payload = self._ans().op_attest(self._read_body())
                self._send_json(status, payload)
                return
            if method == "POST" and path == "/v1/admission/validate":
                status, payload = self._ans().op_admission(self._read_body())
                self._send_json(status, payload)
                return
            self.close_connection = True  # its body, if any, is unread
            raise AnsError(codes.UNKNOWN_ROUTE, f"no route {method} {path}")
        except AnsError as exc:
            self._send_json(STATUS_BY_CODE[exc.code], exc.to_doc())
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._send_json(500, {"error": codes.INTERNAL, "message": str(exc)})
