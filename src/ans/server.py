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
route as GET does, without the body. The table above is ``_ROUTES``, the one
map from a method and path to an operation. Bodies are framed by
``Content-Length`` only, so a request with ``Transfer-Encoding`` is refused.

Connections are accepted by a ``listener.Listener``, which serves each on
its own daemon thread; the request loop is this module's own: requests read
in turn until one closes the connection, no idle timeout. It keeps
``http.server``'s limits, replies and framing, but not its imports:
``http.server`` loads ``http.client``, and with it ``ssl`` and ``email``,
which the registry never uses. HTTP/0.9 is refused: a request line without a
version gets a 400 with a status line. Every request, whether the parser
refuses it, a route answers it, no route matches it or its operation fails,
is answered by ``_Handler._send``, unless its connection fails while it is
read: that connection ends with no reply. Each reply still goes out as two
writes, the head and then the body, a framing kept on purpose until ROADMAP
item 1 changes it.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import time
import urllib.parse
from dataclasses import dataclass, field, fields
from http import HTTPStatus

from . import attestation, errors as codes, names
from .attestation import CapabilityProof, ChallengeStore
from .canonical import canonical_bytes
from .errors import (
    BOOL, LIST, MAP, POSITIVE_INT, STATUS_BY_CODE, STRING, AnsError, Check, decode_doc,
    read_doc, read_fields,
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


def _setting(default, check: Check, env: str | None = None, flag: str | None = None):
    """A ``ServerConfig`` field: its default, the check on its value in a
    config file, and the environment variable and ``ansctl serve`` flag, if
    any, that set it."""
    return field(default=default, metadata={"check": check, "env": env, "flag": flag})


@dataclass(frozen=True)
class ServerConfig:
    """The server's settings, each declared once, here, with every way to
    set it."""

    listen: str = _setting("127.0.0.1:8400", STRING, "ANS_LISTEN", "--listen")
    anchors_path: str | None = _setting(None, STRING, "ANS_ANCHORS_PATH", "--anchors")
    policy_path: str | None = _setting(None, STRING, "ANS_POLICY_PATH", "--policy")
    log_path: str | None = _setting(None, STRING, "ANS_LOG_PATH", "--log")
    snapshot_path: str | None = _setting(None, STRING, "ANS_SNAPSHOT_PATH", "--snapshot")
    fsync: bool = _setting(True, BOOL)
    record_ttl_seconds: int = _setting(24 * 3600, POSITIVE_INT)
    challenge_ttl_seconds: int = _setting(attestation.CHALLENGE_TTL_S, POSITIVE_INT)

    @classmethod
    def load(cls, config_path: str | None = None, env: dict | None = None,
             flags: dict | None = None) -> "ServerConfig":
        """File values, overridden by environment variables, overridden by
        ``flags``: each setting's ``ansctl serve`` flag value, keyed by the
        setting's name; an empty or missing value sets nothing. An unknown
        file key or a wrongly typed value (a TTL is a positive int) is
        ``MALFORMED``."""
        env = os.environ if env is None else env
        flags = flags or {}
        values: dict = {}
        if config_path is not None:
            doc = read_doc(config_path, "config", json.loads)
            values = read_fields(doc, f"config {config_path}",
                                 {s.name: (s.metadata["check"], s.default) for s in fields(cls)})
        for setting in fields(cls):
            env_key, flag = setting.metadata["env"], setting.metadata["flag"]
            if env_key and env.get(env_key):
                values[setting.name] = env[env_key]
            if flag and flags.get(setting.name):
                values[setting.name] = flags[setting.name]
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

    The socket is bound before state is recovered from persistence, so a
    server that cannot bind leaves its log as it was; nothing is served
    before ``start``. Shutdown flushes a snapshot.
    """

    def __init__(self, config: ServerConfig, clock=time.time):
        self.config = config
        self.clock = clock
        host, port = config.host_port()
        anchors = load_anchors(config.anchors_path) if config.anchors_path else ()
        policies = tuple(load_policy_file(config.policy_path)) if config.policy_path else ()
        self.metrics = Metrics()
        # Bind first: recovery opens the log for appends, which cuts a torn
        # final line off it.
        self._listener = Listener((host, port), lambda conn: _Handler(self, conn).handle())
        try:
            self.registry = Registry.recover(
                policies=policies,
                trust_anchors=anchors,
                record_ttl_seconds=config.record_ttl_seconds,
                log_path=config.log_path,
                snapshot_path=config.snapshot_path,
                fsync=config.fsync,
                observe=self.metrics.observe,
            )
        except BaseException:
            self._listener.close()
            raise
        self.challenges = ChallengeStore(ttl_seconds=config.challenge_ttl_seconds)

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


_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"

# The one map from a request to an operation: (method, path) to the reply's
# content type and a call ``(server, handler, *names)`` that returns the
# reply's status and body. A ``{name}`` in a path is an agent name, passed
# URL-decoded. HEAD answers each GET route without the body (RFC 9110 §9.3.2).
_ROUTES = {
    ("POST", "/v1/agents"): (_JSON, lambda ans, req: ans.op_register(req.read_body())),
    ("POST", "/v1/agents/{name}/renew"):
        (_JSON, lambda ans, req, name: ans.op_renew(name, req.read_body())),
    ("DELETE", "/v1/agents/{name}"):
        (_JSON, lambda ans, req, name: ans.op_revoke(name, req.read_body())),
    ("GET", "/v1/resolve"): (_JSON, lambda ans, req: ans.op_resolve(req.query_params())),
    ("POST", "/v1/challenge"): (_JSON, lambda ans, req: ans.op_challenge(req.read_body())),
    ("POST", "/v1/attest"): (_JSON, lambda ans, req: ans.op_attest(req.read_body())),
    ("POST", "/v1/admission/validate"):
        (_JSON, lambda ans, req: ans.op_admission(req.read_body())),
    ("GET", "/v1/metrics"): (_TEXT, lambda ans, req: ans.op_metrics()),
    ("GET", "/v1/healthz"): (_TEXT, lambda ans, req: (200, b"ok")),
}
# Each route of ``_ROUTES`` with its path as a pattern; ``{name}`` matches any text.
_PATTERNS = tuple((method, re.compile(re.escape(path).replace(r"\{name\}", "(.*)")), route)
                  for (method, path), route in _ROUTES.items())


class _Refusal(Exception):
    """``_Refusal(status, message)``: a request the parser refuses, answered
    with ``status`` and a ``MALFORMED`` error. The rest of the request is
    unread, so the connection closes."""


class _Hangup(ConnectionError):
    """The client's connection failed while its request was being read. The
    connection ends with no reply and no traceback, as ``Listener`` ends one
    on any other ``OSError``."""


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
        ``close_connection``, and every reply goes out through ``_send``."""
        self.command = None
        try:
            if not self.parse_request():
                return
            reply = self._answer()
        except _Refusal as refusal:
            self.close_connection = True
            status, message = refusal.args
            reply = status, _JSON, canonical_bytes(AnsError(codes.MALFORMED, message).to_doc())
        self._send(*reply)

    def parse_request(self) -> bool:
        """Read one request's line and headers: the stdlib's
        ``parse_request``, with the header lines split into a dict keyed by
        lower-cased name instead of parsed by ``email``, which costs about
        ten times as much per request; of a repeated field the first value
        counts. False means there is no request to answer: the client hung
        up or sent a blank line. Limits and meaning are the stdlib's: 414 for
        a request line over 65,536 bytes, 431 for a header line over 65,536
        bytes or over 100 header lines, 505 for HTTP/2 and later, HTTP/1.0 or
        ``Connection: close`` closes the connection, and ``Expect:
        100-continue`` gets its interim reply. Beyond the stdlib, a request
        line without a version (HTTP/0.9), a malformed header line, two
        different ``Content-Length`` values and any ``Transfer-Encoding`` get
        400. Each refusal is raised as a ``_Refusal``."""
        self.close_connection = True
        raw = self.rfile.readline(MAX_REQUEST_LINE + 1)
        if len(raw) > MAX_REQUEST_LINE:
            raise _Refusal(HTTPStatus.REQUEST_URI_TOO_LONG, HTTPStatus.REQUEST_URI_TOO_LONG.phrase)
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        version = words[-1]
        if len(words) >= 3:
            number = _version_number(version)
            if number is None:
                raise _Refusal(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
            if number >= (2, 0):
                raise _Refusal(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                               f"Invalid HTTP version ({version[5:]})")
            self.close_connection = number < (1, 1)
        if len(words) == 2:
            raise _Refusal(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({words[0]!r})")
        if len(words) != 3:
            raise _Refusal(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})")
        self.command, path = words[:2]
        # As the stdlib does: '//host/x' would read as a scheme-relative URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self.headers = {}
        lines = 0
        while True:
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                raise _Refusal(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                raise _Refusal(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers")
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or name != name.strip():
                raise _Refusal(HTTPStatus.BAD_REQUEST, "Malformed header line")
            name, value = name.lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _Refusal(HTTPStatus.BAD_REQUEST, "Conflicting Content-Length values")
            headers.setdefault(name, value)
        if "transfer-encoding" in headers:
            # A proxy that frames the body by its transfer coding would see
            # one request where Content-Length framing sees two (RFC 9112 §11.2).
            raise _Refusal(HTTPStatus.BAD_REQUEST, "Transfer-Encoding is not supported")

        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if headers.get("expect", "").lower() == "100-continue" and version >= "HTTP/1.1":
            self.conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def read_body(self) -> dict:
        length = _CONTENT_LENGTH.fullmatch(self.headers.get("content-length", "0"))
        if length is None or int(length[1]) > MAX_BODY_BYTES:
            # The body's extent is unknown or refused, so the connection
            # cannot be reused after the reply.
            self.close_connection = True
            raise AnsError(codes.MALFORMED,
                           f"Content-Length must be a byte count of at most {MAX_BODY_BYTES}")
        try:
            raw = self.rfile.read(int(length[1]))
        except OSError as exc:
            raise _Hangup() from exc
        if not raw:
            raise AnsError(codes.MALFORMED, "empty request body")
        body = decode_doc("request body", json.loads, raw)
        if not isinstance(body, dict):
            raise AnsError(codes.MALFORMED, "body must be a JSON object")
        return body

    def query_params(self) -> dict[str, str]:
        """The query's parameters; of a repeated one the last value counts."""
        query = urllib.parse.urlsplit(self.path).query
        return {k: v[-1] for k, v in urllib.parse.parse_qs(query).items()}

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

    def _answer(self) -> tuple[int, str, bytes]:
        """Run the route's operation: the status, content type and body of
        its reply, or of the error it raised."""
        method = "GET" if self.command == "HEAD" else self.command
        path = urllib.parse.urlsplit(self.path).path
        # No GET route reads a body, and a body left unread would be parsed
        # as the next request, so the connection closes after the reply.
        if method == "GET" and self.headers.get("content-length", "0") != "0":
            self.close_connection = True
        try:
            for route_method, pattern, (content_type, call) in _PATTERNS:
                if route_method == method and (match := pattern.fullmatch(path)):
                    break
            else:
                self.close_connection = True  # its body, if any, is unread
                raise AnsError(codes.UNKNOWN_ROUTE, f"no route {method} {path}")
            status, body = call(self.ans, self, *map(urllib.parse.unquote, match.groups()))
        except AnsError as exc:
            status, content_type = STATUS_BY_CODE[exc.code], _JSON
            body = canonical_bytes(exc.to_doc())
        except _Hangup:
            raise
        except Exception:
            # A fault of the server: its text stays in the server's stderr.
            import traceback  # only a failing request pays for the import
            traceback.print_exc()
            status, content_type = 500, _JSON
            body = canonical_bytes(AnsError(codes.INTERNAL, _REASONS[500]).to_doc())
        return status, content_type, body
