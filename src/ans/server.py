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
the table above is 404 ``UNKNOWN_ROUTE``. Bodies are framed by
``Content-Length`` only, so a request with ``Transfer-Encoding`` is refused.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import attestation, errors as codes, names
from .attestation import CapabilityProof, ChallengeStore
from .canonical import canonical_json
from .errors import STATUS_BY_CODE, AnsError, decode_doc
from .identity import Certificate, CertificateChain
from .manifest import validate_admission
from .metrics import Metrics, render_text
from .policy import load_policies
from .registry import AgentRecord, RegistrationRequest, Registry

# Largest request body read; a registration or a manifest is a few KiB.
MAX_BODY_BYTES = 1 << 20
# The stdlib's request limits: bytes per header line, header lines per request.
MAX_HEADER_LINE = 65536
MAX_HEADERS = 100


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

    # The keys a config file may set, and the type of each value.
    _FILE_TYPES = {"listen": str, "anchors_path": str, "policy_path": str, "log_path": str,
                   "snapshot_path": str, "fsync": bool, "record_ttl_seconds": int,
                   "challenge_ttl_seconds": int}

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
            with open(config_path, "r", encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except ValueError as exc:
                    raise AnsError(codes.MALFORMED, f"unreadable config: {exc}")
            if not isinstance(doc, dict):
                raise AnsError(codes.MALFORMED, "config must be a JSON object")
            for key, value in doc.items():
                kind = cls._FILE_TYPES.get(key)
                if kind is None:
                    raise AnsError(codes.MALFORMED, f"unknown config key {key!r}")
                # type(), not isinstance(): a bool is not a TTL.
                if type(value) is not kind or (kind is int and value <= 0):
                    expected = "a positive int" if kind is int else f"a {kind.__name__}"
                    raise AnsError(codes.MALFORMED, f"config key {key!r} must be {expected}")
                values[key] = value
        for attr, env_key in cls._ENV_KEYS.items():
            if env.get(env_key):
                values[attr] = env[env_key]
        return cls(**values)

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen.rpartition(":")
        return host or "127.0.0.1", int(port)


def load_anchors(path: str) -> tuple[Certificate, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise AnsError(codes.MALFORMED, "trust anchor file must be an array of certificates")
    return tuple(Certificate.from_doc(c) for c in doc)


class AnsServer:
    """Registry, challenge store, metrics, and the HTTP front end.

    State is recovered from persistence before the socket accepts traffic;
    shutdown flushes a snapshot.
    """

    def __init__(self, config: ServerConfig, clock=time.time):
        self.config = config
        self.clock = clock
        anchors = load_anchors(config.anchors_path) if config.anchors_path else ()
        policies = ()
        if config.policy_path:
            with open(config.policy_path, "r", encoding="utf-8") as fh:
                policies = tuple(load_policies(fh.read()))
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
        host, port = config.host_port()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.ans_server = self  # type: ignore[attr-defined]
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
        chain = None
        if "manifest" in body:
            manifest_doc = body["manifest"]
            if "chain" in body:
                chain = decode_doc("admission chain", CertificateChain.from_doc, body["chain"])
            for key in body:
                if key not in ("manifest", "chain"):
                    raise AnsError(codes.MALFORMED, f"unknown admission key {key!r}")
        else:
            manifest_doc = body
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


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "ans"

    # Route table entries: (method, prefix-or-exact path).
    def _ans(self) -> AnsServer:
        return self.server.ans_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def parse_request(self) -> bool:
        """The stdlib's ``parse_request``, with the header lines split into a
        ``_Headers`` map instead of parsed by ``email``, which costs about ten
        times as much per request. Limits and meaning are the stdlib's:
        431 for a header line over 65,536 bytes or over 100 header lines,
        505 for HTTP/2 and later, HTTP/1.0 or ``Connection: close`` closes
        the connection, and ``Expect: 100-continue`` gets its interim reply.
        Beyond the stdlib, a malformed header line, two different
        ``Content-Length`` values and any ``Transfer-Encoding`` get 400, and
        a malformed request line gets a 400 with a status line and
        ``Connection: close`` rather than a bare error page, HTTP/0.9 style.
        Every refusal closes the connection."""
        self.command = None
        self.request_version = self.default_request_version
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
            return self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's refusals as JSON: ``MALFORMED`` under their own status,
        and an unsupported method (501) as 404 ``UNKNOWN_ROUTE``, like an
        unknown path. The request may be partly unread, so the connection closes."""
        # A status line even before the request's version is known, where
        # the stdlib would send a bare HTTP/0.9 page.
        self.request_version = self.protocol_version
        error = codes.MALFORMED
        if code == HTTPStatus.NOT_IMPLEMENTED:
            code, error = HTTPStatus.NOT_FOUND, codes.UNKNOWN_ROUTE
        self.close_connection = True
        self._send_json(code, AnsError(error, message or self.responses[code][0]).to_doc())

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
        # The headers and the body go out as two writes on an unbuffered
        # socket, so a small reply waits for the client's delayed ACK (about
        # 40 ms on Linux). Sending each reply as one write is ROADMAP item 1.
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
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

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")
