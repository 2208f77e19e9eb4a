"""Every reader of a document from outside the process answers a malformed one
with its own code: nesting too deep to decode, bytes that are not UTF-8 and
a number too large for ``int`` never escape as a bare exception, and through
``ansctl`` they exit 1 without a traceback."""

import contextlib
import http.client
import json
import os

import pytest

from ans import client
from ans.canonical import canonical_json
from ans.cli import _load_ca, _load_manifest_doc, load_identity, main
from ans.errors import AnsError, TransportError
from ans.harness import harness_policies
from ans.policy import load_policy_file, policies_to_doc
from ans.registry import Registry
from ans.server import ServerConfig, load_anchors
from conftest import NOW, make_identity, make_name
from test_client import _DroppingStub
from test_manifest import LISTING_MANIFEST_YAML

DEEP = b"[" * 100_000 + b"]" * 100_000
DEEP_YAML = b"[" * 5_000 + b"]" * 5_000
NOT_UTF8 = b'{"name": "\xff"}'
NAME = make_name(0).render()
# Each is a log line that follows one Registered line.
HUGE_SEQ = b'{"seq":1e400,"kind":"Revoked","payload":{},"at":1}'
HUGE_RENEWAL = b'{"seq":2,"kind":"Renewed","payload":{"name":"%s","expires_at":1e400},"at":1}' % (
    NAME.encode())
HUGE_LAST_SEQ = b'{"last_seq":1e400,"records":[]}'


@pytest.fixture(scope="module")
def registered_line(ca, tmp_path_factory):
    """A log holding one Registered event, as the registry writes it."""
    path = tmp_path_factory.mktemp("log") / "events.log"
    registry = Registry.recover(policies=harness_policies(), trust_anchors=ca.anchors,
                                log_path=str(path), fsync=False)
    identity = make_identity(ca, make_name(0))
    registry.register(client.build_registration_request(identity, "ns-0"), NOW)
    registry.close()
    return path.read_bytes()


def _file(name):
    """Puts the document in the file ``name`` under the test's directory."""
    def place(raw, ctx):
        path = ctx["dir"] / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(raw)
        return str(path)
    return place


def _logged(raw, ctx):
    return _file("events.log")(ctx["registered_line"] + raw + b"\n", ctx)


def _stub(content_type):
    """Puts the document in every reply of a stub registry, and gives its URL."""
    def place(raw, ctx):
        ctx["stub"] = _DroppingStub(b"HTTP/1.1 200 OK\r\nContent-Type: %s\r\n"
                                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                                    % (content_type, len(raw), raw))
        return ctx["stub"].url
    return place


def _post(target):
    server, raw = target
    conn = http.client.HTTPConnection(*server.address, timeout=10)
    try:
        conn.request("POST", "/v1/challenge", body=raw)
        reply = conn.getresponse()
        doc = json.loads(reply.read())
    finally:
        conn.close()
    assert reply.status == 400
    raise AnsError(doc["error"], doc["message"])


def _handshake_message(raw):
    ours, theirs = client.LoopbackTransport.pair()
    theirs.send(raw)
    client._recv_doc(ours, 1.0)


def _reply(url):
    with contextlib.closing(client.RegistryClient(url, timeout=10)) as registry:
        registry.get("/v1/resolve?capability=cap-a")


def _serve(*flags):
    return ["serve", "--listen", "127.0.0.1:0", *flags]


def _resolve(url, d):
    return ["resolve", "--registry", url, "--capability", "cap-a"]


# reader -> (place(raw, ctx) -> target, read(target), the code it raises (or
#            TransportError), its malformed inputs, and argv(target, dir), the
#            ansctl arguments that read the target, or None)
READERS = {
    "request-body": (lambda raw, ctx: (ctx["request"].getfixturevalue("server"), raw), _post,
                     "MALFORMED", (DEEP, NOT_UTF8), None),
    "handshake-message": (lambda raw, ctx: raw, _handshake_message, "MALFORMED",
                          (DEEP, NOT_UTF8), None),
    "config": (_file("config.json"), ServerConfig.load, "MALFORMED", (DEEP, NOT_UTF8),
               lambda path, d: ["serve", "--config", path]),
    "trust-anchors": (_file("anchors.json"), load_anchors, "MALFORMED", (DEEP, NOT_UTF8),
                      lambda path, d: _serve("--anchors", path)),
    "identity": (_file("agent.json"), load_identity, "MALFORMED", (DEEP, NOT_UTF8),
                 lambda path, d: ["register", "--registry", "http://127.0.0.1:9",
                                  "--identity", path]),
    "ca": (_file("ca/ca-intermediate.json"), lambda path: _load_ca(os.path.dirname(path)),
           "MALFORMED", (DEEP, NOT_UTF8),
           lambda path, d: ["cert", "issue", "--keys", os.path.dirname(path), "--name", NAME,
                            "--endpoint", "http://127.0.0.1:9", "--out", str(d / "out.json")]),
    "manifest": (_file("manifest.yaml"), _load_manifest_doc, "MALFORMED", (DEEP_YAML, NOT_UTF8),
                 lambda path, d: ["policy", "test", "--manifest", path,
                                  "--policy", str(d / "good-policy.json")]),
    "policy": (_file("policy.json"), load_policy_file, "POLICY_PARSE", (DEEP, NOT_UTF8),
               lambda path, d: ["policy", "test", "--manifest", str(d / "good-manifest.yaml"),
                                "--policy", path]),
    "log-line": (_logged, lambda path: Registry.recover(log_path=path), "LOG_CORRUPT",
                 (DEEP, NOT_UTF8, HUGE_SEQ, HUGE_RENEWAL), lambda path, d: _serve("--log", path)),
    "snapshot": (_file("snapshot.json"), lambda path: Registry.recover(snapshot_path=path),
                 "LOG_CORRUPT", (DEEP, NOT_UTF8, HUGE_LAST_SEQ),
                 lambda path, d: _serve("--snapshot", path)),
    "json-reply": (_stub(b"application/json"), _reply, TransportError, (DEEP, NOT_UTF8),
                   _resolve),
    "text-reply": (_stub(b"text/plain; charset=utf-8"), _reply, TransportError, (NOT_UTF8,),
                   _resolve),
}
INPUT_IDS = {DEEP: "deep", DEEP_YAML: "deep", NOT_UTF8: "not-utf8", HUGE_SEQ: "seq-1e400",
             HUGE_RENEWAL: "expires_at-1e400", HUGE_LAST_SEQ: "last_seq-1e400"}
CASES = [pytest.param(reader, raw, via, id=f"{reader}-{INPUT_IDS[raw]}-{via}")
         for reader, (_, _, _, inputs, argv) in READERS.items()
         for raw in inputs
         for via in (("api", "ansctl") if argv else ("api",))]


@pytest.mark.parametrize("reader,raw,via", CASES)
def test_malformed_document_gets_its_readers_code(reader, raw, via, tmp_path, request,
                                                  registered_line, capsys):
    place, read, expected, _, argv = READERS[reader]
    ctx = {"dir": tmp_path, "request": request, "registered_line": registered_line}
    try:
        target = place(raw, ctx)
        if via == "ansctl":
            (tmp_path / "good-policy.json").write_text(
                canonical_json(policies_to_doc(harness_policies())))
            (tmp_path / "good-manifest.yaml").write_text(LISTING_MANIFEST_YAML)
            assert main(argv(target, tmp_path)) == 1
            assert "Traceback" not in capsys.readouterr().err
            return
        with pytest.raises((AnsError, TransportError)) as err:
            read(target)
    finally:
        if "stub" in ctx:
            ctx["stub"].close()
    if expected is TransportError:
        assert err.type is TransportError
    else:
        assert err.value.code == expected
    if reader == "log-line":
        assert err.value.details == {"last_good_seq": 1, "line": 2}
