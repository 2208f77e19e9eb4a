import dataclasses
import email.utils
import errno
import gc
import http.client
import json
import os
import pathlib
import platform
import re
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.parse
import urllib.request
import warnings

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import ans
from ans import attestation, errors, names
from ans.canonical import canonical_bytes, canonical_json
from ans.client import RegistryClient, build_registration_request
from ans.errors import ERROR_CODES, AnsError
from ans.policy import policies_to_doc
from ans.identity import ROLE_AGENT, issue_certificate
from ans.registry import AgentRecord, renewal_payload, revocation_payload
from ans.server import (
    _ROUTES, STATUS_BY_CODE, AnsServer, ServerConfig, _Handler, _http_date, load_anchors,
    query_from_params,
)
from conftest import NOW, make_identity, make_name
from test_manifest import LISTING_MANIFEST_YAML


def _get(server, path):
    with urllib.request.urlopen(server.url + path) as response:
        return response.status, response.read().decode()


@pytest.fixture()
def rc(server):
    client = RegistryClient(server.url)
    yield client
    client.close()


def _register(server, rc, ca, name=None, namespace="ns-0", **kwargs):
    identity = make_identity(ca, name or make_name(0), **kwargs)
    doc = rc.post("/v1/agents", build_registration_request(identity, namespace).to_doc())
    return identity, doc


def _post_raw(server, path, body: dict):
    data = json.dumps(body).encode()
    request = urllib.request.Request(server.url + path, data=data, method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


# -- liveness and lifecycle -------------------------------------------------------


def test_healthz(server):
    assert _get(server, "/v1/healthz") == (200, "ok")


def test_corrupt_log_refuses_to_serve(tmp_path, ca, allow_policies):
    log = tmp_path / "events.log"
    log.write_text('{"seq": 5, "kind": "Registered", "payload": {}, "at": 1}\n')
    anchors = tmp_path / "anchors.json"
    anchors.write_text(canonical_json([ca.root_cert.to_doc()]))
    config = ServerConfig(listen="127.0.0.1:0", anchors_path=str(anchors),
                          log_path=str(log))
    with pytest.raises(AnsError) as err:
        AnsServer(config)
    assert err.value.code == "LOG_CORRUPT"


def test_shutdown_writes_snapshot(tmp_path, ca, allow_policies):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(canonical_json([ca.root_cert.to_doc()]))
    policy = tmp_path / "policy.json"
    policy.write_text(canonical_json(policies_to_doc(allow_policies)))
    snap = tmp_path / "snap.json"
    config = ServerConfig(listen="127.0.0.1:0", anchors_path=str(anchors),
                          policy_path=str(policy), log_path=str(tmp_path / "e.log"),
                          snapshot_path=str(snap), fsync=False)
    server = AnsServer(config)
    server.start()
    rc = RegistryClient(server.url)
    try:
        _register(server, rc, ca)
    finally:
        rc.close()
    server.shutdown()
    doc = json.loads(snap.read_text())
    assert doc["last_seq"] == 1 and len(doc["records"]) == 1


def test_shutdown_of_a_server_never_started_returns(tmp_path):
    server = AnsServer(ServerConfig(listen="127.0.0.1:0", fsync=False,
                                    log_path=str(tmp_path / "events.log")))
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()


def test_started_server_shuts_down_at_once(tmp_path):
    server = AnsServer(ServerConfig(listen="127.0.0.1:0", fsync=False,
                                    log_path=str(tmp_path / "events.log")))
    server.start()
    assert _get(server, "/v1/healthz") == (200, "ok")
    started = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - started < 0.25


TORN_TAIL = b'{"seq": 1, "ki'


def test_a_server_that_cannot_bind_leaves_its_log_untouched(tmp_path):
    """Recovery opens the log, which cuts a torn final line off it, so a
    server started twice by mistake must fail to bind before it recovers:
    the log the running server appends to keeps its bytes, and no handle to
    it is left open."""
    log = tmp_path / "events.log"
    log.write_bytes(TORN_TAIL)
    with socket.create_server(("127.0.0.1", 0)) as taken:
        config = ServerConfig(listen="127.0.0.1:%d" % taken.getsockname()[1],
                              log_path=str(log), fsync=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                AnsServer(config)
            gc.collect()
    assert log.read_bytes() == TORN_TAIL
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_config_env_overrides(tmp_path):
    config_file = tmp_path / "server.json"
    config_file.write_text(json.dumps({
        "listen": "127.0.0.1:1111", "policy_path": "/from/file.json", "fsync": False,
    }))
    loaded = ServerConfig.load(str(config_file), env={
        "ANS_LISTEN": "127.0.0.1:2222", "ANS_LOG_PATH": "/from/env.log"})
    assert loaded.listen == "127.0.0.1:2222"  # env beats file
    assert loaded.policy_path == "/from/file.json"
    assert loaded.log_path == "/from/env.log"
    assert loaded.fsync is False


def test_config_flag_beats_env_beats_file(tmp_path):
    config_file = tmp_path / "server.json"
    config_file.write_text(json.dumps({"listen": "127.0.0.1:1111", "log_path": "/file.log",
                                       "policy_path": "/file.json", "fsync": False}))
    loaded = ServerConfig.load(
        str(config_file), env={"ANS_LISTEN": "127.0.0.1:2222", "ANS_LOG_PATH": "/env.log"},
        flags={"listen": "127.0.0.1:3333", "log_path": None, "snapshot_path": "",
               "fsync": True})
    assert (loaded.listen, loaded.log_path, loaded.policy_path) == \
        ("127.0.0.1:3333", "/env.log", "/file.json")
    assert loaded.snapshot_path is None
    assert loaded.fsync is False  # a setting without a flag is not read from the flags


@pytest.mark.parametrize("doc,key", [
    ({"record_ttl_seconds": "3600"}, "record_ttl_seconds"),
    ({"record_ttl_seconds": True}, "record_ttl_seconds"),
    ({"challenge_ttl_seconds": 0}, "challenge_ttl_seconds"),
    ({"fsync": "no"}, "fsync"),
    ({"fsync": 0}, "fsync"),
    ({"listen": 8400}, "listen"),
    ({"log_path": None}, "log_path"),
    ({"fsynk": False}, "fsynk"),
], ids=["ttl-string", "ttl-bool", "ttl-zero", "fsync-string", "fsync-int", "listen-int",
        "path-null", "misspelt-key"])
def test_config_file_faults_are_malformed_at_load(tmp_path, doc, key):
    config_file = tmp_path / "server.json"
    config_file.write_text(json.dumps(doc))
    with pytest.raises(AnsError) as err:
        ServerConfig.load(str(config_file), env={})
    assert err.value.code == "MALFORMED" and repr(key) in err.value.message


@pytest.mark.parametrize("listen", ["127.0.0.1:abc", "abc", "127.0.0.1:65536", "127.0.0.1:",
                                    "127.0.0.1:-1", "127.0.0.1:" + "9" * 5000],
                         ids=["port-abc", "no-port", "port-65536", "empty-port", "port-minus-1",
                              "port-5000-digits"])
def test_listen_outside_host_port_is_malformed(listen):
    with pytest.raises(AnsError) as err:
        ServerConfig(listen=listen).host_port()
    assert err.value.code == "MALFORMED" and "'listen'" in err.value.message


@pytest.mark.parametrize("listen,address", [("127.0.0.1:0", ("127.0.0.1", 0)),
                                            (":65535", ("127.0.0.1", 65535))])
def test_listen_host_port(listen, address):
    assert ServerConfig(listen=listen).host_port() == address


@pytest.mark.parametrize("text", ["not json", "{}", '[{"subject_did": "x"}]'],
                         ids=["not-json", "not-an-array", "no-serial"])
def test_malformed_trust_anchor_file_is_malformed(tmp_path, text):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(text)
    with pytest.raises(AnsError) as err:
        load_anchors(str(anchors))
    assert err.value.code == "MALFORMED" and str(anchors) in err.value.message


def test_config_file_must_be_an_object(tmp_path):
    config_file = tmp_path / "server.json"
    config_file.write_text("[]")
    with pytest.raises(AnsError) as err:
        ServerConfig.load(str(config_file), env={})
    assert err.value.code == "MALFORMED"


# -- registration ------------------------------------------------------------------


def test_register_created_with_server_timestamps(server, rc, ca):
    _, doc = _register(server, rc, ca)
    record = AgentRecord.from_doc(doc)
    assert record.status == "active"
    assert record.expires_at == record.registered_at + server.config.record_ttl_seconds
    # wire round trip: re-serialization is identical
    assert record.to_doc() == doc


def test_register_duplicate_409(server, rc, ca):
    _register(server, rc, ca, make_name(1))
    identity = make_identity(ca, make_name(1))
    status, body = _post_raw(server, "/v1/agents",
                             build_registration_request(identity, "ns-0").to_doc())
    assert status == 409 and body["error"] == "DUPLICATE_AGENT"


def test_register_policy_denied_403_with_explanation(server, ca):
    identity = make_identity(ca, make_name(2, env="forbidden"))
    status, body = _post_raw(server, "/v1/agents",
                             build_registration_request(identity, "ns-0").to_doc())
    assert status == 403 and body["error"] == "POLICY_DENIED"
    assert "deny-forbidden-env" in body["details"]["explain"]


def test_register_malformed_body_400(server):
    status, body = _post_raw(server, "/v1/agents", {"nope": 1})
    assert status == 400 and body["error"] == "MALFORMED"


_AGENT_PATH = "/v1/agents/" + urllib.parse.quote(make_name(0).render(), safe="")
BODY_ROUTES = [("POST", "/v1/agents"), ("POST", _AGENT_PATH + "/renew"),
               ("DELETE", _AGENT_PATH), ("POST", "/v1/challenge"), ("POST", "/v1/attest"),
               ("POST", "/v1/admission/validate")]


@pytest.mark.parametrize("body", [[], "x", 1, None], ids=["list", "text", "number", "null"])
@pytest.mark.parametrize("method,path", BODY_ROUTES)
def test_non_object_body_400(server, method, path, body):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request(method, path, body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        status, doc = response.status, json.loads(response.read())
    finally:
        conn.close()
    assert status == 400 and doc["error"] == "MALFORMED", doc


def _request_raw(server, method, path, data: bytes):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _registration_doc(ca, **changes):
    identity = make_identity(ca, make_name(0))
    return {**build_registration_request(identity, "ns-0").to_doc(), **changes}


_PROOF_DOC = {"agent_name": make_name(0).render(), "capability": "cap-a", "nonce": "00",
              "capability_signature": "00", "identity_signature": "00"}
HOSTILE_BODIES = {
    "chain-of-numbers": ("POST", "/v1/agents", lambda ca: _registration_doc(ca, chain=[1, 2, 3])),
    "float-endpoint": ("POST", "/v1/agents", lambda ca: _registration_doc(ca, endpoint=1.5)),
    "float-namespace": ("POST", "/v1/agents", lambda ca: _registration_doc(ca, namespace=1.5)),
    "empty-certificates": ("POST", "/v1/admission/validate",
                           lambda ca: {"manifest": {}, "chain": [{}, {}, {}]}),
    "renew-infinite-ts": ("POST", _AGENT_PATH + "/renew",
                          lambda ca: b'{"ts": 1e400, "signature": "00"}'),
    "revoke-infinite-ts": ("DELETE", _AGENT_PATH,
                           lambda ca: b'{"ts": 1e400, "signature": "00"}'),
    "list-agent-name": ("POST", "/v1/attest", lambda ca: {**_PROOF_DOC, "agent_name": []}),
    "float-capability": ("POST", "/v1/attest", lambda ca: {**_PROOF_DOC, "capability": 1.5}),
    "deep-nesting": ("POST", "/v1/agents", lambda ca: b"[" * 100_000),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_BODIES))
def test_hostile_body_is_malformed_not_internal(server, ca, case):
    method, path, make_body = HOSTILE_BODIES[case]
    body = make_body(ca)
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    status, doc = _request_raw(server, method, path, data)
    assert (status, doc["error"]) == (400, "MALFORMED"), doc


_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_JSON = st.one_of(
    st.sampled_from((float("inf"), float("nan"), 2**64)),
    _SCALAR,
    st.recursive(_SCALAR, lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3)), max_leaves=8),
)


def _mutated(draw, doc):
    """``doc`` with one node, at any depth, replaced by random JSON or (in a
    map) removed."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(_JSON)
    if isinstance(doc, list):
        index = draw(st.integers(0, len(doc) - 1))
        return doc[:index] + [_mutated(draw, doc[index])] + doc[index + 1:]
    key = draw(st.sampled_from(sorted(doc)))
    rest = {k: v for k, v in doc.items() if k != key}
    if draw(st.integers(0, 4)) == 0:
        return rest
    return {**rest, key: _mutated(draw, doc[key])}


@pytest.fixture()
def wire_bases(server, rc, ca):
    """A registered agent and, per operation, a well-formed body to mutate."""
    identity, record_doc = _register(server, rc, ca, make_name(0))
    now = server.now()
    challenge = server.challenges.issue(identity.name, now)
    proof = attestation.prove(challenge, identity.capabilities["cap-a"],
                              identity.identity_keys, identity.name, now)
    control = {"ts": now, "signature": "00" * 64}
    manifest = yaml.safe_load(LISTING_MANIFEST_YAML)
    return record_doc["name"], {
        "register": build_registration_request(identity, "ns-0").to_doc(),
        "renew": control,
        "revoke": control,
        "attest": proof.to_doc(),
        "admission": {"manifest": manifest, "chain": identity.chain.to_doc()},
        "challenge": {"name": record_doc["name"]},
    }


@pytest.mark.parametrize("op", ["register", "renew", "revoke", "attest", "admission",
                                "challenge"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_bodies_get_a_closed_vocabulary_error(server, wire_bases, op, data):
    """Whatever a body holds, an operation answers or raises an AnsError
    whose code is not INTERNAL; never a Python error."""
    name_text, bases = wire_bases
    body = _mutated(data.draw, bases[op])
    if not isinstance(body, dict):
        body = {"value": body}
    call = {
        "register": lambda: server.op_register(body),
        "renew": lambda: server.op_renew(name_text, body),
        "revoke": lambda: server.op_revoke(name_text, body),
        "attest": lambda: server.op_attest(body),
        "admission": lambda: server.op_admission(body),
        "challenge": lambda: server.op_challenge(body),
    }[op]
    try:
        call()
    except AnsError as exc:
        assert exc.code != "INTERNAL", exc


# -- resolve ------------------------------------------------------------------------


@pytest.mark.parametrize("length", ["abc", "-1", "99999999999"])
def test_bad_content_length_400_before_reading_body(server, length):
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=1)
    try:
        conn.putrequest("POST", "/v1/agents")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(b"{}")
        response = conn.getresponse()
        doc = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert doc["error"] == "MALFORMED"
    assert "invalid literal" not in doc["message"]


def test_resolve_by_capability(server, rc, ca):
    name = names.parse(
        "a2a://concept-drift-detector.concept-drift-detection.research-lab.v2.1.prod")
    _register(server, rc, ca, name, namespace="mlops-system")
    records = rc.get("/v1/resolve?capability=concept-drift-detection")
    assert [r["name"] for r in records] == [name.render()]


def test_resolve_latest_picks_newest(server, rc, ca):
    import dataclasses

    base = make_name(3, capability="cap-l")
    _register(server, rc, ca, dataclasses.replace(base, version=names.Version(1, 0)))
    _register(server, rc, ca, dataclasses.replace(base, version=names.Version(2, 0)))
    records = rc.get("/v1/resolve?capability=cap-l&version=latest")
    assert {r["name"].split(".v")[1] for r in records} == {"2.0.prod"}


def _raw_resolve(server, params: dict) -> bytes:
    query = urllib.parse.urlencode(params)
    with urllib.request.urlopen(f"{server.url}/v1/resolve?{query}") as response:
        return response.read()


def test_resolve_body_is_canonical_json_of_the_answer(server, rc, ca):
    """The reply joined from cached per-record bytes equals, byte for byte,
    the canonical encoding of the registry's answer, also after a renew and
    a revoke replace records."""
    identities = [
        _register(server, rc, ca, make_name(i, capability="cap-body"), namespace=f"ns-{i}")[0]
        for i in (40, 41, 45)
    ]
    battery = [{"capability": "cap-body"}, {"agent": "agent-041"},
               {"provider": "prov-0", "env": "prod"}, {"version": "latest"}, {"capability": "none"}]

    def check():
        for params in battery:
            expected = server.registry.resolve(query_from_params(params), server.now())
            assert _raw_resolve(server, params) == \
                canonical_json([r.to_doc() for r in expected]).encode()

    check()
    renewed = identities[0].name.render()
    ts = int(time.time())
    signature = identities[0].identity_keys.sign(canonical_bytes(renewal_payload(renewed, ts)))
    rc.post(f"/v1/agents/{urllib.parse.quote(renewed, safe='')}/renew",
            {"ts": ts, "signature": signature.hex()})
    check()
    revoked = identities[1].name.render()
    signature = identities[1].identity_keys.sign(canonical_bytes(revocation_payload(revoked, ts)))
    rc.delete(f"/v1/agents/{urllib.parse.quote(revoked, safe='')}",
              {"ts": ts, "signature": signature.hex()})
    check()
    assert len(json.loads(_raw_resolve(server, {"capability": "cap-body"}))) == 2


def test_restarted_server_serves_logged_bytes_as_canonical_json(server, rc, ca):
    """A server recovered from the log (no snapshot) answers resolves with
    the bytes its records were logged as, and those equal, byte for byte,
    the canonical encoding of its answer."""
    for i in (50, 51, 52):
        _register(server, rc, ca, make_name(i, capability="cap-restart"), namespace=f"ns-{i}")
    restarted = AnsServer(dataclasses.replace(server.config, snapshot_path=None))
    restarted.start()
    try:
        records = restarted.registry.all_records()
        assert len(records) == 3
        assert all("doc_bytes" in vars(r) for r in records)  # set at recovery, not encoded
        for params in ({"capability": "cap-restart"}, {"agent": "agent-051"}):
            expected = restarted.registry.resolve(query_from_params(params), restarted.now())
            assert _raw_resolve(restarted, params) == \
                canonical_json([r.to_doc() for r in expected]).encode()
    finally:
        restarted.shutdown()


def test_resolve_bad_protocol_400(server):
    try:
        urllib.request.urlopen(server.url + "/v1/resolve?protocol=xyz")
        assert False, "should have raised"
    except urllib.error.HTTPError as err:
        assert err.code == 400
        assert json.loads(err.read())["error"] == "INVALID_PROTOCOL"


def test_resolve_bad_version_constraint_400(server):
    try:
        urllib.request.urlopen(server.url + "/v1/resolve?version=not-a-version")
        assert False, "should have raised"
    except urllib.error.HTTPError as err:
        assert err.code == 400
        assert json.loads(err.read())["error"] == "INVALID_NAME"


# More digits than ``int`` converts (4,300 by default).
LONG_NUMBER = "9" * 5_000


def test_register_with_a_version_too_long_to_convert_is_an_invalid_name(server, ca):
    name = f"a2a://agent-000.cap-a.prov-0.v{LONG_NUMBER}.0.prod"
    data = json.dumps(_registration_doc(ca, name=name)).encode()
    status, doc = _request_raw(server, "POST", "/v1/agents", data)
    assert (status, doc["error"]) == (400, "INVALID_NAME"), doc


def test_resolve_with_a_version_too_long_to_convert_is_invalid_version(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"{server.url}/v1/resolve?capability=cap-a&version={LONG_NUMBER}.0")
    assert err.value.code == 400
    assert json.loads(err.value.read())["error"] == "INVALID_VERSION"


# -- renew / revoke ------------------------------------------------------------------


def test_renew_endpoint(server, rc, ca):
    identity, doc = _register(server, rc, ca, make_name(4))
    time.sleep(1.1)  # server clock must advance for expires_at to move
    name_text = doc["name"]
    ts = int(time.time())
    signature = identity.identity_keys.sign(canonical_bytes(renewal_payload(name_text, ts)))
    quoted = urllib.parse.quote(name_text, safe="")
    renewed = rc.post(f"/v1/agents/{quoted}/renew", {"ts": ts, "signature": signature.hex()})
    assert renewed["expires_at"] > doc["expires_at"]


def test_revoke_endpoint_hides_record(server, rc, ca):
    identity, doc = _register(server, rc, ca, make_name(5, capability="cap-rv"))
    name_text = doc["name"]
    ts = int(time.time())
    signature = identity.identity_keys.sign(
        canonical_bytes(revocation_payload(name_text, ts)))
    quoted = urllib.parse.quote(name_text, safe="")
    assert rc.delete(f"/v1/agents/{quoted}", {"ts": ts, "signature": signature.hex()}) == \
        {"revoked": name_text}
    assert rc.get("/v1/resolve?capability=cap-rv") == []


def test_renew_unknown_404(server, rc):
    quoted = urllib.parse.quote(make_name(99).render(), safe="")
    status, body = _post_raw(server, f"/v1/agents/{quoted}/renew",
                             {"ts": int(time.time()), "signature": "00"})
    assert status == 404 and body["error"] == "UNKNOWN_AGENT"


# -- challenge / attest ----------------------------------------------------------------


def _attest_flow(server, rc, ca, capability=None, proof_mutator=None):
    identity, doc = _register(server, rc, ca, make_name(6, capability="cap-att"))
    capability = capability or "cap-att"
    challenge_doc = rc.post("/v1/challenge", {"name": doc["name"]})
    challenge = attestation.Challenge.from_doc(challenge_doc)
    secret = identity.capabilities.get(capability,
                                       identity.capabilities["cap-att"])
    proof = attestation.prove(challenge, secret, identity.identity_keys,
                              identity.name, int(time.time()))
    proof_doc = proof.to_doc()
    if capability != "cap-att":
        proof_doc["capability"] = capability
    if proof_mutator:
        proof_doc = proof_mutator(proof_doc)
    return _post_raw(server, "/v1/attest", proof_doc)


def test_attest_full_flow_granted(server, rc, ca):
    status, body = _attest_flow(server, rc, ca)
    assert status == 200 and body["granted"] is True


def test_attest_replay_401(server, rc, ca):
    identity, doc = _register(server, rc, ca, make_name(7, capability="cap-rp"))
    challenge = attestation.Challenge.from_doc(rc.post("/v1/challenge", {"name": doc["name"]}))
    proof = attestation.prove(challenge, identity.capabilities["cap-rp"],
                              identity.identity_keys, identity.name, int(time.time()))
    first = _post_raw(server, "/v1/attest", proof.to_doc())
    second = _post_raw(server, "/v1/attest", proof.to_doc())
    assert first[0] == 200
    assert second[0] == 401 and second[1]["error"] == "NONCE_REPLAY"


def test_attest_uncommitted_capability_403(server, rc, ca):
    status, body = _attest_flow(server, rc, ca, capability="never-committed")
    assert status == 403 and body["error"] == "CAPABILITY_MISMATCH"


def test_challenge_unknown_agent_404(server):
    status, body = _post_raw(server, "/v1/challenge", {"name": make_name(42).render()})
    assert status == 404 and body["error"] == "UNKNOWN_AGENT"


# -- admission -----------------------------------------------------------------------


def test_admission_reference_manifest_allowed(server, rc, ca):
    doc = yaml.safe_load(LISTING_MANIFEST_YAML)
    name = names.parse(doc["spec"]["ansName"])
    identity = make_identity(ca, name,
                             extra_caps=("statistical-analysis", "alert-generation"))
    result = rc.post("/v1/admission/validate",
                     {"manifest": doc, "chain": identity.chain.to_doc()})
    assert result["allowed"] is True, result["reasons"]


def test_admission_capability_not_listed_denied(server, rc):
    doc = yaml.safe_load(LISTING_MANIFEST_YAML)
    doc["spec"]["capabilities"] = ["statistical-analysis"]
    result = rc.post("/v1/admission/validate", doc)
    assert result["allowed"] is False
    assert any("NAME_MISMATCH" in r for r in result["reasons"])


def test_admission_environment_mismatch_denied(server, rc):
    doc = yaml.safe_load(LISTING_MANIFEST_YAML)
    doc["spec"]["environment"] = "staging"  # name still says .prod
    result = rc.post("/v1/admission/validate", doc)
    assert result["allowed"] is False


def test_admission_schema_violation_400(server):
    status, body = _post_raw(server, "/v1/admission/validate", {"kind": "Agent"})
    assert status == 400 and body["error"] == "MALFORMED"


def test_admission_does_not_mutate_registry(server, rc, ca):
    doc = yaml.safe_load(LISTING_MANIFEST_YAML)
    before = rc.get("/v1/resolve?capability=concept-drift-detection")
    rc.post("/v1/admission/validate", doc)
    after = rc.get("/v1/resolve?capability=concept-drift-detection")
    assert before == after == []


# -- metrics -------------------------------------------------------------------------


def test_metrics_counters_and_monotonicity(server, rc, ca):
    _register(server, rc, ca, make_name(8))
    _, text1 = _get(server, "/v1/metrics")
    assert "registrations_total 1" in text1
    rc.get("/v1/resolve?capability=cap-a")
    _, text2 = _get(server, "/v1/metrics")

    def counters(text):
        return {line.split(" ")[0]: float(line.split(" ")[1])
                for line in text.splitlines() if line and "{" not in line}

    first, second = counters(text1), counters(text2)
    for name, value in first.items():
        if name.endswith("_total"):
            assert second[name] >= value
    assert second["discovery_queries_total"] >= 1


def test_metrics_histogram_counts_operations(server, rc, ca):
    for _ in range(5):
        rc.get("/v1/resolve?capability=cap-z")
    _, text = _get(server, "/v1/metrics")
    line = next(l for l in text.splitlines()
                if l.startswith('operation_latency_ms_count{operation="discovery"}'))
    assert int(line.rsplit(" ", 1)[1]) == 5


# -- error mapping -------------------------------------------------------------------


def test_every_error_code_has_a_status():
    defined = {value for key, value in vars(errors).items()
               if key.isupper() and isinstance(value, str)}
    assert set(STATUS_BY_CODE) == defined == ERROR_CODES
    for code, status in STATUS_BY_CODE.items():
        assert status in (400, 401, 403, 404, 409, 500), code


def test_unknown_route_404(server):
    try:
        urllib.request.urlopen(server.url + "/v1/nope")
        assert False
    except urllib.error.HTTPError as err:
        assert err.code == 404
        assert json.loads(err.read())["error"] == "UNKNOWN_ROUTE"


def test_unexpected_exception_answers_a_bare_500(server, monkeypatch, capsys):
    """An operation that raises something other than ``AnsError`` gets 500
    INTERNAL with a fixed message; the exception's text and its traceback go
    to the server's stderr, never into the reply."""
    def broken(params):
        raise RuntimeError("secret-text")

    monkeypatch.setattr(server, "op_resolve", broken)
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(server.url + "/v1/resolve?capability=cap-a")
    with err.value:
        status, body = err.value.code, err.value.read()
    assert status == 500
    assert json.loads(body) == {"error": "INTERNAL", "message": "Internal Server Error"}
    assert b"secret-text" not in body
    stderr = capsys.readouterr().err
    assert "Traceback" in stderr and "RuntimeError: secret-text" in stderr


# -- register and renew replies ------------------------------------------------------------


def _raw_post(server, path, body: dict) -> tuple[int, bytes]:
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("POST", path, body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_register_and_renew_replies_are_canonical_json_of_the_record(server, ca):
    identity = make_identity(ca, make_name(60))
    status, body = _raw_post(server, "/v1/agents",
                             build_registration_request(identity, "ns-0").to_doc())
    key = identity.name.render()
    stored = server.registry.get_active(key, server.now())
    assert status == 201 and body == canonical_json(stored.to_doc()).encode()
    ts = server.now()
    signature = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, ts)))
    status, body = _raw_post(server, f"/v1/agents/{urllib.parse.quote(key, safe='')}/renew",
                             {"ts": ts, "signature": signature.hex()})
    renewed = server.registry.get_active(key, server.now())
    assert status == 200 and body == canonical_json(renewed.to_doc()).encode()


# -- certificate windows over the wire -------------------------------------------------------


def test_expired_agent_certificate_hidden_on_the_wire(tmp_path, ca, allow_policies):
    """After the agent certificate expires, inside the record's TTL, resolve
    leaves the agent out, /v1/challenge answers 404 and renew CERT_EXPIRED."""
    anchors = tmp_path / "anchors.json"
    anchors.write_text(canonical_json([ca.root_cert.to_doc()]))
    policy = tmp_path / "policy.json"
    policy.write_text(canonical_json(policies_to_doc(allow_policies)))
    clock = [float(NOW)]
    server = AnsServer(ServerConfig(listen="127.0.0.1:0", anchors_path=str(anchors),
                                    policy_path=str(policy), fsync=False),
                       clock=lambda: clock[0])
    server.start()
    rc = RegistryClient(server.url)
    try:
        identity = make_identity(ca, make_name(61, capability="cap-exp"))
        cert = issue_certificate(
            ca.intermediate_keys, ca.intermediate_cert, identity.identity_keys.public_key,
            ROLE_AGENT, 600, subject_name=identity.name,
            commitments=identity.commitments(), now=NOW)
        identity = dataclasses.replace(
            identity, chain=dataclasses.replace(identity.chain, agent=cert))
        rc.post("/v1/agents", build_registration_request(identity, "ns-0").to_doc())
        key = identity.name.render()
        assert [r["name"] for r in rc.get("/v1/resolve?capability=cap-exp")] == [key]

        clock[0] = cert.not_after + 1
        assert rc.get("/v1/resolve?capability=cap-exp") == []
        with pytest.raises(AnsError) as err:
            rc.post("/v1/challenge", {"name": key})
        assert err.value.code == "UNKNOWN_AGENT"
        ts = server.now()
        signature = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, ts)))
        with pytest.raises(AnsError) as err:
            rc.post(f"/v1/agents/{urllib.parse.quote(key, safe='')}/renew",
                    {"ts": ts, "signature": signature.hex()})
        assert err.value.code == "CERT_EXPIRED"
    finally:
        rc.close()
        server.shutdown()


# -- request parsing ----------------------------------------------------------------------

HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def _read_head(fh) -> tuple[int, dict]:
    """A reply's status and headers, reading nothing after the blank line."""
    first = fh.readline()
    assert first.startswith(b"HTTP/1.1 "), first  # a status line, never a bare page
    status = int(first.split()[1])
    headers = {}
    while (line := fh.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


def _read_response(fh) -> tuple[int, dict, bytes]:
    status, headers = _read_head(fh)
    return status, headers, fh.read(int(headers.get("content-length", 0)))


def _headers(count: int) -> bytes:
    return b"".join(b"X-H%d: v\r\n" % i for i in range(count))


# (request bytes, status, connection stays open). Requests the server
# refuses part-way end where it stops reading, so no unread bytes are left
# to turn its close into a reset.
PARSE_CASES = {
    "header-line-too-long": (b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8),
                             431, False),
    "100-headers": (b"GET /v1/healthz HTTP/1.1\r\n" + _headers(100) + b"\r\n", 200, True),
    "101-headers": (b"GET /v1/healthz HTTP/1.1\r\n" + _headers(101), 431, False),
    "request-line-too-long": (b"GET /" + b"a" * 65532, 414, False),
    "http-1.0": (b"GET /v1/healthz HTTP/1.0\r\n\r\n", 200, False),
    "http-1.0-keep-alive": (b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                            200, True),
    "connection-close": (b"GET /v1/healthz HTTP/1.1\r\nConnection: Close\r\n\r\n", 200, False),
    "http-2": (b"GET /v1/healthz HTTP/2.0\r\n", 505, False),
    "bad-version": (b"GET /v1/healthz HTTP/1.x\r\n", 400, False),
    "superscript-version": (b"GET /v1/healthz HTTP/1.\xb2\r\n", 400, False),
    "bad-request-line": (b"GET\r\n", 400, False),
    "http-0.9-post": (b"POST /v1/agents\r\n", 400, False),
    "content-length-conflict": (b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 2\r\n"
                                b"Content-Length: 3\r\n", 400, False),
    "content-length-repeated": (b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 2\r\n"
                                b"content-length: 2\r\n\r\n{}", 400, True),
    "header-case": (b"POST /v1/challenge HTTP/1.1\r\nCONTENT-length: 11\r\n\r\n"
                    b'{"name":""}', 404, True),
    "no-colon": (b"GET /v1/healthz HTTP/1.1\r\nHost x\r\n", 400, False),
    "space-before-colon": (b"GET /v1/healthz HTTP/1.1\r\nHost : x\r\n", 400, False),
    "folded-line": (b"GET /v1/healthz HTTP/1.1\r\nX-A: 1\r\n  2\r\n", 400, False),
    "chunked": (b"POST /v1/challenge HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                400, False),
    "chunked-and-content-length": (b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 4\r\n"
                                   b"Transfer-Encoding: chunked\r\n\r\n", 400, False),
    "unsupported-method": (b"PUT /v1/agents HTTP/1.1\r\n\r\n", 404, False),
    "http-0.9-get": (b"GET /v1/healthz\r\n", 400, False),
}


@pytest.mark.parametrize("request_bytes,status,stays_open", PARSE_CASES.values(),
                         ids=PARSE_CASES.keys())
def test_request_parsing(server, request_bytes, status, stays_open):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request_bytes)
        fh = sock.makefile("rb")
        got, headers, body = _read_response(fh)
        assert got == status
        assert (headers.get("connection") == "close") is not stays_open
        if status != 200:
            assert json.loads(body)["error"] in ERROR_CODES
        if stays_open:
            sock.sendall(HEALTHZ)
            assert _read_response(fh)[::2] == (200, b"ok")
        else:
            assert fh.read(1) == b""


def test_expect_100_continue_gets_interim_reply(server):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 11\r\n"
                     b"Expect: 100-continue\r\n\r\n")
        fh = sock.makefile("rb")
        assert fh.readline() == b"HTTP/1.1 100 Continue\r\n"
        assert fh.readline() == b"\r\n"
        sock.sendall(b'{"name":""}')
        status, _, body = _read_response(fh)
        assert status == 404 and json.loads(body)["error"] == "UNKNOWN_AGENT"


def test_keep_alive_serves_twenty_requests_on_one_connection(server):
    with socket.create_connection(server.address, timeout=5) as sock:
        fh = sock.makefile("rb")
        for _ in range(20):
            sock.sendall(HEALTHZ)
            assert _read_response(fh)[::2] == (200, b"ok")


def test_request_smuggled_behind_transfer_encoding_is_never_answered(server):
    """TE.CL: framed by Transfer-Encoding this is one request; framed by its
    Content-Length, the chunk after the size line is a second request."""
    smuggled = b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n"
    chunk_size = b"%x\r\n" % len(smuggled)
    assert len(chunk_size) == 4
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"POST /v1/challenge HTTP/1.1\r\nHost: x\r\n"
                     b"Transfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n"
                     + chunk_size + smuggled + b"\r\n0\r\n\r\n")
        fh = sock.makefile("rb")
        status, headers, body = _read_response(fh)
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body)["error"] == "MALFORMED"
        assert fh.read() == b""


@pytest.mark.parametrize("request_line", [b"GET /v1/healthz", b"GET /v1/nope",
                                          b"POST /v1/nope", b"DELETE /v1/nope"])
def test_request_smuggled_in_an_unread_body_is_never_answered(server, request_line):
    """CL.0: a route that reads no body must not parse it as a request."""
    smuggled = b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n"
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request_line + b" HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
                     % len(smuggled) + smuggled)
        fh = sock.makefile("rb")
        _, headers, _ = _read_response(fh)
        assert headers["connection"] == "close"
        assert fh.read() == b""


def test_content_length_too_long_to_convert_is_refused_and_nothing_after_it_answered(server):
    """A Content-Length of more digits than ``int`` converts is refused like
    any other bad length, so the request behind it is never answered."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"POST /v1/challenge HTTP/1.1\r\nHost: x\r\nContent-Length: "
                     + b"9" * 5_000 + b"\r\n\r\n" + HEALTHZ)
        fh = sock.makefile("rb")
        status, headers, body = _read_response(fh)
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(body)["error"] == "MALFORMED"
        assert fh.read() == b""


@pytest.mark.parametrize("method", [b"PUT", b"PATCH"])
def test_unsupported_methods_are_unknown_routes(server, method):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(method + b" /v1/healthz HTTP/1.1\r\n\r\n")
        fh = sock.makefile("rb")
        status, _, body = _read_response(fh)
        assert status == 404
        assert json.loads(body)["error"] == "UNKNOWN_ROUTE"
        assert fh.read() == b""


@pytest.mark.parametrize("path", ["/v1/healthz", "/v1/resolve?environment=prod",
                                  "/v1/resolve?bogus=1", "/v1/metrics"])
def test_head_answers_a_get_route_like_get_without_the_body(server, rc, ca, path):
    _register(server, rc, ca)
    with socket.create_connection(server.address, timeout=5) as sock:
        fh = sock.makefile("rb")
        sock.sendall(b"GET %s HTTP/1.1\r\n\r\n" % path.encode())
        get_status, get_headers, _ = _read_response(fh)
        # The HEAD reply is followed at once by the next reply's status line.
        sock.sendall(b"HEAD %s HTTP/1.1\r\n\r\nGET /v1/healthz HTTP/1.1\r\n\r\n"
                     % path.encode())
        status, headers = _read_head(fh)
        assert _read_response(fh)[::2] == (200, b"ok")
    assert (status, headers) == (get_status, get_headers)


@pytest.mark.parametrize("path", ["/v1/nope", "/v1/agents", "/v1/challenge"])
def test_head_on_any_other_path_is_an_unknown_route(server, path):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"HEAD %s HTTP/1.1\r\n\r\n" % path.encode())
        fh = sock.makefile("rb")
        status, headers = _read_head(fh)
        assert status == 404 and headers["connection"] == "close"
        assert fh.read() == b""


def test_clients_that_reset_mid_reply_leave_stderr_empty(server, capfd):
    """A client that pipelines requests and then resets ends its connection
    quietly: no error reply is written to the dead socket, no traceback."""
    threads_before = threading.active_count()
    socks = [socket.create_connection(server.address, timeout=5) for _ in range(3)]
    for sock in socks:
        sock.sendall(b"GET /v1/metrics HTTP/1.1\r\n\r\n" * 50)
    for sock in socks:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
    deadline = time.monotonic() + 5
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads_before
    assert _get(server, "/v1/healthz") == (200, "ok")
    assert capfd.readouterr().err == ""


def test_client_reset_during_a_body_read_gets_no_reply_and_no_traceback(server, capfd,
                                                                         monkeypatch):
    """A client that resets while its request body is being read ends its
    connection with no reply written to the dead socket and no traceback."""
    reading, replies = threading.Event(), []
    read_body, send = _Handler.read_body, _Handler._send
    monkeypatch.setattr(_Handler, "read_body", lambda self: reading.set() or read_body(self))
    monkeypatch.setattr(_Handler, "_send",
                        lambda self, *reply: replies.append(reply[0]) or send(self, *reply))
    threads_before = threading.active_count()
    sock = socket.create_connection(server.address, timeout=5)
    sock.sendall(b'POST /v1/challenge HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"na')
    assert reading.wait(5)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    deadline = time.monotonic() + 5
    while threading.active_count() > threads_before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= threads_before
    assert replies == []
    assert capfd.readouterr().err == ""


def test_an_os_error_of_the_operation_still_answers_500(server, ca, capfd, monkeypatch):
    """An ``OSError`` the operation raises, here a full disk under the event
    log, is a fault of the server: 500 INTERNAL and a traceback on stderr."""
    def full(line):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(server.registry._log, "append_line", full)
    identity = make_identity(ca, make_name(0))
    status, body = _raw_post(server, "/v1/agents",
                             build_registration_request(identity, "ns-0").to_doc())
    assert status == 500
    assert json.loads(body) == {"error": "INTERNAL", "message": "Internal Server Error"}
    stderr = capfd.readouterr().err
    assert "Traceback" in stderr and "No space left on device" in stderr


# -- reply head -----------------------------------------------------------------------

# RFC 9110 §5.6.7: day-name "," SP day SP month SP year SP hour ":" minute ":" second SP "GMT"
IMF_FIXDATE = re.compile(r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
                         r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
                         r"\d\d:\d\d:\d\d GMT")

# (request bytes, whether a 100 Continue comes first, status line, content type,
# connection closes).
HEAD_CASES = {
    "resolve-200": (b"GET /v1/resolve?capability=cap-a HTTP/1.1\r\n\r\n", False,
                    b"HTTP/1.1 200 OK\r\n", "application/json", False),
    "unknown-route-404": (b"GET /v1/nope HTTP/1.1\r\n\r\n", False,
                          b"HTTP/1.1 404 Not Found\r\n", "application/json", True),
    "head-200": (b"HEAD /v1/healthz HTTP/1.1\r\n\r\n", False,
                 b"HTTP/1.1 200 OK\r\n", "text/plain; charset=utf-8", False),
    "bad-version-400": (PARSE_CASES["bad-version"][0], False,
                        b"HTTP/1.1 400 Bad Request\r\n", "application/json", True),
    "100-continue": (b"POST /v1/challenge HTTP/1.1\r\nContent-Length: 11\r\n"
                     b"Expect: 100-continue\r\n\r\n{\"name\":\"\"}", True,
                     b"HTTP/1.1 404 Not Found\r\n", "application/json", False),
}


@pytest.mark.parametrize("request_bytes,interim,status_line,content_type,closes",
                         HEAD_CASES.values(), ids=HEAD_CASES.keys())
def test_reply_head_fields_and_their_order(server, request_bytes, interim, status_line,
                                           content_type, closes):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request_bytes)
        fh = sock.makefile("rb")
        if interim:
            assert fh.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert fh.readline() == b"\r\n"
        assert fh.readline() == status_line
        fields = []
        while (line := fh.readline()) not in (b"\r\n", b""):
            assert line.endswith(b"\r\n")
            name, sep, value = line[:-2].decode("latin-1").partition(": ")
            assert sep
            fields.append((name, value))
    assert [name for name, _ in fields] == (["Server", "Date", "Content-Type", "Content-Length"]
                                            + ["Connection"] * closes)
    values = dict(fields)
    assert values["Server"] == "ans Python/" + platform.python_version()
    assert IMF_FIXDATE.fullmatch(values["Date"]), values["Date"]
    assert values["Content-Type"] == content_type
    assert values["Content-Length"].isdigit()
    assert values.get("Connection", "close") == "close"


def test_the_docstring_lists_the_routes_of_the_table():
    listed = re.findall(r"^ +([A-Z]+) +(/\S+)", ans.server.__doc__, re.MULTILINE)
    assert sorted(listed) == sorted(_ROUTES)


# -- reply framing ---------------------------------------------------------------------


def _route_request(method: str, path: str) -> bytes:
    """A request for a route of the table, with an agent name for ``{name}``
    and, on a route that is not a GET, ``{}`` as its body."""
    path = path.replace("{name}", urllib.parse.quote(make_name(0).render(), safe=""))
    rest = b"\r\n" if method in ("GET", "HEAD") else b"Content-Length: 2\r\n\r\n{}"
    return b"%s %s HTTP/1.1\r\n%s" % (method.encode(), path.encode(), rest)


GET_ROUTES = sorted(path for method, path in _ROUTES if method == "GET")
# (request bytes, the server closes after its reply) for every request shape
# of the tables above, each route of the table, HEAD on each GET route, and
# a method no route has.
FRAMING_CASES = {
    **{f"parse-{name}": (case[0], not case[2]) for name, case in PARSE_CASES.items()},
    **{f"head-{name}": (case[0], case[4]) for name, case in HEAD_CASES.items()},
    **{f"route-{method}-{path}": (_route_request(method, path), False)
       for method, path in _ROUTES},
    **{f"route-HEAD-{path}": (_route_request("HEAD", path), False) for path in GET_ROUTES},
    "unsupported-method": (b"PUT /v1/agents HTTP/1.1\r\n\r\n", True),
}
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _replies(stream: bytes, methods: list[bytes]) -> list[tuple[bytes, dict, bytes]]:
    """A connection's replies as (status line, header fields, body), read in
    the order of the requests' ``methods``. Each body is cut at its
    ``Content-Length`` (nothing after a HEAD), so a length that is off
    leaves bytes where the next status line or the end must be."""
    replies = []
    while stream:
        head, blank, stream = stream.removeprefix(CONTINUE).partition(b"\r\n\r\n")
        status_line, *lines = head.split(b"\r\n")
        assert blank and re.fullmatch(rb"HTTP/1\.1 [2-5]\d\d [A-Za-z -]+", status_line), head
        fields = dict(line.split(b": ", 1) for line in lines)
        length = 0 if methods[len(replies)] == b"HEAD" else int(fields[b"Content-Length"])
        assert len(stream) >= length
        replies.append((status_line, fields, stream[:length]))
        stream = stream[length:]
    return replies


@pytest.mark.parametrize("request_bytes,closes", FRAMING_CASES.values(),
                         ids=FRAMING_CASES.keys())
def test_reply_framing(server, request_bytes, closes):
    """Each request is sent with a healthz probe behind it on one connection
    that the client then half-closes. A HEAD follows the GET of its path.
    There is one reply per request answered, each with one status line and
    a ``Content-Length`` equal to its body's length, or for HEAD to that of
    the GET. A reply carries ``Connection: close`` exactly when the server
    answers nothing after it, and a refusal is the last thing answered."""
    requests = [request_bytes, HEALTHZ]
    if request_bytes.startswith(b"HEAD "):
        requests.insert(0, b"GET" + request_bytes[4:])
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"".join(requests))
        sock.shutdown(socket.SHUT_WR)
        stream = b"".join(iter(lambda: sock.recv(65536), b""))
    replies = _replies(stream, [request.split(b" ", 1)[0] for request in requests])
    assert len(replies) == len(requests) - closes
    for index, (_, fields, _) in enumerate(replies):
        assert (fields.get(b"Connection") == b"close") is (closes and index == len(replies) - 1)
    if len(replies) == len(requests):
        assert replies[-1][::2] == (b"HTTP/1.1 200 OK", b"ok")
    if len(requests) == 3:
        (get_line, get_fields, get_body), (line, fields, _) = replies[:2]
        assert line == get_line and fields[b"Content-Type"] == get_fields[b"Content-Type"]
        assert int(fields[b"Content-Length"]) == len(get_body)


@pytest.mark.parametrize("timestamp", [0, 951782400, 1_700_000_000.9, 4_102_444_799])
def test_date_header_is_the_stdlib_http_date(timestamp):
    assert _http_date(timestamp) == email.utils.formatdate(timestamp, usegmt=True)


# -- serve path imports -----------------------------------------------------------------

# Modules `ansctl serve` never needs: a TLS stack, an e-mail parser, the
# system OpenSSL that `hashlib` loads beside the copy `cryptography` links,
# and `socketserver`, a second accept loop beside `listener.Listener`.
UNUSED_ON_THE_SERVE_PATH = (
    "http.server", "http.client", "ssl", "_ssl", "email", "hashlib", "_hashlib", "hmac",
    "secrets", "cryptography.hazmat.primitives.serialization", "socketserver",
)

_SERVE_PATH_SCRIPT = """
import json, os, socket, sys, tempfile
import ans.cli
from ans.server import AnsServer, ServerConfig

requests = [
    b"GET /v1/healthz HTTP/1.1\\r\\n\\r\\n",
    b"GET /v1/resolve?capability=cap-a HTTP/1.1\\r\\n\\r\\n",
    b'POST /v1/challenge HTTP/1.1\\r\\nContent-Length: 11\\r\\n\\r\\n{"name":""}',
    b"GET /v1/healthz HTTP/1.x\\r\\n\\r\\n",
]
statuses = []
with tempfile.TemporaryDirectory() as tmp:
    server = AnsServer(ServerConfig(listen="127.0.0.1:0", fsync=False,
                                    log_path=os.path.join(tmp, "events.log")))
    server.start()
    try:
        for request in requests:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(request)
                statuses.append(int(sock.makefile("rb").readline().split()[1]))
    finally:
        server.shutdown()
print(json.dumps({"statuses": statuses,
                  "loaded": [m for m in json.loads(sys.argv[1]) if m in sys.modules]}))
"""


def test_serve_path_loads_no_tls_email_or_second_openssl():
    """Importing the CLI, starting a server and answering requests leaves
    these modules unloaded: each costs a server replica memory and start-up."""
    src = pathlib.Path(ans.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _SERVE_PATH_SCRIPT, json.dumps(UNUSED_ON_THE_SERVE_PATH)],
        capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    result = json.loads(out.stdout)
    assert result["statuses"] == [200, 200, 404, 400]
    assert result["loaded"] == []
