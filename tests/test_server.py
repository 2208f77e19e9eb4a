import dataclasses
import http.client
import json
import socket
import time
import urllib.parse
import urllib.request

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from ans import attestation, errors, names
from ans.canonical import canonical_bytes, canonical_json
from ans.client import RegistryClient, build_registration_request
from ans.errors import ERROR_CODES, AnsError
from ans.policy import policies_to_doc
from ans.identity import ROLE_AGENT, issue_certificate
from ans.registry import AgentRecord, renewal_payload, revocation_payload
from ans.server import STATUS_BY_CODE, AnsServer, ServerConfig, query_from_params
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


def _read_response(fh) -> tuple[int, dict, bytes]:
    first = fh.readline()
    assert first.startswith(b"HTTP/1.1 "), first  # a status line, never a bare page
    status = int(first.split()[1])
    headers = {}
    while (line := fh.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
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


@pytest.mark.parametrize("method", [b"PUT", b"PATCH", b"HEAD"])
def test_unsupported_methods_are_unknown_routes(server, method):
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(method + b" /v1/healthz HTTP/1.1\r\n\r\n")
        fh = sock.makefile("rb")
        status, _, body = _read_response(fh)
        assert status == 404
        if method == b"HEAD":
            assert body == b""
        else:
            assert json.loads(body)["error"] == "UNKNOWN_ROUTE"
        assert fh.read() == b""
