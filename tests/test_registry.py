import ast
import copy
import dataclasses
import gc
import json
import os
import pathlib
import random
import sys
import tempfile
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ans import attestation, identity as identity_module, names
from ans import registry as registry_module
from ans.canonical import canonical_bytes, canonical_json
from ans.client import RegistryClient, attest_with, build_registration_request, renew_with
from ans.errors import AnsError
from ans.identity import (
    AGENT_VALIDITY_S,
    ROLE_AGENT,
    Certificate,
    KeyPair,
    issue_certificate,
    window_error,
)
from ans.names import NameQuery, Version, VersionRequirement, matches
from ans.harness import harness_policies
from ans.policy import (
    EvaluationContext,
    PHASE_RUNTIME,
    Policy,
    PolicyRule,
    PolicySubject,
    RuleConditions,
    RuleMatch,
    evaluate,
)
from ans.registry import (
    EVENT_REGISTERED,
    EVENT_RENEWED,
    STATUS_ACTIVE,
    STATUS_REVOKED,
    EventLog,
    RecordDecoder,
    Registry,
    RegistrationRequest,
    RegistryEvent,
    renewal_payload,
    revocation_payload,
)
from ans.server import AnsServer
from conftest import NOW, make_identity, make_name
from genutil import random_label, random_name

A2A_EXAMPLE = "a2a://concept-drift-detector.concept-drift-detection.research-lab.v2.1.prod"


@pytest.fixture()
def registry(allow_policies, ca):
    return Registry(policies=allow_policies, trust_anchors=ca.anchors)


def register(registry, ca, name, namespace="ns-0", now=NOW, extra_caps=("telemetry-export",)):
    identity = make_identity(ca, name, extra_caps=extra_caps)
    record = registry.register(build_registration_request(identity, namespace), now)
    return identity, record


# -- register -------------------------------------------------------------------


def test_register_then_resolve_by_capability(registry, ca):
    name = names.parse(A2A_EXAMPLE)
    register(registry, ca, name, namespace="mlops-system")
    hits = registry.resolve(NameQuery(capability="concept-drift-detection"), NOW)
    assert [r.name.render() for r in hits] == [A2A_EXAMPLE]
    assert hits[0].status == "active"
    assert hits[0].expires_at == NOW + registry.record_ttl_seconds


def test_duplicate_name_different_did_rejected(registry, ca):
    name = make_name(1)
    register(registry, ca, name)
    with pytest.raises(AnsError) as err:
        register(registry, ca, name)  # new identity, same name
    assert err.value.code == "DUPLICATE_AGENT"


def test_same_did_reregistration_replaces(registry, ca):
    name = make_name(2)
    identity, first = register(registry, ca, name)
    # fresh chain, same identity key: certificate rotation
    from ans.client import bootstrap_identity

    ca_setup = ca
    rotated = bootstrap_identity(
        name, identity.endpoint, ("telemetry-export",), ca_setup.intermediate_keys,
        ca_setup.intermediate_cert, ca_setup.root_cert, now=NOW,
        seed=identity.identity_keys.private_key,
    )
    record = registry.register(build_registration_request(rotated, "ns-0"), NOW + 5)
    assert record.did == first.did
    assert record.registered_at == NOW + 5
    assert len(registry.resolve(NameQuery(agent_id=name.agent_id), NOW + 5)) == 1


def test_register_invalid_name_code(registry):
    request = RegistrationRequest(
        name_text="http://a.b.c.v1.0.prod", endpoint="e", namespace="ns-0",
        chain=None, commitments=(), signature=b"")
    request = dataclasses.replace(request, chain=_dummy_chain())
    with pytest.raises(AnsError) as err:
        registry.register(request, NOW)
    assert err.value.code == "INVALID_NAME"


def _dummy_chain():
    from ans.harness import build_ca
    from ans.client import bootstrap_identity

    ca = build_ca(NOW - 60)
    return bootstrap_identity(make_name(0), "e", (), ca.intermediate_keys,
                              ca.intermediate_cert, ca.root_cert, now=NOW).chain


def test_register_tampered_signature(registry, ca):
    identity = make_identity(ca, make_name(3))
    request = build_registration_request(identity, "ns-0")
    bad = dataclasses.replace(request, endpoint=request.endpoint + "/elsewhere")
    with pytest.raises(AnsError) as err:
        registry.register(bad, NOW)
    assert err.value.code == "BAD_SIGNATURE"


def test_register_name_mismatch(registry, ca):
    identity = make_identity(ca, make_name(4))
    request = build_registration_request(identity, "ns-0")
    other = make_name(5).render()
    mismatched = dataclasses.replace(request, name_text=other)
    signature = identity.identity_keys.sign(canonical_bytes(mismatched.signing_payload()))
    mismatched = dataclasses.replace(mismatched, signature=signature)
    with pytest.raises(AnsError) as err:
        registry.register(mismatched, NOW)
    assert err.value.code == "NAME_MISMATCH"


def test_register_policy_denied(ca, allow_policies):
    registry = Registry(policies=allow_policies, trust_anchors=ca.anchors)
    with pytest.raises(AnsError) as err:
        register(registry, ca, make_name(6, env="forbidden"))
    assert err.value.code == "POLICY_DENIED"
    assert "deny-forbidden-env" in err.value.details["explain"]


def test_register_requires_commitment_for_name_capability(registry, ca):
    from ans.attestation import create_capability
    from ans.identity import CertificateChain, issue_certificate, ROLE_AGENT

    name = make_name(7, capability="uncommitted-cap")
    keys = KeyPair.generate()
    _, other_commitment = create_capability("some-other-cap")
    cert = issue_certificate(
        ca.intermediate_keys, ca.intermediate_cert, keys.public_key, ROLE_AGENT,
        86400, subject_name=name, commitments=(other_commitment,), now=NOW)
    chain = CertificateChain(cert, ca.intermediate_cert, ca.root_cert)
    request = RegistrationRequest(
        name_text=name.render(), endpoint="e", namespace="ns-0",
        chain=chain, commitments=cert.capability_commitments)
    request = dataclasses.replace(
        request, signature=keys.sign(canonical_bytes(request.signing_payload())))
    with pytest.raises(AnsError) as err:
        registry.register(request, NOW)
    assert err.value.code == "NAME_MISMATCH"


# -- renew / revoke -----------------------------------------------------------------


def test_renew_extends_expiry(registry, ca):
    identity, record = register(registry, ca, make_name(8))
    later = NOW + 60
    payload = renewal_payload(record.name.render(), later)
    signature = identity.identity_keys.sign(canonical_bytes(payload))
    renewed = registry.renew(record.name.render(), later, signature, later)
    assert renewed.expires_at > record.expires_at


def test_renew_unknown_agent(registry):
    with pytest.raises(AnsError) as err:
        registry.renew(make_name(9).render(), NOW, b"x", NOW)
    assert err.value.code == "UNKNOWN_AGENT"


def test_renew_revoked_record(registry, ca):
    identity, record = register(registry, ca, make_name(10))
    key = record.name.render()
    revoke_sig = identity.identity_keys.sign(
        canonical_bytes(revocation_payload(key, NOW)))
    registry.revoke(key, NOW, revoke_sig, NOW)
    renew_sig = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, NOW)))
    with pytest.raises(AnsError) as err:
        registry.renew(key, NOW, renew_sig, NOW)
    assert err.value.code == "REVOKED"


def test_renew_bad_signature_and_stale_ts(registry, ca):
    identity, record = register(registry, ca, make_name(11))
    key = record.name.render()
    with pytest.raises(AnsError) as err:
        registry.renew(key, NOW, KeyPair.generate().sign(
            canonical_bytes(renewal_payload(key, NOW))), NOW)
    assert err.value.code == "BAD_SIGNATURE"
    stale_ts = NOW - 3600
    good_sig = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, stale_ts)))
    with pytest.raises(AnsError) as err:
        registry.renew(key, stale_ts, good_sig, NOW)
    assert err.value.code == "BAD_SIGNATURE"


def test_self_revoke_hides_record(registry, ca):
    identity, record = register(registry, ca, make_name(12))
    key = record.name.render()
    signature = identity.identity_keys.sign(canonical_bytes(revocation_payload(key, NOW)))
    registry.revoke(key, NOW, signature, NOW)
    assert registry.resolve(NameQuery(agent_id=record.name.agent_id), NOW) == []
    assert registry.audit_index()


def test_revoke_by_issuing_intermediate(registry, ca):
    _, record = register(registry, ca, make_name(13))
    key = record.name.render()
    signature = ca.intermediate_keys.sign(canonical_bytes(revocation_payload(key, NOW)))
    registry.revoke(key, NOW, signature, NOW)
    assert registry.resolve(NameQuery(agent_id=record.name.agent_id), NOW) == []


def test_revoke_unrelated_key_rejected(registry, ca):
    _, record = register(registry, ca, make_name(14))
    key = record.name.render()
    signature = KeyPair.generate().sign(canonical_bytes(revocation_payload(key, NOW)))
    with pytest.raises(AnsError) as err:
        registry.revoke(key, NOW, signature, NOW)
    assert err.value.code == "BAD_SIGNATURE"


# -- resolve ---------------------------------------------------------------------


def test_latest_returns_only_newest_version(registry, ca):
    base = make_name(15, capability="cap-x")
    v1 = dataclasses.replace(base, version=Version(1, 0))
    v2 = dataclasses.replace(base, version=Version(2, 1))
    register(registry, ca, v1)
    register(registry, ca, v2)
    hits = registry.resolve(
        NameQuery(capability="cap-x", version_req=VersionRequirement.latest()), NOW)
    assert [r.name.version for r in hits] == [Version(2, 1)]
    both = registry.resolve(NameQuery(capability="cap-x"), NOW)
    assert [r.name.version for r in both] == [Version(2, 1), Version(1, 0)]


def test_expired_record_excluded_then_swept(registry, ca):
    _, record = register(registry, ca, make_name(16))
    after_expiry = record.expires_at + 1
    assert registry.resolve(NameQuery(agent_id=record.name.agent_id), after_expiry) == []
    assert registry.sweep_expired(NOW) == 0  # nothing expired yet at NOW
    assert registry.sweep_expired(after_expiry) == 1
    assert registry.sweep_expired(after_expiry) == 0  # idempotent
    assert registry.audit_index()


def test_resolve_empty_when_nothing_matches(registry):
    assert registry.resolve(NameQuery(capability="nobody-has-this"), NOW) == []


def test_resolve_orders_by_version_desc_then_name(registry, ca):
    for i, (minor, agent) in enumerate([(0, "bbb"), (2, "aaa"), (2, "bbb"), (1, "ccc")]):
        name = names.AnsName("a2a", agent + f"-{i}", "cap-sort", "prov-0",
                             Version(1, minor), "prod")
        register(registry, ca, name)
    hits = registry.resolve(NameQuery(capability="cap-sort"), NOW)
    keys = [(r.name.version.sort_key(), r.name.render()) for r in hits]
    assert keys == sorted(keys, key=lambda kv: (tuple(-x for x in kv[0]), kv[1]))


LATEST = VersionRequirement.latest()


@pytest.mark.parametrize("agents,latest", [
    # one group holding v1.2 and v1.2.0, which order as equal: both stay, in name order
    ([("a2a", "twin", Version(1, 2)), ("a2a", "twin", Version(1, 2, 0)),
      ("a2a", "twin", Version(1, 1, 9))],
     ["a2a://twin.cap-order.prov-0.v1.2.0.prod", "a2a://twin.cap-order.prov-0.v1.2.prod"]),
    # v1.10 is newer than v1.9, although its text sorts first
    ([("a2a", "tens", Version(1, 9)), ("a2a", "tens", Version(1, 10))],
     ["a2a://tens.cap-order.prov-0.v1.10.prod"]),
    # one agent under several protocols is one group
    ([("a2a", "both", Version(1, 0)), ("mcp", "both", Version(2, 0)),
      ("mcp", "both", Version(1, 0)), ("acp", "both", Version(2, 0, 0))],
     ["acp://both.cap-order.prov-0.v2.0.0.prod", "mcp://both.cap-order.prov-0.v2.0.prod"]),
], ids=["two-and-three-parts", "ten-after-nine", "protocols"])
def test_latest_where_version_text_and_order_differ(registry, ca, agents, latest):
    for protocol, agent_id, version in agents:
        register(registry, ca, names.AnsName(protocol, agent_id, "cap-order", "prov-0",
                                             version, "prod"))
    for req in (None, LATEST):
        query = NameQuery(capability="cap-order", version_req=req)
        assert registry.resolve(query, NOW) == _oracle_resolve(registry, query, NOW)
    query = NameQuery(capability="cap-order", version_req=LATEST)
    assert [r.name.render() for r in registry.resolve(query, NOW)] == latest


def _oracle_resolve(registry, query, now):
    """Independent linear scan using only public contracts."""
    out = []
    for record in registry.all_records():
        if record.status != "active" or now > record.expires_at:
            continue
        certs = (record.chain.agent, record.chain.intermediate, record.chain.root)
        if not all(c.not_before <= now <= c.not_after for c in certs):
            continue
        if not matches(record.name, query):
            continue
        ctx = EvaluationContext(Registry._subject_from_record(record), PHASE_RUNTIME, now)
        if not evaluate(ctx, registry.policies).allowed:
            continue
        out.append(record)
    if query.version_req is not None and query.version_req.kind == "latest":
        groups = {}
        for record in out:
            key = (record.name.agent_id, record.name.capability,
                   record.name.provider, record.name.extension)
            groups.setdefault(key, []).append(record)
        kept = []
        for members in groups.values():
            top = max(m.name.version.sort_key() for m in members)
            kept.extend(m for m in members if m.name.version.sort_key() == top)
        out = kept
    out.sort(key=lambda r: (tuple(-v for v in r.name.version.sort_key()), r.name.render()))
    return out


def test_resolve_matches_linear_scan_oracle(ca, allow_policies):
    rng = random.Random(43)
    registry = Registry(policies=allow_policies, trust_anchors=ca.anchors)
    identities = {}
    for i in range(120):
        name = names.AnsName(
            protocol=rng.choice(("a2a", "mcp", "acp")),
            agent_id=f"oracle-{i:03d}",
            capability=f"cap-{rng.randrange(6)}",
            provider=f"prov-{rng.randrange(4)}",
            version=Version(rng.randrange(3), rng.randrange(3),
                            rng.choice((None, 0, 1))),
            extension=rng.choice(("prod", "staging")),
        )
        identity, record = register(registry, ca, name, namespace=f"ns-{rng.randrange(5)}")
        identities[record.name.render()] = identity
    # revoke a few, expire nothing (fixed clock)
    for key in rng.sample(sorted(identities), 10):
        sig = identities[key].identity_keys.sign(
            canonical_bytes(revocation_payload(key, NOW)))
        registry.revoke(key, NOW, sig, NOW)

    assert registry.audit_index()
    for _ in range(300):
        fields = {}
        if rng.random() < 0.7:
            fields["capability"] = f"cap-{rng.randrange(6)}"
        if rng.random() < 0.3:
            fields["provider"] = f"prov-{rng.randrange(4)}"
        if rng.random() < 0.3:
            fields["protocol"] = rng.choice(("a2a", "mcp", "acp"))
        if rng.random() < 0.2:
            fields["extension"] = rng.choice(("prod", "staging"))
        if rng.random() < 0.4:
            fields["version_req"] = rng.choice((
                VersionRequirement.latest(),
                VersionRequirement.at_least(Version(1, 0)),
                VersionRequirement.exact(Version(2, 1)),
            ))
        if not fields:
            fields["capability"] = "cap-0"
        query = NameQuery(**fields)
        assert registry.resolve(query, NOW) == _oracle_resolve(registry, query, NOW)


SHORT_VALIDITY_S = 30 * 86400


def _policy_sets():
    """Three sets for swapping: allow everything; a narrow set that denies
    provider prov-1 and namespace ns-4 and allows only prod agents whose
    certificate is valid for at most SHORT_VALIDITY_S; and allow everything
    but the mcp protocol."""
    narrow = Policy(id="narrow", description="few agents pass", rules=(
        PolicyRule(id="deny-prov-1", effect="deny", match=RuleMatch(provider="prov-1")),
        PolicyRule(id="deny-ns-4", effect="deny", match=RuleMatch(namespace="ns-4")),
        PolicyRule(id="short-lived-prod", effect="allow", conditions=RuleConditions(
            allowed_environments=("prod",), max_cert_validity_seconds=SHORT_VALIDITY_S)),
    ))
    no_mcp = PolicyRule(id="deny-mcp", effect="deny", match=RuleMatch(protocol="mcp"))
    return [harness_policies(), [narrow], harness_policies(extra_rules=(no_mcp,))]


def _lifecycle_step(registry, ca, rng, pool, identities, policy_sets, now):
    """One random write, policy swap or sweep. ``identities`` maps name text
    to the identity that registered it."""
    action = rng.random()
    try:
        if action < 0.35 or not identities:
            name = rng.choice(pool)
            key = name.render()
            namespace = f"ns-{rng.randrange(5)}"
            if key in identities:  # rotation, perhaps to a short-lived certificate
                validity = rng.choice((AGENT_VALIDITY_S, SHORT_VALIDITY_S))
                identity = _rotated(ca, identities[key], now, validity)
            else:
                identity = make_identity(ca, name, now=now)
            registry.register(build_registration_request(identity, namespace), now)
            identities[key] = identity
        elif action < 0.55:
            key = rng.choice(sorted(identities))
            sig = identities[key].identity_keys.sign(canonical_bytes(renewal_payload(key, now)))
            registry.renew(key, now, sig, now)
        elif action < 0.65:
            key = rng.choice(sorted(identities))
            sig = identities[key].identity_keys.sign(
                canonical_bytes(revocation_payload(key, now)))
            registry.revoke(key, now, sig, now)
        elif action < 0.8:
            registry.set_policies(rng.choice(policy_sets))
        elif action < 0.9:
            registry.sweep_expired(now)
    except AnsError as exc:
        # admission under a narrow set, renewing a revoked record or one
        # whose certificate window excludes the clock, or a control message
        # for a record the sweep removed
        assert exc.code in ("POLICY_DENIED", "REVOKED", "UNKNOWN_AGENT",
                            "CERT_EXPIRED", "CERT_NOT_YET_VALID"), exc


# Latest end of an agent certificate the lifecycle clock jumps to, so every
# certificate issued afterwards still fits inside the intermediate's year.
JUMP_LIMIT_S = 250 * 86400


def _move_clock(registry, rng, identities, now):
    """The next lifecycle clock: mostly a small step forward; sometimes a
    step back, so certificates issued in the last minutes are seen before
    their ``not_before``; sometimes a jump to shortly before the end of a 30-
    or 90-day agent certificate, where every record whose certificates allow
    it renews, so later small steps carry a record still inside its TTL past
    its certificate's ``not_after``."""
    move = rng.random()
    if move < 0.08:
        return max(NOW, now - rng.choice((60, 300, 1200)))
    ends: dict[int, list[int]] = {}  # validity -> ends, so 30-day ones get jumps too
    for record in registry.all_records():
        agent = record.chain.agent
        if record.status == "active" and agent.not_after <= NOW + JUMP_LIMIT_S:
            ends.setdefault(agent.not_after - agent.not_before, []).append(agent.not_after)
    if move < 0.14 and ends:
        now = rng.choice(ends[rng.choice(sorted(ends))]) - rng.randrange(0, 600)
        for record in registry.all_records():
            key = record.name.render()
            if record.status == "active" and window_error(record.chain, now) is None:
                sig = identities[key].identity_keys.sign(
                    canonical_bytes(renewal_payload(key, now)))
                registry.renew(key, now, sig, now)
        return now
    return now + rng.choice((0, 10, 60, 300))


def test_resolve_matches_oracle_through_lifecycle_and_policy_swaps(ca):
    """Posting lists, memoized runtime verdicts and the answer cache answer
    exactly as a linear scan does while records are renewed, rotated,
    revoked, expire and are swept, while the policy set is swapped, and while
    the clock jumps across 30- and 90-day certificate windows and steps back
    before certificates begin: after every step, every query kind (one field,
    two fields, none) equals the oracle. Some steps write nothing, so cached
    answers meet a moved clock."""
    rng = random.Random(62)
    policy_sets = _policy_sets()
    registry = Registry(policies=policy_sets[0], trust_anchors=ca.anchors,
                        record_ttl_seconds=3600)
    pool = [
        names.AnsName(
            protocol=rng.choice(("a2a", "mcp")),
            agent_id=f"life-{i:02d}",
            capability=f"cap-{rng.randrange(4)}",
            provider=f"prov-{rng.randrange(3)}",
            version=Version(1, rng.randrange(3)),
            extension=rng.choice(("prod", "staging")),
        )
        for i in range(24)
    ]
    every = NameQuery(version_req=VersionRequirement.at_least(Version(0, 0)))
    identities = {name.render(): register(registry, ca, name)[0] for name in pool}
    now = NOW
    hits = denied = expired = before_cert = 0
    past_cert = {SHORT_VALIDITY_S: 0, AGENT_VALIDITY_S: 0}
    for step in range(300):
        now = _move_clock(registry, rng, identities, now)  # TTL: about 40 small steps
        if rng.random() < 0.75:
            _lifecycle_step(registry, ca, rng, pool, identities, policy_sets, now)
        assert registry.audit_index(), step
        queries = [NameQuery(agent_id=n.agent_id) for n in rng.sample(pool, 3)]
        queries += [NameQuery(provider=f"prov-{p}", extension=env)
                    for p in range(3) for env in ("prod", "staging")]
        queries += [NameQuery(capability=f"cap-{c}") for c in range(4)]
        queries += [NameQuery(protocol="mcp"), every,
                    NameQuery(capability="cap-0", version_req=VersionRequirement.latest())]
        for query in queries:
            answer = registry.resolve(query, now)
            assert answer == _oracle_resolve(registry, query, now), (step, query)
            hits += len(answer)
        denied += len(registry.active_records(now)) - len(registry.resolve(every, now))
        for r in registry.all_records():
            if r.status != "active":
                continue
            agent = r.chain.agent
            expired += now > r.expires_at
            if now <= r.expires_at and now > agent.not_after:
                past_cert[agent.not_after - agent.not_before] += 1
            before_cert += now <= r.expires_at and now < agent.not_before
    # none of them vacuous: hits, policy denials, TTL expiry, and records
    # inside their TTL but past a 30- or 90-day certificate or before one
    assert hits > 3000 and denied > 200 and expired > 100, (hits, denied, expired)
    assert min(past_cert.values()) > 5 and before_cert > 20, (past_cert, before_cert)


def test_runtime_verdicts_follow_policy_swaps_and_writes(ca):
    evaluations = []
    registry = Registry(policies=harness_policies(), trust_anchors=ca.anchors,
                        observe=lambda op, ms: evaluations.append(op))
    identity, record = register(registry, ca, make_name(30, capability="cap-memo"))
    query = NameQuery(capability="cap-memo")
    assert registry.resolve(query, NOW) == [record]
    evaluations.clear()
    assert registry.resolve(query, NOW) == [record]
    assert "policy_eval" not in evaluations  # the verdict is memoized

    registry.set_policies(_policy_sets()[1])  # denies a 90-day certificate at once
    assert registry.resolve(query, NOW) == []
    rotated = _rotated(ca, identity, NOW, SHORT_VALIDITY_S)
    short = registry.register(build_registration_request(rotated, "ns-0"), NOW)
    assert registry.resolve(query, NOW) == [short]  # a new record, a new verdict

    key = short.name.render()
    sig = rotated.identity_keys.sign(canonical_bytes(renewal_payload(key, NOW + 1)))
    renewed = registry.renew(key, NOW + 1, sig, NOW + 1)
    assert registry.resolve(query, NOW + 1) == [renewed]
    registry.set_policies([])  # default deny
    assert registry.resolve(query, NOW + 1) == []
    sig = rotated.identity_keys.sign(canonical_bytes(revocation_payload(key, NOW + 1)))
    registry.revoke(key, NOW + 1, sig, NOW + 1)
    registry.set_policies(harness_policies())
    assert registry.resolve(query, NOW + 1) == []
    assert registry.audit_index()


def test_runtime_verdict_does_not_depend_on_the_clock():
    """The verdict memo relies on runtime evaluation being a function of the
    subject and the policy set alone."""
    rng = random.Random(67)
    policy_sets = _policy_sets()
    for _ in range(300):
        capability = rng.choice(("cap-0", "admin-x", "cap-1"))
        subject = PolicySubject(
            protocol=rng.choice(("a2a", "mcp")), agent_id="clock", capability=capability,
            capabilities=(capability, "telemetry-export"),
            provider=f"prov-{rng.randrange(3)}",
            environment=rng.choice(("prod", "staging", "forbidden")),
            namespace=f"ns-{rng.randrange(5)}",
            cert_validity_seconds=rng.choice((SHORT_VALIDITY_S, AGENT_VALIDITY_S, 200 * 86400)),
        )
        policies = rng.choice(policy_sets)
        decisions = {evaluate(EvaluationContext(subject, PHASE_RUNTIME, now), policies)
                     for now in (0, NOW, NOW + AGENT_VALIDITY_S, 2 ** 40)}
        assert len(decisions) == 1


def test_audit_index_detects_a_stale_posting(registry, ca):
    _, record = register(registry, ca, make_name(31, capability="cap-audit"))
    assert registry.audit_index()
    registry._postings["provider"][record.name.provider].discard(record.name.render())
    assert not registry.audit_index()


# -- persistence -------------------------------------------------------------------


def _file_registry(tmp_path, allow_policies, ca, name="events.log"):
    return Registry.recover(
        policies=allow_policies, trust_anchors=ca.anchors,
        log_path=str(tmp_path / name), fsync=False,
    )


def test_snapshot_plus_suffix_recovery(tmp_path, allow_policies, ca):
    log_path = str(tmp_path / "events.log")
    snap_path = str(tmp_path / "snapshot.json")
    registry = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                log_path=log_path, fsync=False)
    for i in range(10):
        register(registry, ca, make_name(i, capability="cap-recover"))
    registry.write_snapshot(snap_path)
    for i in range(10, 15):
        register(registry, ca, make_name(i, capability="cap-recover"))
    registry.close()

    recovered = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                 log_path=log_path, snapshot_path=snap_path, fsync=False)
    hits = recovered.resolve(NameQuery(capability="cap-recover"), NOW)
    assert len(hits) == 15
    assert recovered.last_seq == registry.last_seq
    assert recovered.audit_index()


def test_empty_log_empty_state(tmp_path, allow_policies, ca):
    registry = _file_registry(tmp_path, allow_policies, ca)
    assert registry.all_records() == []
    assert registry.last_seq == 0


def test_seq_gap_detected(tmp_path, allow_policies, ca):
    log_path = tmp_path / "events.log"
    registry = _file_registry(tmp_path, allow_policies, ca)
    for i in range(3):
        register(registry, ca, make_name(i))
    registry.close()
    lines = log_path.read_text().strip().splitlines()
    log_path.write_text("\n".join([lines[0], lines[2]]) + "\n")  # drop seq 2
    with pytest.raises(AnsError) as err:
        Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                         log_path=str(log_path))
    assert err.value.code == "LOG_CORRUPT"
    assert err.value.details["last_good_seq"] == 1


def test_unparseable_line_detected(tmp_path, allow_policies, ca):
    log_path = tmp_path / "events.log"
    registry = _file_registry(tmp_path, allow_policies, ca)
    register(registry, ca, make_name(0))
    registry.close()
    with open(log_path, "a") as fh:
        fh.write("{this is not json\n")
    with pytest.raises(AnsError) as err:
        Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                         log_path=str(log_path))
    assert err.value.code == "LOG_CORRUPT"
    assert err.value.details["last_good_seq"] == 1


MALFORMED_EVENTS = {
    "registered-empty": {"kind": "Registered", "payload": {}},
    "registered-bad-name": {"kind": "Registered", "payload": {"record": {"name": "x"}}},
    "renewed-unknown": {"kind": "Renewed", "payload": {
        "name": make_name(98).render(), "expires_at": NOW}},
    "renewed-not-a-map": {"kind": "Renewed", "payload": []},
    "revoked-unknown": {"kind": "Revoked", "payload": {"name": make_name(98).render()}},
    "unknown-kind": {"kind": "Renamed", "payload": {}},
}


@pytest.mark.parametrize("event", MALFORMED_EVENTS.values(), ids=MALFORMED_EVENTS.keys())
def test_malformed_event_payload_detected(tmp_path, allow_policies, ca, event):
    log_path = tmp_path / "events.log"
    registry = _file_registry(tmp_path, allow_policies, ca)
    register(registry, ca, make_name(0))
    registry.close()
    with open(log_path, "a") as fh:
        fh.write(canonical_json({"seq": 2, "at": NOW, **event}) + "\n")
    with pytest.raises(AnsError) as err:
        Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                         log_path=str(log_path))
    assert err.value.code == "LOG_CORRUPT"
    assert err.value.details == {"last_good_seq": 1, "line": 2}


def test_malformed_first_event_detected(tmp_path, allow_policies, ca):
    log_path = tmp_path / "events.log"
    log_path.write_text('{"seq":1,"kind":"Registered","payload":{},"at":1}\n')
    with pytest.raises(AnsError) as err:
        Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                         log_path=str(log_path))
    assert err.value.code == "LOG_CORRUPT"
    assert err.value.details == {"last_good_seq": 0, "line": 1}


def _sweep_answers(registry, now):
    battery = [NameQuery(capability=f"cap-{i}") for i in range(6)]
    battery += [NameQuery(capability=f"cap-{i}", version_req=VersionRequirement.latest())
                for i in range(6)]
    battery += [NameQuery(provider=f"prov-{i}") for i in range(4)]
    return canonical_json([[r.to_doc() for r in registry.resolve(q, now)] for q in battery])


def _rotated(ca, identity, now, validity=AGENT_VALIDITY_S):
    """The same agent and identity key under a freshly issued certificate."""
    cert = issue_certificate(
        ca.intermediate_keys, ca.intermediate_cert, identity.identity_keys.public_key,
        ROLE_AGENT, validity, subject_name=identity.name,
        commitments=identity.commitments(), now=now,
    )
    return dataclasses.replace(identity, chain=dataclasses.replace(identity.chain, agent=cert))


def _random_step(registry, ca, rng, identities, now):
    """One random register, certificate-rotation re-register, renew or revoke."""
    action = rng.random()
    if action < 0.6 or not identities:
        i = rng.randrange(40)
        name = make_name(i, capability=f"cap-{i % 6}")
        key = name.render()
        if key in identities:
            identities[key] = _rotated(ca, identities[key], now)
            registry.register(build_registration_request(identities[key], "ns-0"), now)
        else:
            identity, _ = register(registry, ca, name, now=now)
            identities[key] = identity
    elif action < 0.8:
        key = rng.choice(sorted(identities))
        sig = identities[key].identity_keys.sign(
            canonical_bytes(renewal_payload(key, now)))
        try:
            registry.renew(key, now, sig, now)
        except AnsError as exc:
            assert exc.code == "REVOKED"
    else:
        key = rng.choice(sorted(identities))
        sig = identities[key].identity_keys.sign(
            canonical_bytes(revocation_payload(key, now)))
        registry.revoke(key, now, sig, now)


def test_recovery_observational_equivalence_random_sequences(tmp_path, allow_policies, ca):
    rng = random.Random(47)
    for case in range(15):
        log_path = str(tmp_path / f"events-{case}.log")
        registry = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                    log_path=log_path, fsync=False)
        identities = {}
        now = NOW
        for _ in range(rng.randrange(5, 25)):
            now += rng.randrange(0, 30)
            _random_step(registry, ca, rng, identities, now)
        live = _sweep_answers(registry, now)
        registry.close()
        recovered = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                     log_path=log_path, fsync=False)
        assert _sweep_answers(recovered, now) == live
        assert recovered.audit_index()


def test_snapshot_plus_suffix_matches_full_log(tmp_path, allow_policies, ca):
    rng = random.Random(53)
    for case in range(8):
        log_path = str(tmp_path / f"events-{case}.log")
        snap_path = str(tmp_path / f"snapshot-{case}.json")
        registry = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                    log_path=log_path, fsync=False)
        identities = {}
        now = NOW
        steps = rng.randrange(10, 30)
        cut = rng.randrange(steps)
        for step in range(steps):
            now += rng.randrange(0, 30)
            _random_step(registry, ca, rng, identities, now)
            if step == cut:
                registry.write_snapshot(snap_path)
        registry.close()
        full = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                log_path=log_path, fsync=False)
        full.close()
        resumed = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                   log_path=log_path, snapshot_path=snap_path, fsync=False)
        resumed.close()
        assert resumed.last_seq == full.last_seq == registry.last_seq
        assert ({r.name.render(): r for r in resumed.all_records()}
                == {r.name.render(): r for r in full.all_records()})
        assert _sweep_answers(resumed, now) == _sweep_answers(full, now)
        assert resumed.audit_index()


def _state(registry):
    docs = sorted((r.to_doc() for r in registry.all_records()), key=lambda d: d["name"])
    return registry.last_seq, canonical_json(docs)


def test_torn_final_append_recovers_prefix_at_every_byte(tmp_path, allow_policies, ca, capsys):
    def request(i):
        identity = make_identity(ca, make_name(i, capability=f"cap-{i}"), extra_caps=())
        return build_registration_request(identity, "ns-0")

    first, last, after = request(0), request(1), request(2)
    # Reference logs: the prefix plus the append that gets torn, and the
    # prefix plus the append made after recovering from the tear.
    expected = {}
    for label, requests in (("torn", (first, last)), ("repaired", (first, after))):
        registry = _file_registry(tmp_path, allow_policies, ca, name=f"{label}.log")
        for req in requests:
            registry.register(req, NOW)
        registry.close()
        expected[label] = (tmp_path / f"{label}.log").read_bytes()
    prefix = expected["torn"][:expected["torn"].index(b"\n") + 1]
    assert expected["repaired"].startswith(prefix)
    prefix_registry = _file_registry(tmp_path, allow_policies, ca, name="prefix.log")
    prefix_registry.register(first, NOW)
    prefix_state = _state(prefix_registry)
    prefix_registry.close()
    repaired_state = _state(_file_registry(tmp_path, allow_policies, ca, name="repaired.log"))

    log_path = tmp_path / "events.log"
    for cut in range(len(prefix), len(expected["torn"])):
        log_path.write_bytes(expected["torn"][:cut])
        capsys.readouterr()
        registry = _file_registry(tmp_path, allow_policies, ca)
        assert _state(registry) == prefix_state, cut
        err = capsys.readouterr().err
        if cut > len(prefix):
            assert f"at offset {len(prefix)}" in err, (cut, err)
        else:
            assert err == ""
        registry.register(after, NOW)
        registry.close()
        assert log_path.read_bytes() == expected["repaired"], cut
        recovered = _file_registry(tmp_path, allow_policies, ca)
        assert _state(recovered) == repaired_state, cut
        recovered.close()


def test_torn_tail_is_not_read_as_an_event(tmp_path, allow_policies, ca):
    log_path = tmp_path / "events.log"
    registry = _file_registry(tmp_path, allow_policies, ca)
    register(registry, ca, make_name(0))
    registry.close()
    whole = log_path.read_bytes()
    torn = whole.rstrip(b"\n").replace(b'"seq":1', b'"seq":2')  # complete, unterminated
    with open(log_path, "ab") as fh:
        fh.write(torn)
    assert [e.seq for _, e, _ in EventLog.read_numbered(str(log_path))] == [1]
    assert log_path.read_bytes() == whole + torn  # reading alone never cuts the file


# -- decode once -------------------------------------------------------------------


def _record_docs(registry, ca, count):
    return [register(registry, ca, make_name(i))[1].to_doc() for i in range(count)]


def test_recovered_records_share_issuer_certificates(tmp_path, allow_policies, ca):
    registry = _file_registry(tmp_path, allow_policies, ca)
    _record_docs(registry, ca, 4)
    registry.close()
    records = _file_registry(tmp_path, allow_policies, ca).all_records()
    assert len(records) == 4
    for record in records:
        assert record.chain.intermediate is records[0].chain.intermediate
        assert record.chain.root is records[0].chain.root
        assert record.chain.agent.subject_name is record.name
        assert record.chain.agent.capability_commitments is record.commitments


def test_decoder_decodes_differing_documents_separately(registry, ca):
    docs = _record_docs(registry, ca, 3)
    decoder = RecordDecoder()
    shared = decoder.record(docs[0]).chain

    tampered = copy.deepcopy(docs[1])
    tampered["chain"][1]["serial"] += 1  # same signature text, different document
    record = decoder.record(tampered)
    assert record.chain.intermediate is not shared.intermediate
    assert record.chain.intermediate == Certificate.from_doc(tampered["chain"][1])
    assert record.chain.root is shared.root

    renamed = copy.deepcopy(docs[2])
    other = make_name(99).render()
    renamed["chain"][0]["subject_name"] = other
    renamed["chain"][0]["capability_commitments"] = renamed["commitments"][:1]
    record = decoder.record(renamed)
    assert record.chain.agent.subject_name == names.parse(other) != record.name
    assert record.chain.agent.capability_commitments == record.commitments[:1]
    assert record.chain.agent == Certificate.from_doc(renamed["chain"][0])

    assert decoder.record(docs[0]) == RecordDecoder().record(docs[0])


def test_record_doc_roundtrip(registry, ca):
    _, record = register(registry, ca, make_name(17))
    from ans.registry import AgentRecord

    assert AgentRecord.from_doc(record.to_doc()) == record


# -- malformed snapshots ---------------------------------------------------------------


def test_malformed_snapshot_is_log_corrupt(tmp_path, allow_policies, ca, registry):
    """A snapshot without records, with a record that has no name, or that is
    not a map at all stops recovery with LOG_CORRUPT, not a bare exception."""
    register(registry, ca, make_name(0))
    nameless = registry.snapshot_doc()
    del nameless["records"][0]["name"]
    for doc in ({"last_seq": 1}, nameless, []):
        snapshot = tmp_path / "snapshot.json"
        snapshot.write_text(canonical_json(doc))
        with pytest.raises(AnsError) as err:
            Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                             snapshot_path=str(snapshot))
        assert err.value.code == "LOG_CORRUPT", doc


# -- certificate windows -----------------------------------------------------------------


def test_expired_certificate_is_hidden_and_not_renewable(registry, ca):
    """Once the agent certificate has expired but the record's TTL has not,
    the record neither resolves nor counts as active, and renew answers
    CERT_EXPIRED."""
    identity = _rotated(ca, make_identity(ca, make_name(50)), NOW, validity=600)
    record = registry.register(build_registration_request(identity, "ns-0"), NOW)
    key = record.name.render()
    expired = identity.chain.agent.not_after + 1
    assert expired < record.expires_at
    query = NameQuery(agent_id=record.name.agent_id)
    assert registry.resolve(query, expired - 1) == [record]
    assert registry.resolve(query, expired) == []
    assert registry.get_active(key, expired) is None
    assert registry.active_records(expired) == []
    # Before the certificate's own window opens, the record is hidden too.
    assert registry.resolve(query, identity.chain.agent.not_before - 1) == []
    signature = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, expired)))
    with pytest.raises(AnsError) as err:
        registry.renew(key, expired, signature, expired)
    assert err.value.code == "CERT_EXPIRED"


# -- the verified-certificate memo ----------------------------------------------------------


@pytest.fixture()
def verifies(monkeypatch):
    """Counts Ed25519 verifies by every module that calls ``verify_signature``."""
    calls = []
    real = identity_module.verify_signature

    def counting(public_key, signature, message):
        calls.append(public_key)
        return real(public_key, signature, message)

    for module in (identity_module, registry_module, attestation):
        monkeypatch.setattr(module, "verify_signature", counting)
    return calls


def _attest(registry, identity, verified):
    store = attestation.ChallengeStore()
    record = registry.get_active(identity.name.render(), NOW)
    capability = identity.name.capability
    proof = attestation.prove(store.issue(identity.name, NOW), identity.capabilities[capability],
                              identity.identity_keys, identity.name, NOW)
    commitment = next(c for c in record.commitments if c.capability == capability)
    return attestation.verify(proof, commitment, record.chain, registry.trust_anchors,
                              store, NOW, verified)


def test_memo_verify_counts(registry, ca, verifies):
    """A rotated certificate costs 2 Ed25519 verifies to register (its own
    signature and the request's), down from 4; attesting a record registered
    by this process costs 2 (the proof's), down from 5."""
    identity, _ = register(registry, ca, make_name(51))
    assert len(verifies) == 4
    for _ in range(3):
        identity = _rotated(ca, identity, NOW)
        verifies.clear()
        registry.register(build_registration_request(identity, "ns-0"), NOW)
        assert len(verifies) == 2
    verifies.clear()
    assert _attest(registry, identity, None).granted
    assert len(verifies) == 5
    verifies.clear()
    assert _attest(registry, identity, registry.verified).granted
    assert len(verifies) == 2


def _memo_roles(registry):
    return sorted(c.role for c in registry.verified.values())


def test_memo_holds_stored_agents_plus_issuers(registry, ca):
    """After N rotations of one name the memo holds one agent certificate
    per record plus the intermediate and the root. A failed registration's
    certificates stay in the memo only while the request is held, and it
    leaves a stored record's entry in place; the sweep keeps only what the
    remaining records hold."""
    identity, _ = register(registry, ca, make_name(52))
    for _ in range(5):
        identity = _rotated(ca, identity, NOW)
        registry.register(build_registration_request(identity, "ns-0"), NOW)
    register(registry, ca, make_name(53), now=NOW + 10)
    assert _memo_roles(registry) == ["agent", "agent", "intermediate", "root"]
    stored = set(registry.verified)

    failing = [
        # bad request signature, under a fresh and under the stored certificate
        dataclasses.replace(build_registration_request(_rotated(ca, identity, NOW), "ns-0"),
                            endpoint="elsewhere"),
        dataclasses.replace(build_registration_request(identity, "ns-0"), endpoint="elsewhere"),
        # another DID for a taken name
        build_registration_request(make_identity(ca, make_name(52)), "ns-0"),
        # denied by policy
        build_registration_request(make_identity(ca, make_name(54, env="forbidden")), "ns-0"),
    ]
    for request in failing:
        with pytest.raises(AnsError):
            registry.register(request, NOW)
    del failing, request, identity
    assert set(registry.verified) == stored

    assert registry.sweep_expired(NOW + registry.record_ttl_seconds + 5) == 1
    assert _memo_roles(registry) == ["agent", "intermediate", "root"]
    assert registry.sweep_expired(NOW + registry.record_ttl_seconds + 20) == 1
    assert _memo_roles(registry) == ["intermediate", "root"]


def test_memo_under_concurrent_writers_and_sweeps(ca, allow_policies):
    """Validations add memo entries outside the registry lock while stores,
    failed registrations and sweeps drop entries under it. With more threads
    than cores and a short switch interval, no thread fails, and a final
    sweep leaves exactly the issuers and the stored agents' certificates."""
    registry = Registry(policies=allow_policies, trust_anchors=ca.anchors)
    chains = []
    for i in range(4):
        identity = make_identity(ca, make_name(70 + i))
        chains.append([identity] + [identity := _rotated(ca, identity, NOW) for _ in range(5)])
    bad = [dataclasses.replace(build_registration_request(make_identity(ca, make_name(80 + i)),
                                                          "ns-0"), endpoint="elsewhere")
           for i in range(6)]
    errors = []

    def writer(identities):
        for identity in identities:
            registry.register(build_registration_request(identity, "ns-0"), NOW)
            assert _attest(registry, identity, registry.verified).granted

    def failing():
        for request in bad:
            with pytest.raises(AnsError):
                registry.register(request, NOW)

    def sweeper():
        for _ in range(200):
            registry.sweep_expired(NOW)

    def run(target, *args):
        try:
            target(*args)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(writer, c)) for c in chains]
        threads += [threading.Thread(target=run, args=(f,)) for f in (failing, sweeper)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    registry.sweep_expired(NOW)
    expected = {c.chain.agent for c in (cs[-1] for cs in chains)} | {ca.intermediate_cert,
                                                                     ca.root_cert}
    del chains, bad
    assert set(registry.verified.values()) == expected
    assert len(registry.verified) == len(expected)


def _over_the_wire(request):
    """The request as the server decodes it: new objects, equal fields."""
    return RegistrationRequest.from_doc(request.to_doc())


def _agent_entry(identity):
    """The verified memo's key for the identity's agent certificate."""
    return identity.chain.intermediate.public_key, identity.chain.agent.signature


def test_memo_entries_live_while_a_holder_lives(registry, ca):
    """With no registry call in between, an entry disappears once the last
    holder of its certificate goes: a failed registration's request, a record
    rotated out, a swept record. It stays while a stored record holds it.
    Requests arrive decoded, so the test's identities hold none of the
    memo's objects."""
    identity = make_identity(ca, make_name(61))
    entry = _agent_entry(identity)
    failing = _over_the_wire(dataclasses.replace(build_registration_request(identity, "ns-0"),
                                                 endpoint="elsewhere"))
    with pytest.raises(AnsError) as err:
        registry.register(failing, NOW)
    assert err.value.code == "BAD_SIGNATURE"
    del err
    assert len(registry.verified) == 3 and entry in registry.verified
    del failing
    assert len(registry.verified) == 0

    registry.register(_over_the_wire(build_registration_request(identity, "ns-0")), NOW)
    assert len(registry.verified) == 3 and entry in registry.verified
    rotated = _rotated(ca, identity, NOW)
    registry.register(_over_the_wire(build_registration_request(rotated, "ns-0")), NOW)
    assert entry not in registry.verified
    assert len(registry.verified) == 3 and _agent_entry(rotated) in registry.verified

    assert registry.sweep_expired(NOW + registry.record_ttl_seconds + 1) == 1
    assert len(registry.verified) == 0


def test_wire_verify_counts(server, ca, verifies):
    """Through the HTTP server, as the benchmark drives it: registering a
    fresh certificate costs 4 Ed25519 verifies, a rotated one 2 and the same
    request again 1. On a server recovered from the log, the first attest
    costs 5 and the second 2; a renewal costs 1."""
    identity = make_identity(ca, make_name(62))
    rc = RegistryClient(server.url)
    try:
        rc.post("/v1/agents", build_registration_request(identity, "ns-0").to_doc())
        assert len(verifies) == 4
        identity = _rotated(ca, identity, NOW)
        request = build_registration_request(identity, "ns-0").to_doc()
        for expected in (2, 1):
            verifies.clear()
            rc.post("/v1/agents", request)
            assert len(verifies) == expected
    finally:
        rc.close()
    restarted = AnsServer(dataclasses.replace(server.config, snapshot_path=None))
    restarted.start()
    rc = RegistryClient(restarted.url)
    try:
        for expected in (5, 2):
            verifies.clear()
            assert attest_with(identity, restarted.url, identity.name.capability,
                               client=rc)["granted"]
            assert len(verifies) == expected
        verifies.clear()
        renew_with(identity, restarted.url, client=rc)
        assert len(verifies) == 1
    finally:
        rc.close()
        restarted.shutdown()


# -- one encoding per written record -----------------------------------------------------

ALLOW_ALL = [Policy(id="allow-all", description="admit everything",
                    rules=(PolicyRule(id="allow", effect="allow"),))]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), endpoint=st.text(max_size=40),
       extra=st.lists(st.integers(0, 2**32 - 1), max_size=3))
def test_logged_and_served_bytes_are_canonical_json(ca, seed, endpoint, extra):
    """The Registered line embeds the record's one encoding, and the bytes a
    register or renew reply carries equal ``canonical_json`` of the same
    document, over random names, endpoints and capability sets."""
    rng = random.Random(seed)
    name = random_name(rng)
    capabilities = tuple(random_label(random.Random(e)) for e in extra)
    identity = make_identity(ca, name, extra_caps=capabilities, endpoint=endpoint)
    namespace = random_label(rng)
    key = name.render()
    with tempfile.TemporaryDirectory() as workdir:
        log_path = os.path.join(workdir, "events.log")
        registry = Registry.recover(policies=ALLOW_ALL, trust_anchors=ca.anchors,
                                    log_path=log_path, fsync=False)
        record = registry.register(build_registration_request(identity, namespace), NOW)
        signature = identity.identity_keys.sign(canonical_bytes(renewal_payload(key, NOW + 1)))
        renewed = registry.renew(key, NOW + 1, signature, NOW + 1)
        registry.close()
        with open(log_path, "rb") as fh:
            lines = fh.read().splitlines()
    assert lines == [
        canonical_json(RegistryEvent(1, EVENT_REGISTERED, {"record": record.to_doc()},
                                     NOW).to_doc()).encode(),
        canonical_json(RegistryEvent(2, EVENT_RENEWED, {"name": key, "expires_at":
                                     renewed.expires_at}, NOW + 1).to_doc()).encode(),
    ]
    assert record.doc_bytes == canonical_json(record.to_doc()).encode()
    assert renewed.doc_bytes == canonical_json(renewed.to_doc()).encode()


# -- recovered records serve the bytes they were logged as ------------------------------


def _encoded_names(registry):
    """The records whose ``doc_bytes`` encode themselves, by name, while the
    bytes of every record in the registry are read."""
    encoded = []
    real = registry_module.canonical_bytes
    with mock.patch.object(registry_module, "canonical_bytes",
                           lambda value: encoded.append(value["name"]) or real(value)):
        for record in registry.all_records():
            record.doc_bytes
    return encoded


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_recovered_records_serve_their_logged_bytes(ca, seed):
    """After random registers, rotations, renewals and revocations, every
    recovered record's bytes are the canonical encoding of its document. A
    record whose last event is its ``Registered`` line serves that line's
    bytes without encoding; exactly the renewed and revoked ones encode."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as workdir:
        log_path = os.path.join(workdir, "events.log")
        registry = Registry.recover(policies=ALLOW_ALL, trust_anchors=ca.anchors,
                                    log_path=log_path, fsync=False)
        identities = {}
        now = NOW
        for _ in range(rng.randrange(1, 20)):
            now += rng.randrange(0, 30)
            _random_step(registry, ca, rng, identities, now)
        registry.close()
        with open(log_path, "rb") as fh:
            lines = fh.read().splitlines()
        recovered = Registry.recover(policies=ALLOW_ALL, trust_anchors=ca.anchors,
                                     log_path=log_path, fsync=False)
        recovered.close()
    last = {}  # name -> (kind, line) of the last event about it
    for line in lines:
        event = json.loads(line)
        payload = event["payload"]
        key = payload["record"]["name"] if event["kind"] == EVENT_REGISTERED else payload["name"]
        last[key] = (event["kind"], line)
    logged = {key: line for key, (kind, line) in last.items() if kind == EVENT_REGISTERED}
    assert sorted(_encoded_names(recovered)) == sorted(set(last) - set(logged))
    records = recovered.all_records()
    assert sorted(r.name.render() for r in records) == sorted(last)
    for record in records:
        assert record.doc_bytes == canonical_bytes(record.to_doc())
        line = logged.get(record.name.render())
        if line is not None:
            assert line == b'{"at":%d,"kind":"Registered","payload":{"record":%s},"seq":%d}' % (
                json.loads(line)["at"], record.doc_bytes, json.loads(line)["seq"])


def _relaid(event: dict, layout: str) -> bytes:
    """A ``Registered`` event's line in a layout other than the appended one."""
    if layout == "whitespace":
        return json.dumps(event, sort_keys=True).encode()
    if layout == "reordered":
        return json.dumps(dict(reversed(event.items())), separators=(",", ":")).encode()
    if layout == "extra-field":
        return canonical_bytes({**event, "prev": {"sha256": "00" * 32}})
    assert layout == "extra-payload-field"
    return canonical_bytes({**event, "payload": {**event["payload"], "source": {"via": "x"}}})


@pytest.mark.parametrize("layout", ["whitespace", "reordered", "extra-field",
                                    "extra-payload-field"])
def test_other_line_layouts_encode_on_first_use(tmp_path, allow_policies, ca, layout):
    """A ``Registered`` line that is not byte for byte in the layout
    ``_append`` writes recovers the same record, which encodes itself: no
    slice of such a line is served. The untouched line beside it keeps its
    logged bytes."""
    registry = _file_registry(tmp_path, allow_policies, ca)
    _, record = register(registry, ca, make_name(0))
    _, kept = register(registry, ca, make_name(1))
    registry.close()
    log_path = tmp_path / "events.log"
    first, second = log_path.read_bytes().splitlines()
    relaid = _relaid(json.loads(first), layout)
    assert relaid != first and json.loads(relaid)["payload"]["record"] == record.to_doc()
    log_path.write_bytes(relaid + b"\n" + second + b"\n")
    recovered = _file_registry(tmp_path, allow_policies, ca)
    recovered.close()
    assert _encoded_names(recovered) == [record.name.render()]
    by_name = {r.name.render(): r for r in recovered.all_records()}
    assert by_name[record.name.render()].doc_bytes == record.doc_bytes
    assert by_name[kept.name.render()].doc_bytes == kept.doc_bytes


def test_renewed_and_revoked_records_serve_their_new_fields(tmp_path, allow_policies, ca):
    """Replay replaces a record on ``Renewed`` and ``Revoked``; the
    replacement drops the logged bytes and serves its new expiry or status."""
    registry = _file_registry(tmp_path, allow_policies, ca)
    renewing, _ = register(registry, ca, make_name(0))
    revoking, _ = register(registry, ca, make_name(1))
    renewed_key, revoked_key = make_name(0).render(), make_name(1).render()
    later = NOW + 600
    signature = renewing.identity_keys.sign(canonical_bytes(renewal_payload(renewed_key, later)))
    renewed = registry.renew(renewed_key, later, signature, later)
    signature = revoking.identity_keys.sign(
        canonical_bytes(revocation_payload(revoked_key, later)))
    registry.revoke(revoked_key, later, signature, later)
    registry.close()
    recovered = _file_registry(tmp_path, allow_policies, ca)
    recovered.close()
    by_name = {r.name.render(): r for r in recovered.all_records()}
    assert sorted(_encoded_names(recovered)) == sorted([renewed_key, revoked_key])
    assert by_name[renewed_key].doc_bytes == renewed.doc_bytes
    assert b'"expires_at":%d,' % renewed.expires_at in by_name[renewed_key].doc_bytes
    revoked = by_name[revoked_key]
    assert revoked.status == STATUS_REVOKED
    assert b'"status":"revoked"}' in revoked.doc_bytes
    assert revoked.doc_bytes == canonical_bytes(revoked.to_doc())


def test_snapshot_records_encode_on_first_use(tmp_path, allow_policies, ca):
    """A snapshot holds documents, not lines: its records encode themselves,
    while the log suffix after it serves its logged bytes."""
    snap_path = str(tmp_path / "snapshot.json")
    registry = _file_registry(tmp_path, allow_policies, ca)
    _, snapped = register(registry, ca, make_name(0))
    registry.write_snapshot(snap_path)
    register(registry, ca, make_name(1))
    registry.close()
    recovered = Registry.recover(policies=allow_policies, trust_anchors=ca.anchors,
                                 log_path=str(tmp_path / "events.log"),
                                 snapshot_path=snap_path, fsync=False)
    recovered.close()
    assert _encoded_names(recovered) == [snapped.name.render()]
    for record in recovered.all_records():
        assert record.doc_bytes == canonical_bytes(record.to_doc())


def test_decoder_holds_exactly_the_distinct_issuer_documents(registry, ca):
    """After any number of records the decoder's one table holds each
    distinct intermediate and root document once, with the certificate its
    records share, and no agent document; a same-signature document that
    differs in a field still decodes on its own."""
    docs = _record_docs(registry, ca, 4)
    decoder = RecordDecoder()

    def held():
        return sorted(((canonical_json(doc), id(cert))
                       for pairs in decoder._issuers.values() for doc, cert in pairs))

    first = decoder.record(docs[0]).chain
    issuers = sorted([(canonical_json(docs[0]["chain"][1]), id(first.intermediate)),
                      (canonical_json(docs[0]["chain"][2]), id(first.root))])
    assert held() == issuers
    for doc in docs[1:]:
        chain = decoder.record(doc).chain
        assert chain.intermediate is first.intermediate and chain.root is first.root
        assert held() == issuers

    tampered = copy.deepcopy(docs[2])
    tampered["chain"][1]["serial"] += 1  # same signature text, different document
    record = decoder.record(tampered)
    assert record.chain.intermediate is not first.intermediate
    assert record.chain.intermediate == Certificate.from_doc(tampered["chain"][1])
    assert record.chain.root is first.root
    assert decoder.record(docs[3]).chain.intermediate is first.intermediate
    assert decoder.record(tampered).chain.intermediate is record.chain.intermediate
    assert held() == sorted(issuers + [(canonical_json(tampered["chain"][1]),
                                        id(record.chain.intermediate))])
    assert all(json.loads(doc)["role"] != ROLE_AGENT for doc, _ in held())


# -- wire registrations share issuers --------------------------------------------------


def test_wire_registrations_share_issuer_certificates(registry, ca):
    """Each registration decoded from its document brings its own issuer
    objects; the stored records hold the verified memo's instead, so 50 of
    them keep one intermediate and one root."""
    for i in range(50):
        identity = make_identity(ca, make_name(i, capability="cap-share"))
        request = build_registration_request(identity, "ns-0")
        registry.register(RegistrationRequest.from_doc(request.to_doc()), NOW)
    records = registry.all_records()
    assert len(records) == 50
    assert len({id(r.chain.intermediate) for r in records}) == 1
    assert len({id(r.chain.root) for r in records}) == 1
    held = [c for c in registry.verified.values() if c.role != ROLE_AGENT]
    assert sorted(id(c) for c in held) == sorted(
        (id(records[0].chain.intermediate), id(records[0].chain.root)))


# -- the answer cache ------------------------------------------------------------------


@pytest.fixture()
def matches_calls(monkeypatch):
    """Names the registry passes to ``names.matches``."""
    calls = []
    real = names.matches
    monkeypatch.setattr(names, "matches", lambda name, query: calls.append(name) or
                        real(name, query))
    return calls


def test_repeated_resolve_is_answered_from_the_cache(registry, ca, matches_calls):
    """With no write in between, a repeated query walks no candidate: it
    calls ``names.matches`` zero times and returns a fresh list equal to the
    first answer."""
    for i in range(6):
        register(registry, ca, make_name(i, capability="cap-cache"))
    query = NameQuery(capability="cap-cache", extension="prod")
    first = registry.resolve(query, NOW)
    assert len(first) == 6 and len(matches_calls) == 6
    matches_calls.clear()
    second = registry.resolve(query, NOW + 60)
    assert matches_calls == [] and second == first and second is not first
    second.clear()
    assert registry.resolve(query, NOW + 60) == first
    assert matches_calls == []


def _answer_battery():
    queries = [NameQuery(capability=f"cap-{c}") for c in range(3)]
    queries += [NameQuery(capability=f"cap-{c}", version_req=VersionRequirement.latest())
                for c in range(3)]
    queries += [NameQuery(provider=f"prov-{p}", extension="prod") for p in range(5)]
    queries += [NameQuery(version_req=VersionRequirement.at_least(Version(0, 0)))]
    return queries


def _assert_battery_matches_oracle(registry, now, label):
    """Every battery query, asked twice so the second answer may come from
    the cache, equals the oracle."""
    for query in _answer_battery():
        expected = _oracle_resolve(registry, query, now)
        assert registry.resolve(query, now) == expected, (label, query)
        assert registry.resolve(query, now) == expected, (label, query)


def test_answer_cache_follows_every_write(tmp_path, allow_policies, ca):
    """After a fresh and a rotated register, a renew, a revoke, policy swaps,
    a sweep and recovery, the next answer to every query equals the
    linear-scan oracle, though each query was cached just before."""
    registry = _file_registry(tmp_path, allow_policies, ca)
    identities = {}
    for i in range(12):
        name = make_name(i, capability=f"cap-{i % 3}", version=Version(1, i % 2))
        identities[name.render()] = register(registry, ca, name)[0]
    keys = sorted(identities)
    now = NOW
    _assert_battery_matches_oracle(registry, now, "start")

    register(registry, ca, make_name(20, capability="cap-0", version=Version(1, 5)))
    _assert_battery_matches_oracle(registry, now, "fresh register")
    rotated = _rotated(ca, identities[keys[0]], now, SHORT_VALIDITY_S)
    registry.register(build_registration_request(rotated, "ns-4"), now)
    _assert_battery_matches_oracle(registry, now, "rotated register")

    now += 60
    sig = identities[keys[1]].identity_keys.sign(canonical_bytes(renewal_payload(keys[1], now)))
    registry.renew(keys[1], now, sig, now)
    _assert_battery_matches_oracle(registry, now, "renew")
    sig = identities[keys[2]].identity_keys.sign(
        canonical_bytes(revocation_payload(keys[2], now)))
    registry.revoke(keys[2], now, sig, now)
    _assert_battery_matches_oracle(registry, now, "revoke")
    for i, policies in enumerate(_policy_sets()[1:] + _policy_sets()[:1]):
        registry.set_policies(policies)
        _assert_battery_matches_oracle(registry, now, f"policy set {i}")

    now = NOW + registry.record_ttl_seconds + 1  # all but the renewed record expired
    _assert_battery_matches_oracle(registry, now, "expiry")
    assert registry.sweep_expired(now) > 0
    _assert_battery_matches_oracle(registry, now, "sweep")
    registry.close()
    _assert_battery_matches_oracle(_file_registry(tmp_path, allow_policies, ca), NOW + 60,
                                   "recovery")


def test_answer_cache_serves_only_inside_its_window(ca, allow_policies, matches_calls):
    """An answer computed at ``since`` is served for a clock in [since,
    until): not before ``since``, not at or past the earliest ``serve_until
    + 1`` of its hits (counting a version ``latest`` dropped), and not once a
    candidate not yet servable at ``since`` reaches its ``serve_from``."""
    registry = Registry(policies=allow_policies, trust_anchors=ca.anchors,
                        record_ttl_seconds=600)

    def register_at(name, at):
        identity = make_identity(ca, name, now=at)
        return registry.register(build_registration_request(identity, "ns-0"), at)

    old = register_at(make_name(60, capability="cap-win", version=Version(1, 0)), NOW)
    new = register_at(make_name(60, capability="cap-win", version=Version(1, 1)), NOW - 300)
    late = register_at(make_name(61, capability="cap-win"), NOW + 100)
    assert (new.serve_until, old.serve_until, late.serve_from) == (NOW + 300, NOW + 600, NOW + 100)
    queries = [NameQuery(capability="cap-win"),
               NameQuery(capability="cap-win", version_req=VersionRequirement.latest())]

    def answers(now):
        got = [registry.resolve(q, now) for q in queries]
        assert got == [_oracle_resolve(registry, q, now) for q in queries], now
        return got

    assert answers(NOW) == [[new, old], [new]]
    matches_calls.clear()
    assert answers(NOW + 99) == [[new, old], [new]]
    assert matches_calls == []  # both served from the cache
    assert answers(NOW + 100) == [[new, old, late], [new, late]]
    assert answers(NOW + 300) == [[new, old, late], [new, late]]
    assert answers(NOW + 301) == [[old, late], [old, late]]  # 1.0 is the latest again
    assert answers(NOW + 99) == [[new, old], [new]]  # before the cached answers' since
    assert answers(NOW + 601) == [[late], [late]]
    assert answers(NOW + 701) == [[], []]


def test_answer_computed_across_a_write_is_not_cached(registry, ca, monkeypatch):
    """A revoke started while a resolve walks its candidates waits for the
    walk, whose answer is cached under the same hold of the lock; the revoke
    then drops it, so the next resolve answers afresh."""
    identities = [register(registry, ca, make_name(i, capability="cap-race"))[0]
                  for i in range(4)]
    victim = identities[0].name.render()
    query = NameQuery(capability="cap-race")
    real = names.matches
    sig = identities[0].identity_keys.sign(canonical_bytes(revocation_payload(victim, NOW)))
    revoker = threading.Thread(target=registry.revoke, args=(victim, NOW, sig, NOW))

    def revoking(name, q):
        monkeypatch.setattr(names, "matches", real)
        revoker.start()
        revoker.join(timeout=0.2)
        assert revoker.is_alive()  # blocked on the lock the walk holds
        assert registry._records[victim].status == STATUS_ACTIVE
        return real(name, q)

    monkeypatch.setattr(names, "matches", revoking)
    first = registry.resolve(query, NOW)  # ordered before the revoke
    assert names.matches is real
    revoker.join(timeout=10)
    assert not revoker.is_alive()
    assert victim in [r.name.render() for r in first] and len(first) == 4
    answer = registry.resolve(query, NOW)
    assert answer == _oracle_resolve(registry, query, NOW)
    assert victim not in [r.name.render() for r in answer] and len(answer) == 3


def test_answer_cache_holds_at_most_its_reference_cap(registry, ca, monkeypatch):
    """Each answer costs one reference per record plus a fixed charge for
    its entry; at the cap the oldest answers go first, and an answer larger
    than the cap is not kept. A flood of distinct queries that match
    nothing leaves at most the cap cached, in well under 1 MB."""
    for i in range(3):
        register(registry, ca, make_name(i, capability="cap-flood", env="prod"))
        register(registry, ca, make_name(i + 10, capability="cap-flood", env="staging"))
    monkeypatch.setattr(registry_module, "ANSWER_CACHE_REFS", 10)
    monkeypatch.setattr(registry_module, "ANSWER_ENTRY_REFS", 1)
    prod, staging = (NameQuery(capability="cap-flood", extension=env)
                     for env in ("prod", "staging"))
    registry.resolve(prod, NOW)
    registry.resolve(staging, NOW)
    assert list(registry._answers) == [prod, staging] and registry._answer_refs == 8
    missing = NameQuery(agent_id="agent-999")
    registry.resolve(missing, NOW)  # an empty answer costs 1
    assert list(registry._answers) == [prod, staging, missing] and registry._answer_refs == 9
    a2a = NameQuery(capability="cap-flood", extension="prod", protocol="a2a")
    registry.resolve(a2a, NOW)  # 3 + 1 more: the oldest answer goes
    assert list(registry._answers) == [staging, missing, a2a] and registry._answer_refs == 9
    everything = NameQuery(capability="cap-flood")
    registry.resolve(everything, NOW)  # 6 + 1: all three older answers go
    assert list(registry._answers) == [everything] and registry._answer_refs == 7
    monkeypatch.setattr(registry_module, "ANSWER_CACHE_REFS", 6)
    too_large = NameQuery(capability="cap-flood", version_req=VersionRequirement.latest())
    assert len(registry.resolve(too_large, NOW)) == 6  # 6 + 1 > 6: not kept, nothing evicted
    assert list(registry._answers) == [everything]

    registry.set_policies(registry.policies)  # drops every answer
    assert not registry._answers and registry._answer_refs == 0
    monkeypatch.undo()
    entries = registry_module.ANSWER_CACHE_REFS // registry_module.ANSWER_ENTRY_REFS
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(4 * entries):
            registry.resolve(NameQuery(agent_id=f"flood-{i}"), NOW)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(registry._answers) == entries
    assert registry._answer_refs == registry_module.ANSWER_CACHE_REFS
    assert NameQuery(agent_id=f"flood-{3 * entries - 1}") not in registry._answers
    assert NameQuery(agent_id=f"flood-{3 * entries}") in registry._answers
    assert held < 1 << 20, held


# -- one state-change path ---------------------------------------------------------------

_RECORDS_WRITES = {"pop", "popitem", "clear", "setdefault", "update"}


def _is_self_records(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "_records"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _state_changes_outside_store(path: pathlib.Path):
    """(line, what) for each change of ``self._records`` and each call of
    ``_index_add``/``_index_remove`` in ``path`` outside ``Registry._store``,
    and for each mention of ``RLock``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and func.name == "_store"
              for node in ast.walk(func)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "RLock"
                or isinstance(node, ast.Attribute) and node.attr == "RLock"
                or isinstance(node, ast.alias) and node.name == "RLock"):
            yield node.lineno, "names RLock"
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_self_records(node.value)):
            yield node.lineno, "assigns or deletes an item of self._records"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _RECORDS_WRITES and _is_self_records(node.func.value):
                yield node.lineno, f"calls self._records.{node.func.attr}"
            if node.func.attr in ("_index_add", "_index_remove"):
                yield node.lineno, f"calls {node.func.attr}"


def test_records_change_only_through_store():
    """``Registry._store`` is the only code that changes a key's record or
    its postings, and the registry's one lock is a plain ``Lock``: no
    operation re-enters it."""
    assert list(_state_changes_outside_store(pathlib.Path(registry_module.__file__))) == []
