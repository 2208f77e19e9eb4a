import json
import random
import time

import pytest
from hypothesis import given, settings

from ans.errors import AnsError
from ans.harness import harness_policies
from ans.metrics import quantile
from ans.policy import (
    EvaluationContext,
    PHASE_ADMISSION,
    PHASE_RUNTIME,
    Policy,
    PolicyRule,
    PolicySubject,
    RuleConditions,
    RuleMatch,
    evaluate,
    explain,
    glob_match,
    load_policies,
    policies_to_doc,
)
from conftest import NOW
from genutil import mutated


def subject(**overrides) -> PolicySubject:
    base = dict(
        protocol="a2a",
        agent_id="agent-001",
        capability="concept-drift-detection",
        capabilities=("concept-drift-detection", "statistical-analysis"),
        provider="research-lab",
        environment="prod",
        namespace="mlops-system",
        cert_validity_seconds=90 * 86400,
    )
    base.update(overrides)
    return PolicySubject(**base)


def ctx(phase=PHASE_ADMISSION, **overrides) -> EvaluationContext:
    return EvaluationContext(subject(**overrides), phase, NOW)


def allow(rule_id="allow-any", match=None, conditions=None) -> PolicyRule:
    return PolicyRule(rule_id, "allow", match or RuleMatch(), conditions or RuleConditions())


def deny(rule_id="deny-it", match=None) -> PolicyRule:
    return PolicyRule(rule_id, "deny", match or RuleMatch())


def one_policy(*rules, policy_id="p") -> list[Policy]:
    return [Policy(policy_id, "", tuple(rules))]


# -- loading ------------------------------------------------------------------


def test_load_empty_rules_ok():
    policies = load_policies('{"policies": [{"id": "p", "description": "", "rules": []}]}')
    assert policies[0].rules == ()


def test_load_duplicate_rule_id_rejected():
    doc = {"policies": [{"id": "p", "rules": [
        {"id": "r", "effect": "allow"}, {"id": "r", "effect": "deny"}]}]}
    with pytest.raises(AnsError) as err:
        load_policies(json.dumps(doc))
    assert err.value.code == "POLICY_PARSE"
    assert "duplicate" in err.value.message


def test_load_unknown_condition_key_rejected():
    doc = {"policies": [{"id": "p", "rules": [
        {"id": "r", "effect": "allow", "conditions": {"foo": 1}}]}]}
    with pytest.raises(AnsError) as err:
        load_policies(json.dumps(doc))
    assert err.value.code == "POLICY_PARSE"
    assert "foo" in err.value.message


@pytest.mark.parametrize("doc", [
    "not json at all {",
    '{"policies": {"id": "p"}}',
    '{"policies": [], "extra": 1}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "maybe"}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "match": {"x": "y"}}]}]}',
    '{"policies": [{"id": "p", "rules": []}, {"id": "p", "rules": []}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "match": []}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "match": 0}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "match": ""}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "conditions": []}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "conditions": 0}]}]}',
    '{"policies": [{"id": "p", "rules": [{"id": "r", "effect": "allow", "conditions": ""}]}]}',
    '{"policies": [{"id": "p", "description": 5, "rules": []}]}',
    '{"policies": [{"id": "p", "description": null, "rules": []}]}',
])
def test_load_rejects_malformed_documents(doc):
    with pytest.raises(AnsError) as err:
        load_policies(doc)
    assert err.value.code == "POLICY_PARSE"


def test_load_reads_null_match_and_conditions_as_absent():
    policies = load_policies('{"policies": [{"id": "p", "rules": [{"id": "r", '
                             '"effect": "allow", "match": null, "conditions": null}]}]}')
    assert policies == one_policy(allow("r"))


@settings(max_examples=300, deadline=None)
@given(doc=mutated(policies_to_doc(harness_policies())))
def test_mutated_policy_file_loads_or_is_a_parse_error(doc):
    """One key dropped or added, or one value retyped, anywhere: the file
    loads (and round-trips) or is refused as POLICY_PARSE, never a Python error."""
    try:
        policies = load_policies(json.dumps(doc))
    except AnsError as exc:
        assert exc.code == "POLICY_PARSE", exc
    else:
        assert load_policies(json.dumps(policies_to_doc(policies))) == policies


def test_policies_doc_round_trip(allow_policies):
    rendered = json.dumps(policies_to_doc(allow_policies))
    assert load_policies(rendered) == list(allow_policies)


# -- evaluation ----------------------------------------------------------------


def test_no_policies_default_deny():
    decision = evaluate(ctx(), [])
    assert not decision.allowed
    assert any("default deny" in r for r in decision.reasons)


def test_allow_on_environment_match():
    policies = one_policy(allow("prod-only", match=RuleMatch(environment="prod")))
    assert evaluate(ctx(), policies).allowed
    assert not evaluate(ctx(environment="dev"), policies).allowed


def test_deny_overrides_allow_for_security_glob():
    # the acp security-scanner example: allow matches, deny on security-* wins
    policies = one_policy(
        allow("allow-any"),
        deny("deny-security", match=RuleMatch(capability="security-*")),
    )
    decision = evaluate(
        ctx(capability="security-scanning",
            capabilities=("security-scanning",), provider="devsecops-team",
            environment="hipaa"),
        policies,
    )
    assert not decision.allowed
    assert ("p", "deny-security", "deny") in decision.matched_rules
    assert ("p", "allow-any", "allow") in decision.matched_rules


def test_failed_conditions_reported():
    policies = one_policy(
        allow("env-gate", conditions=RuleConditions(allowed_environments=("staging",))))
    decision = evaluate(ctx(environment="prod"), policies)
    assert not decision.allowed
    assert any("not in allowed_environments" in r for r in decision.reasons)


def test_provider_allowlist_and_capability_denylist():
    policies = one_policy(allow("gate", conditions=RuleConditions(
        provider_allowlist=("research-lab",),
        capability_denylist=("admin-*",),
    )))
    assert evaluate(ctx(), policies).allowed
    assert not evaluate(ctx(provider="someone-else"), policies).allowed
    assert not evaluate(
        ctx(capabilities=("concept-drift-detection", "admin-root")), policies
    ).allowed


def test_cert_validity_cap_applies_in_both_phases():
    policies = one_policy(allow("cap", conditions=RuleConditions(
        max_cert_validity_seconds=30 * 86400)))
    for phase in (PHASE_ADMISSION, PHASE_RUNTIME):
        assert not evaluate(ctx(phase=phase), policies).allowed
        assert evaluate(ctx(phase=phase, cert_validity_seconds=10 * 86400), policies).allowed


def test_resource_limits_admission_only():
    policies = one_policy(allow("res", conditions=RuleConditions(max_cpu_millicores=500)))
    heavy = dict(cpu_millicores=1000)
    assert not evaluate(ctx(PHASE_ADMISSION, **heavy), policies).allowed
    assert evaluate(ctx(PHASE_RUNTIME, **heavy), policies).allowed
    # undeclared resources pass the cap
    assert evaluate(ctx(PHASE_ADMISSION), policies).allowed


def test_match_all_fields():
    rule = allow("specific", match=RuleMatch(
        protocol="a2a", provider="research-lab", environment="prod",
        capability="concept-*", namespace="mlops-system"))
    policies = one_policy(rule)
    assert evaluate(ctx(), policies).allowed
    assert not evaluate(ctx(namespace="other"), policies).allowed
    assert not evaluate(ctx(protocol="mcp"), policies).allowed


@pytest.mark.parametrize("pattern,value,expected", [
    ("security-*", "security-scanning", True),
    ("security-*", "insecurity-scanning", False),
    ("*", "anything", True),
    ("a*c", "abc", True),
    ("a*c", "ac", True),
    ("a*c", "acd", False),
    ("exact", "exact", True),
    ("exact", "exact-no", False),
])
def test_glob_semantics(pattern, value, expected):
    assert glob_match(pattern, value) is expected


# -- explain ---------------------------------------------------------------------


def test_explain_default_deny_mentions_it():
    decision = evaluate(ctx(), [])
    assert "default deny" in explain(decision)


def test_explain_lists_allowing_rules_and_is_stable():
    policies = one_policy(allow("the-allower"))
    decision = evaluate(ctx(), policies)
    text = explain(decision)
    assert "p/the-allower (allow)" in text
    assert text == explain(evaluate(ctx(), policies))


# -- properties -------------------------------------------------------------------


def _random_rule(rng: random.Random, effect: str) -> PolicyRule:
    fields = {}
    if rng.random() < 0.5:
        fields["environment"] = rng.choice(("prod", "staging", "dev"))
    if rng.random() < 0.3:
        fields["protocol"] = rng.choice(("a2a", "mcp", "acp"))
    if rng.random() < 0.3:
        fields["capability"] = rng.choice(("cap-*", "security-*", "concept-*"))
    conditions = RuleConditions()
    if effect == "allow" and rng.random() < 0.4:
        conditions = RuleConditions(
            allowed_environments=tuple(rng.sample(("prod", "staging", "dev"), 2)))
    return PolicyRule(f"r{rng.randrange(1 << 30)}", effect, RuleMatch(**fields), conditions)


def _random_ctx(rng: random.Random) -> EvaluationContext:
    return ctx(
        phase=rng.choice((PHASE_ADMISSION, PHASE_RUNTIME)),
        protocol=rng.choice(("a2a", "mcp", "acp")),
        environment=rng.choice(("prod", "staging", "dev")),
        capability=rng.choice(("cap-a", "security-scanning", "concept-drift-detection")),
        capabilities=(rng.choice(("cap-a", "security-scanning")),),
    )


def test_property_deny_never_flips_to_allowed():
    rng = random.Random(23)
    for _ in range(400):
        rules = tuple(_random_rule(rng, rng.choice(("allow", "deny"))) for _ in range(4))
        policies = one_policy(*rules)
        context = _random_ctx(rng)
        before = evaluate(context, policies)
        extra_deny = PolicyRule("pin-deny", "deny", RuleMatch())  # matches everything
        after = evaluate(context, one_policy(*rules, extra_deny))
        assert not after.allowed
        if not before.allowed:
            assert not after.allowed  # still denied, never flipped


def test_property_no_allow_rules_means_denied():
    rng = random.Random(29)
    for _ in range(300):
        rules = tuple(_random_rule(rng, "deny") for _ in range(rng.randrange(0, 4)))
        assert not evaluate(_random_ctx(rng), one_policy(*rules)).allowed


def test_property_evaluation_pure():
    rng = random.Random(31)
    for _ in range(200):
        rules = tuple(_random_rule(rng, rng.choice(("allow", "deny"))) for _ in range(5))
        policies = one_policy(*rules)
        context = _random_ctx(rng)
        assert evaluate(context, policies) == evaluate(context, policies)


def test_latency_p99_under_12ms_on_50_rule_set():
    rng = random.Random(37)
    rules = tuple(_random_rule(rng, "allow" if i % 3 else "deny") for i in range(50))
    policies = one_policy(*rules)
    context = ctx()
    samples = []
    for _ in range(100_000):
        started = time.perf_counter()
        evaluate(context, policies)
        samples.append((time.perf_counter() - started) * 1e3)
    assert quantile(samples, 0.99) <= 12.0
