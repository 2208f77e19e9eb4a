import pytest
import yaml
from hypothesis import given, settings

from ans.errors import AnsError
from ans.manifest import (
    check_consistency,
    manifest_for_name,
    manifest_from_doc,
    parse_duration,
    validate_admission,
)
from ans import names
from conftest import NOW, make_identity
from genutil import mutated

LISTING_MANIFEST_YAML = """
apiVersion: ans.io/v1
kind: Agent
metadata:
  name: concept-drift-detector
  namespace: mlops-system
spec:
  ansName: "a2a://concept-drift-detector.concept-drift-detection.research-lab.v2.1.prod"
  capabilities:
    - "concept-drift-detection"
    - "statistical-analysis"
    - "alert-generation"
  provider: "research-lab"
  version: "2.1"
  environment: "prod"
  certificate:
    issuer: "ans-ca"
    validity: "90d"
  policies:
    - "agent-security-policy"
    - "data-access-policy"
"""


@pytest.fixture()
def listing_doc():
    return yaml.safe_load(LISTING_MANIFEST_YAML)


@pytest.mark.parametrize("text,seconds", [
    ("90d", 7_776_000), ("12h", 43_200), ("30m", 1_800), ("45s", 45), ("1d", 86_400),
])
def test_parse_duration(text, seconds):
    assert parse_duration(text) == seconds


@pytest.mark.parametrize("text", ["", "d", "90", "90x", "0d", "-1d", "9 d"])
def test_parse_duration_rejects(text):
    with pytest.raises(AnsError) as err:
        parse_duration(text)
    assert err.value.code == "MALFORMED"


@pytest.mark.parametrize("text", ["90d\n", "9" * 5_000 + "d"],
                         ids=["final-newline", "5000-digits"])
def test_parse_duration_refuses_a_final_newline_and_a_count_too_long_to_convert(text):
    with pytest.raises(AnsError) as err:
        parse_duration(text)
    assert err.value.code == "MALFORMED"


def test_reference_manifest_parses_consistently(listing_doc):
    manifest = manifest_from_doc(listing_doc)
    assert manifest.name == "concept-drift-detector"
    assert manifest.namespace == "mlops-system"
    assert manifest.certificate.validity_seconds == 7_776_000
    parsed, problems = check_consistency(manifest)
    assert problems == []
    assert parsed == names.parse(manifest.ans_name_text)
    # round trip through the document form
    assert manifest_from_doc(manifest.to_doc()) == manifest


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("kind"),
    lambda d: d.update(kind="Deployment"),
    lambda d: d.update(extra="x"),
    lambda d: d["metadata"].pop("namespace"),
    lambda d: d["spec"].pop("certificate"),
    lambda d: d["spec"].update(capabilities=[]),
    lambda d: d["spec"].update(capabilities="not-a-list"),
    lambda d: d["spec"]["certificate"].update(validity="ninety days"),
    lambda d: d["spec"].update(resources={"cpu_millicores": -1}),
    lambda d: d["spec"].update(resources={"gpus": 1}),
])
def test_schema_violations_raise_malformed(listing_doc, mangle):
    mangle(listing_doc)
    with pytest.raises(AnsError) as err:
        manifest_from_doc(listing_doc)
    assert err.value.code == "MALFORMED"


@pytest.mark.parametrize("mangle,needle", [
    (lambda d: d["spec"].update(capabilities=["statistical-analysis"]), "NAME_MISMATCH"),
    (lambda d: d["spec"].update(provider="someone-else"), "NAME_MISMATCH"),
    (lambda d: d["spec"].update(version="9.9"), "NAME_MISMATCH"),
    (lambda d: d["spec"].update(environment="staging"), "NAME_MISMATCH"),
    (lambda d: d["spec"].update(ansName="a2a://UPPER.b.c.v1.0.prod"), "INVALID_NAME"),
    (lambda d: d["metadata"].update(name="Not-Lower"), "INVALID_LABEL"),
])
def test_consistency_problems_reported(listing_doc, mangle, needle):
    mangle(listing_doc)
    manifest = manifest_from_doc(listing_doc)
    _, problems = check_consistency(manifest)
    assert any(needle in p for p in problems), problems


def test_admission_allows_reference_manifest(listing_doc, allow_policies):
    result = validate_admission(listing_doc, allow_policies, (), NOW)
    assert result.allowed, result.reasons


def test_admission_denies_inconsistent_manifest(listing_doc, allow_policies):
    listing_doc["spec"]["capabilities"] = ["statistical-analysis"]
    result = validate_admission(listing_doc, allow_policies, (), NOW)
    assert not result.allowed
    assert any("NAME_MISMATCH" in r for r in result.reasons)


def test_admission_denies_unknown_referenced_policy(listing_doc, allow_policies):
    listing_doc["spec"]["policies"] = ["agent-security-policy", "no-such-policy"]
    result = validate_admission(listing_doc, allow_policies, (), NOW)
    assert not result.allowed
    assert any("no-such-policy" in r for r in result.reasons)


def test_admission_with_valid_chain(listing_doc, allow_policies, ca):
    name = names.parse(listing_doc["spec"]["ansName"])
    identity = make_identity(ca, name,
                             extra_caps=("statistical-analysis", "alert-generation"))
    result = validate_admission(listing_doc, allow_policies, ca.anchors, NOW,
                                chain=identity.chain)
    assert result.allowed, result.reasons


def test_admission_rejects_mismatched_chain(listing_doc, allow_policies, ca):
    other = make_identity(ca, names.parse("mcp://other.cap-a.prov-0.v1.0.prod"))
    result = validate_admission(listing_doc, allow_policies, ca.anchors, NOW,
                                chain=other.chain)
    assert not result.allowed
    assert any("NAME_MISMATCH" in r for r in result.reasons)


def test_admission_rejects_overlong_certificate_window(listing_doc, allow_policies, ca):
    name = names.parse(listing_doc["spec"]["ansName"])
    identity = make_identity(ca, name,
                             extra_caps=("statistical-analysis", "alert-generation"))
    listing_doc["spec"]["certificate"]["validity"] = "30d"  # chain was issued for 90d
    result = validate_admission(listing_doc, allow_policies, ca.anchors, NOW,
                                chain=identity.chain)
    assert not result.allowed
    assert any("WINDOW_EXCEEDED" in r for r in result.reasons)


def test_admission_resource_conditions(listing_doc):
    from ans.policy import Policy, PolicyRule, RuleConditions

    capped = [Policy("caps", "", (
        PolicyRule("cpu-cap", "allow",
                   conditions=RuleConditions(max_cpu_millicores=500)),
    ))]
    listing_doc["spec"]["policies"] = []
    listing_doc["spec"]["resources"] = {"cpu_millicores": 250}
    assert validate_admission(listing_doc, capped, (), NOW).allowed
    listing_doc["spec"]["resources"] = {"cpu_millicores": 4000}
    assert not validate_admission(listing_doc, capped, (), NOW).allowed


@settings(max_examples=300, deadline=None)
@given(doc=mutated(yaml.safe_load(LISTING_MANIFEST_YAML)))
def test_mutated_manifest_loads_or_is_malformed(doc):
    """One key dropped or added, or one value retyped, anywhere: the manifest
    loads (and round-trips) or is refused as MALFORMED, never a Python error."""
    try:
        manifest = manifest_from_doc(doc)
    except AnsError as exc:
        assert exc.code == "MALFORMED", exc
    else:
        assert manifest_from_doc(manifest.to_doc()) == manifest


def test_manifest_for_name_is_consistent():
    name = names.parse("acp://security-scanner.security-scanning.devsecops-team.v3.2.hipaa")
    manifest = manifest_for_name(name, "security", capabilities=("audit-log",))
    parsed, problems = check_consistency(manifest)
    assert problems == [] and parsed == name
