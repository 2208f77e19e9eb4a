import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ans import names
from ans.errors import AnsError
from ans.names import (
    QUERY_PARAMS,
    AnsName,
    NameQuery,
    Version,
    VersionRequirement,
    compare_versions,
    format_name,
    matches,
    parse,
)
from genutil import random_name, random_version

EXAMPLES = [
    (
        "a2a://concept-drift-detector.concept-drift-detection.research-lab.v2.1.prod",
        AnsName("a2a", "concept-drift-detector", "concept-drift-detection",
                "research-lab", Version(2, 1), "prod"),
    ),
    (
        "mcp://model-retrainer.model-training.mlops-team.v1.0.staging",
        AnsName("mcp", "model-retrainer", "model-training", "mlops-team",
                Version(1, 0), "staging"),
    ),
    (
        "acp://security-scanner.security-scanning.devsecops-team.v3.2.hipaa",
        AnsName("acp", "security-scanner", "security-scanning", "devsecops-team",
                Version(3, 2), "hipaa"),
    ),
]


@pytest.mark.parametrize("text,expected", EXAMPLES)
def test_reference_names_parse_and_reformat(text, expected):
    parsed = parse(text)
    assert parsed == expected
    assert format_name(parsed) == text


def test_format_example():
    name = AnsName("mcp", "model-retrainer", "model-training", "mlops-team",
                   Version(1, 0), "staging")
    assert format_name(name) == "mcp://model-retrainer.model-training.mlops-team.v1.0.staging"


def test_patch_version_renders_three_components():
    name = AnsName("a2a", "a", "b", "c", Version(1, 2, 3), "prod")
    assert format_name(name) == "a2a://a.b.c.v1.2.3.prod"
    assert parse(format_name(name)) == name


@pytest.mark.parametrize("text,code", [
    ("http://a.b.c.v1.0.prod", "INVALID_PROTOCOL"),
    ("a2a:/a.b.c.v1.0.prod", "MALFORMED"),
    ("a2a://a.b.v1.0.prod", "MALFORMED"),
    ("a2a://a.b.c.d.v1.0.prod", "MALFORMED"),
    ("a2a://a.b.c.1.0.prod", "INVALID_VERSION"),
    ("a2a://a.b.c.v01.0.prod", "INVALID_VERSION"),
    ("a2a://a.b.c.v1.00.prod", "INVALID_VERSION"),
    ("a2a://A.b.c.v1.0.prod", "INVALID_LABEL"),
    ("a2a://-a.b.c.v1.0.prod", "INVALID_LABEL"),
    ("a2a://a-.b.c.v1.0.prod", "INVALID_LABEL"),
    ("a2a://a.b.c.v1.0.Prod", "INVALID_LABEL"),
    ("", "MALFORMED"),
])
def test_rejections(text, code):
    with pytest.raises(AnsError) as err:
        parse(text)
    assert err.value.code == code


def test_label_length_cap():
    ok = "a" * 63
    assert parse(f"a2a://{ok}.b.c.v1.0.prod").agent_id == ok
    with pytest.raises(AnsError) as err:
        parse(f"a2a://{'a' * 64}.b.c.v1.0.prod")
    assert err.value.code == "INVALID_LABEL"


def test_round_trip_fuzz_10k_under_5s():
    rng = random.Random(20260810)
    started = time.perf_counter()
    for _ in range(10_000):
        name = random_name(rng)
        text = format_name(name)
        assert parse(text) == name, text
    assert time.perf_counter() - started < 5.0


def test_numeric_extension_round_trips():
    # a bare digit is a legal label, so token counts must disambiguate it
    two_part = AnsName("a2a", "a", "b", "c", Version(1, 2), "3")
    assert parse(format_name(two_part)) == two_part
    three_part = AnsName("a2a", "a", "b", "c", Version(1, 2, 3), "4")
    assert parse(format_name(three_part)) == three_part


def test_compare_versions_examples():
    assert compare_versions(Version(2, 1), Version(2, 1)) == 0
    assert compare_versions(Version(3, 2), Version(1, 0)) == 1
    assert compare_versions(Version(1, 0), Version(1, 0, 1)) == -1
    assert compare_versions(Version(1, 0), Version(1, 0, 0)) == 0  # absent patch == 0


def test_compare_versions_total_order_properties():
    rng = random.Random(7)
    versions = [random_version(rng) for _ in range(300)]
    for a in versions[:60]:
        assert compare_versions(a, a) == 0
    for _ in range(2000):
        a, b, c = (rng.choice(versions) for _ in range(3))
        assert compare_versions(a, b) == -compare_versions(b, a)
        if compare_versions(a, b) <= 0 and compare_versions(b, c) <= 0:
            assert compare_versions(a, c) <= 0


def test_matches_examples():
    name = parse(EXAMPLES[0][0])
    assert matches(name, NameQuery(capability="concept-drift-detection"))
    assert not matches(name, NameQuery(provider="mlops-team"))
    assert matches(
        AnsName("a2a", "x", "x", "x", Version(2, 1), "prod"),
        NameQuery(capability="x", version_req=VersionRequirement.at_least(Version(2, 0))),
    )
    assert not matches(
        AnsName("a2a", "x", "x", "x", Version(1, 9), "prod"),
        NameQuery(capability="x", version_req=VersionRequirement.at_least(Version(2, 0))),
    )


def test_matches_single_field_equivalence():
    rng = random.Random(11)
    for _ in range(500):
        name, other = random_name(rng), random_name(rng)
        for field in ("protocol", "agent_id", "capability", "provider", "extension"):
            query = NameQuery(**{field: getattr(other, field)})
            assert matches(name, query) == (getattr(name, field) == getattr(other, field))


def test_matches_latest_matches_any_version():
    rng = random.Random(13)
    for _ in range(100):
        name = random_name(rng)
        assert matches(name, NameQuery(capability=name.capability,
                                       version_req=VersionRequirement.latest()))


def test_query_requires_a_field():
    with pytest.raises(AnsError) as err:
        NameQuery()
    assert err.value.code == "INVALID_NAME"


def test_version_requirement_parsing():
    assert VersionRequirement.parse("latest") == VersionRequirement.latest()
    assert VersionRequirement.parse("2.1") == VersionRequirement.exact(Version(2, 1))
    assert VersionRequirement.parse(">=2.0") == VersionRequirement.at_least(Version(2, 0))
    with pytest.raises(AnsError) as err:
        VersionRequirement.parse("not-a-version")
    assert err.value.code == "INVALID_NAME"
    with pytest.raises(AnsError) as err:
        VersionRequirement.parse(">=x.y")
    assert err.value.code == "INVALID_VERSION"
    for req in ("latest", "2.1", ">=2.0", "1.2.3"):
        assert VersionRequirement.parse(req).render() == req


def _random_query(rng: random.Random) -> NameQuery:
    name = random_name(rng)
    requirement = rng.choice((
        None,
        VersionRequirement.latest(),
        VersionRequirement.exact(random_version(rng)),
        VersionRequirement.at_least(random_version(rng)),
    ))
    fields = {f: getattr(name, f) for f in ("protocol", "agent_id", "capability",
                                            "provider", "extension") if rng.random() < 0.5}
    if requirement is not None or not fields:
        fields["version_req"] = requirement or VersionRequirement.latest()
    return NameQuery(**fields)


def test_query_params_round_trip():
    rng = random.Random(4242)
    for _ in range(2000):
        query = _random_query(rng)
        params = query.to_params()
        assert set(params) <= set(QUERY_PARAMS)
        assert all(isinstance(v, str) for v in params.values())
        assert NameQuery.from_params(params) == query


def test_query_params_reject_unknown_names():
    with pytest.raises(AnsError) as err:
        NameQuery.from_params({"capability": "cap-a", "colour": "blue"})
    assert err.value.code == "INVALID_NAME"
    assert "colour" in err.value.message


# -- the field checks against a reference grammar ---------------------------------------

# The whole grammar of a well-formed name as one pattern, the per-field rules
# spelled out: a label of at most 63 characters, numbers without leading
# zeros, ASCII digits only. ``parse`` checks field by field; these tests hold
# it to this pattern.
_LABEL = r"([a-z0-9](?:[a-z0-9-]{0,61}[a-z0-9])?)"
_NUMBER = r"(0|[1-9][0-9]*)"
NAME_GRAMMAR = re.compile(
    r"(%s)://%s\.%s\.%s\.v%s\.%s(?:\.%s)?\.%s"
    % ("|".join(map(re.escape, names.PROTOCOLS)), _LABEL, _LABEL, _LABEL, _NUMBER, _NUMBER,
       _NUMBER, _LABEL))
PARSE_CODES = {"INVALID_PROTOCOL", "INVALID_LABEL", "INVALID_VERSION", "MALFORMED"}


def _grammar_name(text):
    """The name the reference grammar reads in ``text``, or None."""
    match = NAME_GRAMMAR.fullmatch(text)
    if match is None:
        return None
    protocol, agent_id, capability, provider, major, minor, patch, extension = match.groups()
    version = Version(int(major), int(minor), None if patch is None else int(patch))
    return AnsName(protocol, agent_id, capability, provider, version, extension)


# Fragments near every edge of the grammar: case, label length 63 / 64,
# hyphen placement, leading zeros, non-ASCII digits, newlines, dots.
FRAGMENTS = (
    "a", "ab", "a-b", "a--b", "-a", "a-", "A", "aB", "x1", "a" * 63, "a" * 64,
    "a" + "-" * 61 + "b", "0", "00", "01", "10", "1", "v1", "v0", "v01", "V1", "v", "vv1",
    "\u0661", "v\u0661", "\u00b2", "\uff11", "\u00e9", "a_b", "a b", "a\n", "\n", "", "v1\n",
)
PROTOCOL_TEXTS = ("a2a", "mcp", "acp", "custom", "A2A", "http", "a2a:", "")
SEPARATORS = ("://", "://", "://", ":/", "//", "")
VALID_TOKENS = (("ag", "cap", "prov", "v1", "2", "prod"), ("ag", "cap", "prov", "v1", "2", "3", "x"))


@st.composite
def name_texts(draw):
    """Texts shaped like names: a valid name with up to three tokens
    replaced, inserted or deleted, so most are one edit away from valid."""
    tokens = list(draw(st.sampled_from(VALID_TOKENS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        fragment = draw(st.one_of(st.sampled_from(FRAGMENTS),
                                  st.text(alphabet="abz09v-.\nA\u0661", max_size=5)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "replace":
            tokens[i] = fragment
        elif edit == "insert":
            tokens.insert(i, fragment)
        elif len(tokens) > 1:
            del tokens[i]
    text = (draw(st.sampled_from(PROTOCOL_TEXTS)) + draw(st.sampled_from(SEPARATORS))
            + ".".join(tokens))
    return text + draw(st.sampled_from(("", "", "", "\n", ".", " ")))


def _outcome(parse_text, text):
    try:
        return parse_text(text)
    except AnsError as exc:
        return exc.code


def _assert_parse_agrees_with_the_grammar(text):
    outcome = _outcome(parse, text)
    expected = _grammar_name(text)
    if expected is None:
        assert outcome in PARSE_CODES, text
    else:
        assert outcome == expected, text
        assert outcome.render() == text


@settings(max_examples=1000, deadline=None)
@given(text=name_texts())
def test_single_pattern_agrees_with_the_field_checks(text):
    """``parse`` accepts exactly what the reference grammar accepts, returns
    the name the grammar reads, rejects everything else with a parse code,
    and every accepted text renders back to itself, so no two texts alias
    one name."""
    _assert_parse_agrees_with_the_grammar(text)


def test_single_pattern_agrees_on_every_one_fragment_edit():
    """Every fragment in every token position of a valid name, exhaustively,
    so each edge case meets each field at least once."""
    for base in VALID_TOKENS:
        for i in range(len(base)):
            for fragment in FRAGMENTS:
                for protocol in PROTOCOL_TEXTS:
                    _assert_parse_agrees_with_the_grammar(
                        protocol + "://" + ".".join(base[:i] + (fragment,) + base[i + 1:]))


LABELS = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?", fullmatch=True)
NUMBERS = st.integers(0, 10**9).map(str)


@settings(max_examples=200, deadline=None)
@given(protocol=st.sampled_from(names.PROTOCOLS), labels=st.lists(LABELS, min_size=4, max_size=4),
       numbers=st.lists(NUMBERS, min_size=2, max_size=3))
def test_accepted_names_render_as_their_text(protocol, labels, numbers):
    agent_id, capability, provider, extension = labels
    text = f"{protocol}://{agent_id}.{capability}.{provider}.v{'.'.join(numbers)}.{extension}"
    assert parse(text) == _grammar_name(text)
    assert parse(text).render() == text


@pytest.mark.parametrize("text", [
    "a2a://x.cap.prov.v1\n.0.prod",
    "a2a://x.cap.prov.v1.0\n.prod",
    "a2a://x.cap.prov.v1.0.2\n.prod",
    "a2a://x\n.cap.prov.v1.0.prod",
    "a2a://x.cap.prov.v1.0.prod\n",
])
def test_newline_before_a_field_end_is_rejected(text):
    assert NAME_GRAMMAR.fullmatch(text) is None
    with pytest.raises(AnsError) as err:
        parse(text)
    assert err.value.code in PARSE_CODES


def test_newline_labels_and_versions_are_rejected():
    for value in ("ok\n", "ok\n\n", "\nok"):
        with pytest.raises(AnsError) as err:
            names.validate_label(value)
        assert err.value.code == "INVALID_LABEL"
    with pytest.raises(AnsError) as err:
        Version.parse("1.2\n")
    assert err.value.code == "INVALID_VERSION"
    for params in ({"capability": "cap-a\n"}, {"env": "prod\n"}, {"version": "1.2\n"},
                   {"capability": "cap-a", "version": ">=1.0\n"}):
        with pytest.raises(AnsError):
            NameQuery.from_params(params)


# More digits than ``int`` converts (4,300 by default).
LONG_NUMBER = "9" * 5_000


def _parse_grammatical(text):
    """``parse`` of a text that the reference grammar accepts."""
    assert NAME_GRAMMAR.fullmatch(text) is not None
    return parse(text)


@pytest.mark.parametrize("read,text", [
    (parse, f"a2a://x.cap.prov.v{LONG_NUMBER}.0.prod"),
    (parse, f"a2a://x.cap.prov.v1.{LONG_NUMBER}.prod"),
    (parse, f"a2a://x.cap.prov.v1.0.{LONG_NUMBER}.prod"),
    (_parse_grammatical, f"a2a://x.cap.prov.v{LONG_NUMBER}.0.prod"),
    (Version.parse, f"{LONG_NUMBER}.0"),
    (Version.parse, f"1.0.{LONG_NUMBER}"),
    (VersionRequirement.parse, f"{LONG_NUMBER}.0"),
    (VersionRequirement.parse, f">=1.{LONG_NUMBER}"),
], ids=["parse-major", "parse-minor", "parse-patch", "grammar-major", "version-major",
        "version-patch", "requirement-exact", "requirement-at-least"])
def test_version_number_too_long_to_convert_is_invalid_version(read, text):
    with pytest.raises(AnsError) as err:
        read(text)
    assert err.value.code == "INVALID_VERSION"


def test_version_number_as_long_as_int_converts_still_parses():
    """The only limit on a version number's digits is ``int``'s own."""
    digits = "9" * sys.get_int_max_str_digits()
    name = parse(f"a2a://x.cap.prov.v{digits}.0.prod")
    assert name.version.major == int(digits)
    assert name.render() == f"a2a://x.cap.prov.v{digits}.0.prod"
    assert Version.parse(f"1.{digits}").minor == int(digits)
