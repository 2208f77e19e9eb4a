"""Seeded generators shared across test modules.

Generated values are drawn from the full grammar (not just happy-path
shapes): labels cover length 1..63 with interior hyphens and digits,
versions cover both 2- and 3-component forms including zeros.
``mutated`` is a Hypothesis strategy of near-miss JSON documents.
"""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from ans.names import AnsName, PROTOCOLS, Version

_LABEL_CHARS = string.ascii_lowercase + string.digits
_LABEL_INNER = _LABEL_CHARS + "-"


def random_label(rng: random.Random, max_len: int = 63) -> str:
    length = rng.choice((1, 1, 2, 3, 5, 8, 12, rng.randint(1, max_len)))
    if length == 1:
        return rng.choice(_LABEL_CHARS)
    inner = "".join(rng.choice(_LABEL_INNER) for _ in range(length - 2))
    label = rng.choice(_LABEL_CHARS) + inner + rng.choice(_LABEL_CHARS)
    # no doubled cosmetic constraint needed: interior hyphens are legal
    return label


def random_version(rng: random.Random) -> Version:
    major = rng.choice((0, 1, 2, 9, 10, rng.randint(0, 999)))
    minor = rng.choice((0, 1, 5, rng.randint(0, 99)))
    patch = rng.choice((None, 0, 1, rng.randint(0, 99)))
    return Version(major, minor, patch)


def random_name(rng: random.Random) -> AnsName:
    return AnsName(
        protocol=rng.choice(PROTOCOLS),
        agent_id=random_label(rng),
        capability=random_label(rng),
        provider=random_label(rng),
        version=random_version(rng),
        extension=random_label(rng),
    )


# A value of each JSON type, by its Python type.
_JSON_BY_TYPE = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(),
    str: st.text(max_size=8),
    list: st.lists(st.text(max_size=4) | st.integers(), max_size=3),
    dict: st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}


@st.composite
def mutated(draw, doc):
    """``doc`` with one change at any depth: a key dropped from a map, an
    unknown key added to one, or a value replaced by one of another JSON type."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict) else range(len(doc))))
        copy[key] = draw(mutated(doc[key]))
        return copy
    changes = ["retype"]
    if isinstance(doc, dict):
        changes += ["add", "drop"] if doc else ["add"]
    change = draw(st.sampled_from(changes))
    if change == "drop":
        key = draw(st.sampled_from(sorted(doc)))
        return {k: v for k, v in doc.items() if k != key}
    if change == "add":
        key = draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in doc))
        return {**doc, key: draw(st.one_of(*_JSON_BY_TYPE.values()))}
    other = draw(st.sampled_from([t for t in _JSON_BY_TYPE if t is not type(doc)]))
    return draw(_JSON_BY_TYPE[other])
