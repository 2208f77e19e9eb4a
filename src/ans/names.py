"""Hierarchical agent names: parsing, formatting, version order, query matching.

The rendered form is

    <protocol>://<agent_id>.<capability>.<provider>.v<version>.<extension>

with exactly five fields after the scheme. Field labels are DNS-label-like
(lowercase alphanumerics with interior hyphens, at most 63 characters); dots
are excluded because they delimit fields. The version field starts with ``v``
and holds two or three numeric components, so the dot-split token count is
six (``v2.1``) or seven (``v1.2.3``) and parsing stays unambiguous.
``parse`` is one path: it checks each field in turn, and the first field
that fails names the error.

All values here are immutable; every function is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    AnsError,
    INVALID_LABEL,
    INVALID_NAME,
    INVALID_PROTOCOL,
    INVALID_VERSION,
    MALFORMED,
    decode_doc,
)

PROTOCOLS = ("a2a", "mcp", "acp", "custom")

MAX_LABEL_LENGTH = 63
# Both are used with ``fullmatch``: ``$`` would also match before a final
# newline, letting ``"ok\n"`` pass as a label. Numbers have no leading
# zeros and ASCII digits only.
_LABEL_RE = re.compile(r"[a-z0-9]([a-z0-9-]*[a-z0-9])?")
_NUMBER_RE = re.compile(r"0|[1-9][0-9]*")


def validate_label(value: str, field: str = "label") -> str:
    """Return value if it is a valid label, else raise INVALID_LABEL."""
    if not isinstance(value, str) or not value:
        raise AnsError(INVALID_LABEL, f"{field} must be a non-empty string")
    if len(value) > MAX_LABEL_LENGTH:
        raise AnsError(INVALID_LABEL, f"{field} {value!r} exceeds {MAX_LABEL_LENGTH} characters")
    if not _LABEL_RE.fullmatch(value):
        raise AnsError(
            INVALID_LABEL,
            f"{field} {value!r} must be lowercase alphanumerics with interior hyphens",
        )
    return value


def _parse_number(token: str, field: str) -> int:
    if not _NUMBER_RE.fullmatch(token):
        raise AnsError(INVALID_VERSION, f"{field} component {token!r} is not a plain decimal")
    # A number too long for ``int`` to convert is INVALID_VERSION too.
    return decode_doc("version component", int, token, INVALID_VERSION)


@dataclass(frozen=True, slots=True)
class Version:
    """Two- or three-part semantic version. Absent patch orders as 0 but
    renders distinctly (``v1.2`` is not the same name as ``v1.2.0``)."""

    major: int
    minor: int
    patch: int | None = None

    def render(self) -> str:
        if self.patch is None:
            return f"v{self.major}.{self.minor}"
        return f"v{self.major}.{self.minor}.{self.patch}"

    def sort_key(self) -> tuple[int, int, int]:
        return (self.major, self.minor, self.patch if self.patch is not None else 0)

    @classmethod
    def parse(cls, text: str) -> "Version":
        """Parse a bare version like ``2.1`` or ``1.2.3`` (no leading ``v``)."""
        parts = text.split(".")
        if len(parts) not in (2, 3):
            raise AnsError(INVALID_VERSION, f"version {text!r} must have 2 or 3 components")
        numbers = [_parse_number(p, "version") for p in parts]
        return cls(numbers[0], numbers[1], numbers[2] if len(numbers) == 3 else None)


def compare_versions(a: Version, b: Version) -> int:
    """Total order: -1, 0, or 1. Absent patch compares as 0."""
    ka, kb = a.sort_key(), b.sort_key()
    return (ka > kb) - (ka < kb)


@dataclass(frozen=True, slots=True)
class AnsName:
    protocol: str
    agent_id: str
    capability: str
    provider: str
    version: Version
    extension: str

    def render(self) -> str:
        return (
            f"{self.protocol}://{self.agent_id}.{self.capability}."
            f"{self.provider}.{self.version.render()}.{self.extension}"
        )

    def __str__(self) -> str:
        return self.render()


def format_name(name: AnsName) -> str:
    return name.render()


def parse(text: str) -> AnsName:
    """Parse a rendered agent name into its six components, checking each
    field in turn and raising the error of the first field that fails.

    Raises AnsError with code INVALID_PROTOCOL, INVALID_LABEL, INVALID_VERSION,
    or MALFORMED (wrong field count / missing scheme separator).
    """
    if not isinstance(text, str):
        raise AnsError(MALFORMED, "name must be a string")
    scheme, sep, rest = text.partition("://")
    if not sep:
        raise AnsError(MALFORMED, f"name {text!r} is missing '://'")
    if scheme not in PROTOCOLS:
        raise AnsError(INVALID_PROTOCOL, f"unknown protocol {scheme!r}")
    tokens = rest.split(".")
    # six tokens: major.minor version; seven: major.minor.patch
    if len(tokens) not in (6, 7):
        raise AnsError(
            MALFORMED,
            f"name {text!r} must have five dot-separated fields after the scheme",
        )
    agent_id = validate_label(tokens[0], "agent_id")
    capability = validate_label(tokens[1], "capability")
    provider = validate_label(tokens[2], "provider")
    vtoken = tokens[3]
    if not vtoken.startswith("v"):
        if len(tokens) == 7:
            # no 'v' marker means this cannot be a three-part version, so the
            # string has six fields, which is a field-count problem
            raise AnsError(
                MALFORMED,
                f"name {text!r} must have five dot-separated fields after the scheme",
            )
        raise AnsError(INVALID_VERSION, f"version field {vtoken!r} must start with 'v'")
    major = _parse_number(vtoken[1:], "version")
    minor = _parse_number(tokens[4], "version")
    if len(tokens) == 7:
        patch: int | None = _parse_number(tokens[5], "version")
        extension = validate_label(tokens[6], "extension")
    else:
        patch = None
        extension = validate_label(tokens[5], "extension")
    return AnsName(scheme, agent_id, capability, provider, Version(major, minor, patch), extension)


# Version requirements used by queries: exact, at_least, or latest.
EXACT = "exact"
AT_LEAST = "at_least"
LATEST = "latest"


@dataclass(frozen=True)
class VersionRequirement:
    kind: str
    version: Version | None = None

    @classmethod
    def exact(cls, version: Version) -> "VersionRequirement":
        return cls(EXACT, version)

    @classmethod
    def at_least(cls, version: Version) -> "VersionRequirement":
        return cls(AT_LEAST, version)

    @classmethod
    def latest(cls) -> "VersionRequirement":
        return cls(LATEST)

    @classmethod
    def parse(cls, text: str) -> "VersionRequirement":
        """Accepts ``latest``, ``2.1``, or ``>=2.0``."""
        if not isinstance(text, str) or not text:
            raise AnsError(INVALID_NAME, "empty version constraint")
        if text == "latest":
            return cls.latest()
        if text.startswith(">="):
            return cls.at_least(Version.parse(text[2:]))
        if text[0].isdigit():
            return cls.exact(Version.parse(text))
        raise AnsError(INVALID_NAME, f"version constraint {text!r} is not 'latest', 'X.Y', or '>=X.Y'")

    def render(self) -> str:
        if self.kind == LATEST:
            return "latest"
        assert self.version is not None
        bare = self.version.render()[1:]
        return bare if self.kind == EXACT else f">={bare}"


# ``/v1/resolve`` parameter -> ``NameQuery`` field, in the order clients send them.
QUERY_PARAMS = {"protocol": "protocol", "agent": "agent_id", "capability": "capability",
                "provider": "provider", "env": "extension", "version": "version_req"}


@dataclass(frozen=True)
class NameQuery:
    """Partial name predicate. Absent fields match anything; at least one
    field must be set. ``latest`` is resolved by the registry, not here."""

    protocol: str | None = None
    agent_id: str | None = None
    capability: str | None = None
    provider: str | None = None
    extension: str | None = None
    version_req: VersionRequirement | None = None

    def __post_init__(self) -> None:
        if self.protocol is not None and self.protocol not in PROTOCOLS:
            raise AnsError(INVALID_PROTOCOL, f"unknown protocol {self.protocol!r}")
        for field_name in ("agent_id", "capability", "provider", "extension"):
            value = getattr(self, field_name)
            if value is not None:
                validate_label(value, field_name)
        if all(
            getattr(self, f) is None
            for f in ("protocol", "agent_id", "capability", "provider", "extension", "version_req")
        ):
            raise AnsError(INVALID_NAME, "query must constrain at least one field")

    @classmethod
    def from_params(cls, params) -> "NameQuery":
        """The query a map of ``QUERY_PARAMS`` names to text asks for."""
        unknown = set(params) - QUERY_PARAMS.keys()
        if unknown:
            raise AnsError(INVALID_NAME, f"unknown query parameters: {sorted(unknown)}")
        fields = {QUERY_PARAMS[p]: value for p, value in params.items()}
        if "version_req" in fields:
            fields["version_req"] = VersionRequirement.parse(fields["version_req"])
        return cls(**fields)

    def to_params(self) -> dict[str, str]:
        """The parameters ``from_params`` reads back as this query."""
        params = {p: value for p, f in QUERY_PARAMS.items()
                  if (value := getattr(self, f)) is not None}
        if "version" in params:
            params["version"] = params["version"].render()
        return params


def matches(name: AnsName, query: NameQuery) -> bool:
    """True iff every set query field equals the corresponding name field and
    the version requirement holds (``latest`` matches any version here)."""
    if query.protocol is not None and name.protocol != query.protocol:
        return False
    if query.agent_id is not None and name.agent_id != query.agent_id:
        return False
    if query.capability is not None and name.capability != query.capability:
        return False
    if query.provider is not None and name.provider != query.provider:
        return False
    if query.extension is not None and name.extension != query.extension:
        return False
    req = query.version_req
    if req is None or req.kind == LATEST:
        return True
    assert req.version is not None
    cmp = compare_versions(name.version, req.version)
    if req.kind == EXACT:
        return cmp == 0
    return cmp >= 0
