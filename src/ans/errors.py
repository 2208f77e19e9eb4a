"""Closed error vocabulary shared by the registry, server, client SDK, and CLI.

Every failure that crosses a module or wire boundary carries one of the codes
below, and ``STATUS_BY_CODE`` gives each its HTTP status; the CLI maps codes to
exit codes. Codes outside this set are a bug.

Every document from outside the process (a request body, a handshake
message, a registry reply, a config, anchor, identity, CA, manifest or
policy file, an event-log line, a snapshot) is decoded through
``decode_doc``, or ``read_doc`` for a file, so the exceptions that mean
"this document is malformed" are listed once, in ``DECODE_ERRORS``, and each
reader only chooses the code they become. ``read_fields`` then checks a
decoded map against a closed schema.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

# Name grammar
INVALID_PROTOCOL = "INVALID_PROTOCOL"
INVALID_LABEL = "INVALID_LABEL"
INVALID_VERSION = "INVALID_VERSION"
MALFORMED = "MALFORMED"
INVALID_NAME = "INVALID_NAME"

# Certificates and chains
ROLE_VIOLATION = "ROLE_VIOLATION"
WINDOW_EXCEEDED = "WINDOW_EXCEEDED"
UNTRUSTED_ROOT = "UNTRUSTED_ROOT"
CHAIN_INVALID = "CHAIN_INVALID"
CERT_EXPIRED = "CERT_EXPIRED"
CERT_NOT_YET_VALID = "CERT_NOT_YET_VALID"

# Attestation
CHALLENGE_EXPIRED = "CHALLENGE_EXPIRED"
NONCE_REPLAY = "NONCE_REPLAY"
CAPABILITY_MISMATCH = "CAPABILITY_MISMATCH"
UNKNOWN_CAPABILITY = "UNKNOWN_CAPABILITY"
BAD_SIGNATURE = "BAD_SIGNATURE"

# Policy
POLICY_PARSE = "POLICY_PARSE"
POLICY_DENIED = "POLICY_DENIED"

# Registry
NAME_MISMATCH = "NAME_MISMATCH"
DUPLICATE_AGENT = "DUPLICATE_AGENT"
UNKNOWN_AGENT = "UNKNOWN_AGENT"
REVOKED = "REVOKED"
LOG_CORRUPT = "LOG_CORRUPT"

# Client
HANDSHAKE_TIMEOUT = "HANDSHAKE_TIMEOUT"

# Server
UNKNOWN_ROUTE = "UNKNOWN_ROUTE"
INTERNAL = "INTERNAL"

# Every code above, with the HTTP status the server answers it with.
STATUS_BY_CODE = {
    INVALID_PROTOCOL: 400,
    INVALID_LABEL: 400,
    INVALID_VERSION: 400,
    MALFORMED: 400,
    INVALID_NAME: 400,
    NAME_MISMATCH: 400,
    ROLE_VIOLATION: 400,
    WINDOW_EXCEEDED: 400,
    POLICY_PARSE: 400,
    BAD_SIGNATURE: 401,
    NONCE_REPLAY: 401,
    CHALLENGE_EXPIRED: 401,
    CHAIN_INVALID: 401,
    CERT_EXPIRED: 401,
    CERT_NOT_YET_VALID: 401,
    UNTRUSTED_ROOT: 401,
    POLICY_DENIED: 403,
    CAPABILITY_MISMATCH: 403,
    UNKNOWN_CAPABILITY: 403,
    REVOKED: 403,
    UNKNOWN_AGENT: 404,
    UNKNOWN_ROUTE: 404,
    DUPLICATE_AGENT: 409,
    LOG_CORRUPT: 500,
    HANDSHAKE_TIMEOUT: 500,
    INTERNAL: 500,
}
ERROR_CODES = frozenset(STATUS_BY_CODE)

# Codes that are verdicts rather than malfunctions.
DENIAL_CODES = frozenset({
    POLICY_DENIED, CAPABILITY_MISMATCH, NONCE_REPLAY, CHALLENGE_EXPIRED,
    BAD_SIGNATURE, UNKNOWN_CAPABILITY,
})


class AnsError(Exception):
    """Error with a code from the closed set, plus optional structured details."""

    def __init__(self, code: str, message: str, details: Any = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code: {code}")
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details = details

    def to_doc(self) -> dict:
        doc: dict = {"error": self.code, "message": self.message}
        if self.details is not None:
            doc["details"] = self.details
        return doc


# What a decoder raises on a malformed document: a missing key or attribute,
# a value of the wrong type, text that does not parse or decode (a
# ``UnicodeDecodeError`` is a ``ValueError``), a number too large to convert,
# and nesting too deep to decode.
DECODE_ERRORS = (AttributeError, KeyError, OverflowError, RecursionError, TypeError, ValueError)


def decode_doc(what: str, decode, doc, code: str = MALFORMED, details: Any = None):
    """``decode(doc)``, with a malformed document raised as ``code``, naming
    ``what``. An ``AnsError`` that ``decode`` raises passes through."""
    try:
        return decode(doc)
    except DECODE_ERRORS as exc:
        raise AnsError(code, f"bad {what}: {exc}", details) from exc


def read_doc(path: str, what: str, decode, code: str = MALFORMED):
    """``decode_doc`` of the bytes of the file at ``path``, naming the file."""
    with open(path, "rb") as fh:
        return decode_doc(f"{what} {path}", decode, fh.read(), code)


class Check(NamedTuple):
    """A test of one value for ``read_fields``, and what it expects."""

    expected: str
    accepts: Callable[[Any], bool]


STRING = Check("a string", lambda v: isinstance(v, str))
NON_EMPTY_STRING = Check("a non-empty string", lambda v: isinstance(v, str) and v != "")
BOOL = Check("a bool", lambda v: isinstance(v, bool))
MAP = Check("a map", lambda v: isinstance(v, dict))
LIST = Check("a list", lambda v: isinstance(v, list))
STRING_LIST = Check("a list of strings",
                    lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))
# type(), not isinstance(): a bool is not a count.
NON_NEGATIVE_INT = Check("a non-negative integer", lambda v: type(v) is int and v >= 0)
POSITIVE_INT = Check("a positive integer", lambda v: type(v) is int and v > 0)


def one_of(*values) -> Check:
    """Equal to one of ``values``."""
    return Check(" or ".join(map(repr, values)), lambda v: v in values)


_REQUIRED = object()


def read_fields(doc, where: str, fields: dict, code: str = MALFORMED) -> dict:
    """The values of the map ``doc`` under a closed schema.

    ``fields`` maps every allowed key to a ``Check``, for a required key, or
    to ``(check, default)``, for an optional one whose absence reads as
    ``default``. A ``doc`` that is not a map, an unknown or missing key, and
    a value its check refuses raise ``code``, naming ``where``.
    """
    if not isinstance(doc, dict):
        raise AnsError(code, f"expected a map (at {where})")
    for key in doc:
        if key not in fields:
            raise AnsError(code, f"unknown key {key!r} (at {where})")
    values = {}
    for key, field in fields.items():
        check, default = (field, _REQUIRED) if isinstance(field, Check) else field
        if key not in doc:
            if default is _REQUIRED:
                raise AnsError(code, f"missing required key {key!r} (at {where})")
            values[key] = default
        elif check.accepts(doc[key]):
            values[key] = doc[key]
        else:
            raise AnsError(code, f"{key!r} must be {check.expected} (at {where})")
    return values


class TransportError(Exception):
    """Network-level failure talking to a registry or peer.

    Deliberately not an AnsError: a dead socket is not a protocol verdict.
    """
