"""Deterministic text serialization for everything that gets signed or persisted.

One encoding rules them all: certificates, registration requests, challenges,
proofs, handshake transcripts, policy files, snapshots. The rules:

  - UTF-8 JSON with object keys sorted lexicographically
  - no insignificant whitespace
  - integers in decimal; floats are rejected outright (their text form is
    platform folklore, not a contract)
  - byte values rendered as lowercase hex strings

Identical input therefore yields identical bytes on every platform, which is
what makes signatures over these documents portable.
"""

from __future__ import annotations

import json
from typing import Any

from cryptography.hazmat.primitives import hashes


def _normalize(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not canonicalizable; use integers")
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"map keys must be text, got {type(key).__name__}")
            out[key] = _normalize(item)
        return out
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canonical_json(value: Any) -> str:
    """Render a value as canonical text."""
    return json.dumps(
        _normalize(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def canonical_bytes(value: Any) -> bytes:
    """Canonical text encoded as UTF-8, ready for hashing or signing."""
    return canonical_json(value).encode("utf-8")


# SHA-256 comes from ``cryptography``, and randomness from ``os.urandom`` and
# ``random.SystemRandom`` (what ``secrets`` wraps), rather than from
# ``hashlib`` and ``secrets``: those load the system's OpenSSL a second time,
# beside the copy ``cryptography`` links, for about 4 MB more per process.
def sha256(data: bytes) -> bytes:
    digest = hashes.Hash(hashes.SHA256())
    digest.update(data)
    return digest.finalize()
