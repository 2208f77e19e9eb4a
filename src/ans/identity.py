"""Key pairs, DIDs, and the fixed three-tier certificate hierarchy.

Certificates are a bespoke canonical-text format (see canonical.py), not
X.509: root signs intermediate, intermediate signs agent, and chain depth is
exactly three. Signing is Ed25519 (32-byte public keys, 64-byte signatures,
deterministic), hashing SHA-256. Agent certificates carry capability
commitments as extensions so verifiers can check capability proofs against
certified data instead of anything self-asserted.
"""

from __future__ import annotations

import base64
import functools
import os
import random
import time
from collections.abc import MutableMapping
from dataclasses import dataclass, replace

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import names
from .canonical import canonical_bytes as encode_canonical, sha256
from .errors import (
    AnsError,
    CERT_EXPIRED,
    CERT_NOT_YET_VALID,
    CHAIN_INVALID,
    ROLE_VIOLATION,
    UNTRUSTED_ROOT,
    WINDOW_EXCEEDED,
)

ROLE_ROOT = "root"
ROLE_INTERMEDIATE = "intermediate"
ROLE_AGENT = "agent"

# Default validity windows, in seconds. Agent certificates run 90 days;
# intermediates a year; roots ten years.
AGENT_VALIDITY_S = 90 * 86400
INTERMEDIATE_VALIDITY_S = 365 * 86400
ROOT_VALIDITY_S = 3650 * 86400

DID_PREFIX = "did:ans:"


@dataclass(frozen=True)
class KeyPair:
    """Ed25519 key pair. ``private_key`` is the 32-byte seed; it never appears
    in any document this package serializes."""

    public_key: bytes
    private_key: bytes

    @classmethod
    def generate(cls, seed: bytes | None = None) -> "KeyPair":
        """Deterministic for a fixed 32-byte seed; otherwise uses the OS CSPRNG."""
        if seed is None:
            seed = os.urandom(32)
        if len(seed) != 32:
            raise ValueError("seed must be exactly 32 bytes")
        private = Ed25519PrivateKey.from_private_bytes(seed)
        public = private.public_key().public_bytes_raw()
        return cls(public_key=public, private_key=seed)

    @functools.cached_property
    def _signer(self) -> Ed25519PrivateKey:
        """The private-key object, built once: building it costs as much as
        the signature itself."""
        return Ed25519PrivateKey.from_private_bytes(self.private_key)

    def sign(self, message: bytes) -> bytes:
        return self._signer.sign(message)


def verify_signature(public_key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def derive_did(public_key: bytes) -> str:
    """``did:ans:<base32(sha256(public_key))>``, deterministic and unpadded."""
    encoded = base64.b32encode(sha256(public_key)).decode("ascii").rstrip("=").lower()
    return DID_PREFIX + encoded


@dataclass(frozen=True, slots=True)
class CapabilityCommitment:
    """Public half of a capability-scoped key, bound into agent certificates.

    Reveals nothing about the capability secret; one commitment per capability
    per agent.
    """

    capability: str
    commitment_key: bytes

    def to_doc(self) -> dict:
        return {"capability": self.capability, "commitment_key": self.commitment_key.hex()}

    @classmethod
    def from_doc(cls, doc: dict) -> "CapabilityCommitment":
        return cls(
            capability=names.validate_label(doc["capability"], "capability"),
            commitment_key=bytes.fromhex(doc["commitment_key"]),
        )


class _WeakReferable:
    """A slotted base that lets slotted subclasses be weakly referenced, as
    ``dataclass(weakref_slot=True)`` does from Python 3.11 on."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Certificate(_WeakReferable):
    serial: int
    subject_did: str
    issuer_did: str
    public_key: bytes
    not_before: int
    not_after: int
    role: str
    capability_commitments: tuple[CapabilityCommitment, ...] = ()
    subject_name: names.AnsName | None = None
    signature: bytes = b""

    def unsigned_doc(self) -> dict:
        doc: dict = {
            "serial": self.serial,
            "subject_did": self.subject_did,
            "issuer_did": self.issuer_did,
            "public_key": self.public_key.hex(),
            "not_before": self.not_before,
            "not_after": self.not_after,
            "role": self.role,
            "capability_commitments": [c.to_doc() for c in self.capability_commitments],
        }
        if self.subject_name is not None:
            doc["subject_name"] = self.subject_name.render()
        return doc

    def to_doc(self) -> dict:
        doc = self.unsigned_doc()
        doc["signature"] = self.signature.hex()
        return doc

    @classmethod
    def from_doc(
        cls,
        doc: dict,
        subject_name: names.AnsName | None = None,
        commitments: tuple[CapabilityCommitment, ...] | None = None,
    ) -> "Certificate":
        """Decode a certificate document.

        ``subject_name`` and ``commitments``, when given, must be the decoded
        form of the document's own ``subject_name`` text and
        ``capability_commitments`` list; they are used as they are instead of
        being decoded a second time.
        """
        name_text = doc.get("subject_name")
        return cls(
            serial=int(doc["serial"]),
            subject_did=doc["subject_did"],
            issuer_did=doc["issuer_did"],
            public_key=bytes.fromhex(doc["public_key"]),
            not_before=int(doc["not_before"]),
            not_after=int(doc["not_after"]),
            role=doc["role"],
            capability_commitments=commitments if commitments is not None else tuple(
                CapabilityCommitment.from_doc(c) for c in doc.get("capability_commitments", [])
            ),
            subject_name=(
                subject_name if subject_name is not None
                else names.parse(name_text) if name_text is not None else None
            ),
            signature=bytes.fromhex(doc["signature"]),
        )


def canonical_cert_bytes(cert: Certificate) -> bytes:
    """Byte string the issuer signs: every field except the signature."""
    return encode_canonical(cert.unsigned_doc())


@dataclass(frozen=True, slots=True)
class CertificateChain:
    """agent -> intermediate -> root, in that order."""

    agent: Certificate
    intermediate: Certificate
    root: Certificate

    def to_doc(self) -> list:
        return [self.agent.to_doc(), self.intermediate.to_doc(), self.root.to_doc()]

    def links(self) -> tuple[tuple[Certificate, Certificate], ...]:
        """Each certificate with the one whose key signs it, agent first."""
        return ((self.agent, self.intermediate), (self.intermediate, self.root),
                (self.root, self.root))

    @classmethod
    def from_doc(cls, doc: list, certificate=Certificate.from_doc) -> "CertificateChain":
        """Decode a chain; ``certificate`` decodes each of its three documents."""
        if not isinstance(doc, list) or len(doc) != 3:
            raise AnsError(CHAIN_INVALID, "chain must be a 3-element array")
        return cls(
            agent=certificate(doc[0]),
            intermediate=certificate(doc[1]),
            root=certificate(doc[2]),
        )


def _random_serial() -> int:
    return random.SystemRandom().getrandbits(63)


def issue_certificate(
    issuer_keys: KeyPair,
    issuer_cert: Certificate | None,
    subject_public_key: bytes,
    role: str,
    validity_seconds: int,
    subject_name: names.AnsName | None = None,
    commitments: tuple[CapabilityCommitment, ...] = (),
    not_before: int | None = None,
    serial: int | None = None,
    now: int | None = None,
) -> Certificate:
    """Issue a certificate down the fixed hierarchy.

    ``issuer_cert=None`` self-signs a root. Roots issue intermediates,
    intermediates issue agents; anything else is ROLE_VIOLATION. The subject
    window must sit inside the issuer's own window (WINDOW_EXCEEDED).
    """
    if validity_seconds <= 0:
        raise ValueError("validity_seconds must be positive")
    if now is None:
        now = int(time.time())
    start = now if not_before is None else not_before
    end = start + validity_seconds

    if issuer_cert is None:
        if role != ROLE_ROOT:
            raise AnsError(ROLE_VIOLATION, "only root certificates may be self-signed")
        if subject_public_key != issuer_keys.public_key:
            raise AnsError(ROLE_VIOLATION, "self-signed root must certify its own key")
        issuer_did = derive_did(issuer_keys.public_key)
    else:
        allowed = {ROLE_ROOT: ROLE_INTERMEDIATE, ROLE_INTERMEDIATE: ROLE_AGENT}
        if allowed.get(issuer_cert.role) != role:
            raise AnsError(
                ROLE_VIOLATION,
                f"{issuer_cert.role} certificates cannot issue {role} certificates",
            )
        if issuer_cert.public_key != issuer_keys.public_key:
            raise AnsError(ROLE_VIOLATION, "issuer key does not match issuer certificate")
        if start < issuer_cert.not_before or end > issuer_cert.not_after:
            raise AnsError(
                WINDOW_EXCEEDED,
                "subject validity extends outside the issuer's own window",
            )
        issuer_did = issuer_cert.subject_did

    if role == ROLE_AGENT and subject_name is None:
        raise ValueError("agent certificates require a subject name")
    if role != ROLE_AGENT and (subject_name is not None or commitments):
        raise ValueError("only agent certificates carry names and commitments")
    seen = {c.capability for c in commitments}
    if len(seen) != len(commitments):
        raise ValueError("duplicate capability commitment")

    cert = Certificate(
        serial=_random_serial() if serial is None else serial,
        subject_did=derive_did(subject_public_key),
        issuer_did=issuer_did,
        public_key=subject_public_key,
        not_before=start,
        not_after=end,
        role=role,
        capability_commitments=tuple(sorted(commitments, key=lambda c: c.capability)),
        subject_name=subject_name,
    )
    return replace(cert, signature=issuer_keys.sign(canonical_cert_bytes(cert)))


def self_signed_root(keys: KeyPair, validity_seconds: int = ROOT_VALIDITY_S,
                     now: int | None = None) -> Certificate:
    return issue_certificate(keys, None, keys.public_key, ROLE_ROOT, validity_seconds, now=now)


@dataclass(frozen=True)
class CaSetup:
    root_keys: KeyPair
    root_cert: Certificate
    intermediate_keys: KeyPair
    intermediate_cert: Certificate

    @property
    def anchors(self) -> tuple[Certificate, ...]:
        return (self.root_cert,)


def build_ca(now: int | None = None) -> CaSetup:
    """Fresh root and intermediate keys and certificates, both valid from ``now``."""
    if now is None:
        now = int(time.time())
    root_keys = KeyPair.generate()
    root_cert = self_signed_root(root_keys, now=now)
    inter_keys = KeyPair.generate()
    inter_cert = issue_certificate(
        root_keys, root_cert, inter_keys.public_key, ROLE_INTERMEDIATE,
        INTERMEDIATE_VALIDITY_S, now=now,
    )
    return CaSetup(root_keys, root_cert, inter_keys, inter_cert)


@dataclass(frozen=True)
class ChainValidation:
    ok: bool
    code: str | None = None
    message: str = "valid"

    def raise_if_invalid(self) -> None:
        if not self.ok:
            assert self.code is not None
            raise AnsError(self.code, self.message)


def _check_window(cert: Certificate, now: int) -> ChainValidation | None:
    if now < cert.not_before:
        return ChainValidation(False, CERT_NOT_YET_VALID, f"{cert.role} certificate not yet valid")
    if now > cert.not_after:
        return ChainValidation(False, CERT_EXPIRED, f"{cert.role} certificate expired")
    return None


def window_error(chain: CertificateChain, now: int) -> ChainValidation | None:
    """The verdict for the first certificate of the chain, agent first, whose
    validity window excludes ``now``; None when all three include it."""
    for cert in (chain.agent, chain.intermediate, chain.root):
        bad = _check_window(cert, now)
        if bad is not None:
            return bad
    return None


def _memo_hit(verified: MutableMapping, cert: Certificate, issuer: Certificate) -> bool:
    known = verified.get((issuer.public_key, cert.signature))
    return known is not None and (known is cert or known == cert)


def validate_chain(
    chain: CertificateChain,
    trust_anchors: tuple[Certificate, ...] | list[Certificate] | set,
    now: int,
    verified: MutableMapping[tuple[bytes, bytes], Certificate] | None = None,
) -> ChainValidation:
    """Validate structure, anchor membership, time windows, then signatures.

    Time windows are checked before any signature so an expired peer fails
    fast with CERT_EXPIRED rather than a generic signature error.

    ``verified`` is an optional memo: (issuer public key, signature) -> the
    certificate whose signature verified under that key. A certificate equal
    in every field to its entry skips its DID derivation and its signature
    verify, which depend on nothing else, so the memo's contents never change
    a verdict: a missing entry costs only the verify it would have saved.
    That lets the memo be a ``weakref.WeakValueDictionary``, whose entries
    live while something else holds their certificates. Structure, issuer
    links, anchor membership and every window are checked on every call. The
    certificates that missed are added only once the whole chain has
    validated, and never replace a live entry.
    """
    agent, inter, root = chain.agent, chain.intermediate, chain.root

    if (agent.role, inter.role, root.role) != (ROLE_AGENT, ROLE_INTERMEDIATE, ROLE_ROOT):
        return ChainValidation(False, CHAIN_INVALID, "chain roles must be agent/intermediate/root")
    if agent.issuer_did != inter.subject_did or inter.issuer_did != root.subject_did:
        return ChainValidation(False, CHAIN_INVALID, "issuer/subject linkage broken")
    if root.issuer_did != root.subject_did:
        return ChainValidation(False, CHAIN_INVALID, "root certificate is not self-signed")
    unverified = [(cert, issuer) for cert, issuer in chain.links()
                  if verified is None or not _memo_hit(verified, cert, issuer)]
    for cert in (agent, inter, root):
        if cert.not_before >= cert.not_after:
            return ChainValidation(False, CHAIN_INVALID, f"{cert.role} validity window is empty")
        if (any(c is cert for c, _ in unverified)
                and cert.subject_did != derive_did(cert.public_key)):
            return ChainValidation(False, CHAIN_INVALID, f"{cert.role} DID does not match its key")

    if root not in trust_anchors:
        return ChainValidation(False, UNTRUSTED_ROOT, "root certificate is not a trust anchor")

    bad = window_error(chain, now)
    if bad is not None:
        return bad

    for cert, issuer in reversed(unverified):
        if not verify_signature(issuer.public_key, cert.signature, canonical_cert_bytes(cert)):
            return ChainValidation(False, CHAIN_INVALID, f"{cert.role} signature does not verify")

    if verified is not None:
        for cert, issuer in unverified:
            verified.setdefault((issuer.public_key, cert.signature), cert)
    return ChainValidation(True)


def remaining_validity(cert: Certificate, now: int) -> int:
    """Seconds until expiry; negative once expired. Feeds the expiry alerts."""
    return cert.not_after - now
