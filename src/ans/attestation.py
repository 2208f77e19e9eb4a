"""Capability commitments and challenge-bound proofs of capability knowledge.

An agent holding a capability keeps a capability-scoped key pair; only the
public half (the commitment) ever leaves the process, bound into the agent's
certificate. To exercise the capability the agent answers a fresh server
nonce with two signatures: the capability key signs the challenge binding,
and the identity key countersigns the whole proof so commitments cannot be
relayed between colluding agents. The verifier learns validity and nothing
else.

Nonces are single-use: consumption is an atomic test-and-remove, so a proof
replayed concurrently or later is rejected with NONCE_REPLAY.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import MutableMapping
from dataclasses import dataclass, replace

from . import names
from .canonical import canonical_bytes
from .errors import (
    AnsError,
    BAD_SIGNATURE,
    CAPABILITY_MISMATCH,
    CHAIN_INVALID,
    CHALLENGE_EXPIRED,
    NONCE_REPLAY,
)
from .identity import (
    CapabilityCommitment,
    Certificate,
    CertificateChain,
    KeyPair,
    validate_chain,
    verify_signature,
)

__all__ = [
    "AttestationResult",
    "CapabilityCommitment",
    "CapabilityProof",
    "CapabilitySecret",
    "Challenge",
    "ChallengeStore",
    "create_capability",
    "prove",
    "verify",
]

CHALLENGE_TTL_S = 60
MAX_OUTSTANDING_CHALLENGES = 100_000


@dataclass(frozen=True)
class CapabilitySecret:
    """Capability-scoped key pair, distinct from the identity key.

    Never serialized into any wire payload or registry record.
    """

    capability: str
    keypair: KeyPair


def create_capability(capability: str, seed: bytes | None = None) -> tuple[CapabilitySecret, CapabilityCommitment]:
    names.validate_label(capability, "capability")
    keys = KeyPair.generate(seed)
    return (
        CapabilitySecret(capability, keys),
        CapabilityCommitment(capability, keys.public_key),
    )


@dataclass(frozen=True)
class Challenge:
    nonce: bytes
    issued_at: int
    expires_at: int
    audience: str  # rendered agent name the challenge was issued to

    def to_doc(self) -> dict:
        return {
            "nonce": self.nonce.hex(),
            "issued_at": self.issued_at,
            "expires_at": self.expires_at,
            "audience": self.audience,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Challenge":
        return cls(
            nonce=bytes.fromhex(doc["nonce"]),
            issued_at=int(doc["issued_at"]),
            expires_at=int(doc["expires_at"]),
            audience=doc["audience"],
        )


class ChallengeStore:
    """Outstanding challenges keyed by nonce, with atomic single consumption.

    Capped; when full, expired entries are evicted first, then the oldest.
    Entries are kept in issue order and share one TTL, so for a clock that
    does not go backwards the oldest entry is also the first to expire, and
    eviction pops from the front only: O(1) amortized per issue.
    """

    def __init__(self, ttl_seconds: int = CHALLENGE_TTL_S,
                 max_entries: int = MAX_OUTSTANDING_CHALLENGES):
        self.ttl_seconds = ttl_seconds
        self.max_entries = max_entries
        self._lock = threading.Lock()
        # Ordered: popping the front of a plain dict rescans the slots
        # already emptied there, which makes each pop O(n).
        self._outstanding: OrderedDict[bytes, Challenge] = OrderedDict()

    def issue(self, audience: names.AnsName | str, now: int) -> Challenge:
        rendered = audience.render() if isinstance(audience, names.AnsName) else audience
        challenge = Challenge(
            nonce=os.urandom(32),
            issued_at=now,
            expires_at=now + self.ttl_seconds,
            audience=rendered,
        )
        with self._lock:
            if len(self._outstanding) >= self.max_entries:
                self._evict(now)
            self._outstanding[challenge.nonce] = challenge
        return challenge

    def consume(self, nonce: bytes) -> Challenge | None:
        """Remove and return the challenge, or None if absent/already used."""
        with self._lock:
            return self._outstanding.pop(nonce, None)

    def _evict(self, now: int) -> None:
        """Pop the oldest entry while it has expired or the store is full;
        called with the lock held."""
        outstanding = self._outstanding
        while outstanding:
            oldest = next(iter(outstanding.values()))
            if oldest.expires_at >= now and len(outstanding) < self.max_entries:
                return
            outstanding.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._outstanding)


@dataclass(frozen=True)
class CapabilityProof:
    agent_name: str  # rendered form
    capability: str
    nonce: bytes
    capability_signature: bytes
    identity_signature: bytes

    def binding_doc(self) -> dict:
        return {
            "agent_name": self.agent_name,
            "capability": self.capability,
            "nonce": self.nonce.hex(),
        }

    def countersign_doc(self) -> dict:
        doc = self.binding_doc()
        doc["capability_signature"] = self.capability_signature.hex()
        return doc

    def to_doc(self) -> dict:
        doc = self.countersign_doc()
        doc["identity_signature"] = self.identity_signature.hex()
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "CapabilityProof":
        if not (isinstance(doc["agent_name"], str) and isinstance(doc["capability"], str)):
            raise TypeError("agent_name and capability must be strings")
        return cls(
            agent_name=doc["agent_name"],
            capability=doc["capability"],
            nonce=bytes.fromhex(doc["nonce"]),
            capability_signature=bytes.fromhex(doc["capability_signature"]),
            identity_signature=bytes.fromhex(doc["identity_signature"]),
        )


def prove(
    challenge: Challenge,
    secret: CapabilitySecret,
    identity_keys: KeyPair,
    agent_name: names.AnsName,
    now: int,
) -> CapabilityProof:
    """Answer a challenge: capability key signs the binding, identity key
    countersigns. Raises CHALLENGE_EXPIRED if the challenge TTL has passed."""
    if now > challenge.expires_at:
        raise AnsError(CHALLENGE_EXPIRED, "challenge expired before proof generation")
    proof = CapabilityProof(
        agent_name=agent_name.render(),
        capability=secret.capability,
        nonce=challenge.nonce,
        capability_signature=b"",
        identity_signature=b"",
    )
    proof = replace(proof, capability_signature=secret.keypair.sign(
        canonical_bytes(proof.binding_doc())))
    return replace(proof, identity_signature=identity_keys.sign(
        canonical_bytes(proof.countersign_doc())))


@dataclass(frozen=True)
class AttestationResult:
    granted: bool
    reason: str | None = None  # error code when denied
    message: str = ""

    @classmethod
    def deny(cls, reason: str, message: str) -> "AttestationResult":
        return cls(False, reason, message)


def verify(
    proof: CapabilityProof,
    commitment: CapabilityCommitment,
    agent_chain: CertificateChain,
    trust_anchors,
    store: ChallengeStore,
    now: int,
    verified: MutableMapping | None = None,
) -> AttestationResult:
    """Grant iff the chain validates, capabilities line up, both signatures
    verify, and the nonce is an outstanding unexpired challenge issued to this
    agent. The nonce is consumed only when everything else already passed, so
    a failed attempt does not burn the challenge; concurrent duplicates race
    on an atomic remove and exactly one wins. ``verified`` is passed on to
    ``validate_chain`` as its memo.
    """
    chain_check = validate_chain(agent_chain, trust_anchors, now, verified)
    if not chain_check.ok:
        return AttestationResult.deny(CHAIN_INVALID, f"agent chain rejected: {chain_check.message}")
    agent_cert: Certificate = agent_chain.agent
    if agent_cert.subject_name is None or agent_cert.subject_name.render() != proof.agent_name:
        return AttestationResult.deny(CHAIN_INVALID, "certificate subject does not match proof agent")

    if proof.capability != commitment.capability:
        return AttestationResult.deny(
            CAPABILITY_MISMATCH,
            f"proof is for {proof.capability!r}, commitment is for {commitment.capability!r}",
        )

    if not verify_signature(
        commitment.commitment_key, proof.capability_signature, canonical_bytes(proof.binding_doc())
    ):
        return AttestationResult.deny(BAD_SIGNATURE, "capability signature does not verify")
    if not verify_signature(
        agent_cert.public_key, proof.identity_signature, canonical_bytes(proof.countersign_doc())
    ):
        return AttestationResult.deny(BAD_SIGNATURE, "identity signature does not verify")

    challenge = store.consume(proof.nonce)
    if challenge is None:
        return AttestationResult.deny(NONCE_REPLAY, "nonce absent or already consumed")
    if now > challenge.expires_at:
        return AttestationResult.deny(CHALLENGE_EXPIRED, "challenge expired")
    if challenge.audience != proof.agent_name:
        return AttestationResult.deny(NONCE_REPLAY, "challenge was issued to a different agent")
    return AttestationResult(True)
