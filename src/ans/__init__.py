"""Agent name service: a verifiable agent registry with hierarchical naming,
certificate-chain identity, capability attestation, and deny-by-default
policy enforcement, plus the client SDK, CLI, and benchmark harness."""

from .errors import AnsError, TransportError
from .names import AnsName, NameQuery, Version, VersionRequirement, compare_versions, matches, parse
from .identity import (
    CapabilityCommitment,
    Certificate,
    CertificateChain,
    KeyPair,
    derive_did,
    issue_certificate,
    remaining_validity,
    self_signed_root,
    validate_chain,
)
from .attestation import (
    AttestationResult,
    CapabilityProof,
    CapabilitySecret,
    Challenge,
    ChallengeStore,
    create_capability,
    prove,
    verify,
)
from .policy import (
    EvaluationContext,
    Policy,
    PolicyDecision,
    PolicyRule,
    PolicySubject,
    evaluate,
    explain,
    load_policies,
)
from .registry import AgentRecord, RegistrationRequest, Registry
from .server import AnsServer, ServerConfig

__version__ = "0.1.0"
