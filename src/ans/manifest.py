"""Agent manifests and admission validation.

A manifest is the declarative deployment document for one agent:

    apiVersion: ans.io/v1
    kind: Agent
    metadata: {name, namespace}
    spec:
      ansName, capabilities, provider, version, environment,
      certificate {issuer, validity}, policies, resources (optional)

Admission runs, in order: schema check, name/spec consistency, certificate
chain checks when a chain is attached, then policy evaluation at the
admission phase. Structural problems (missing keys, wrong types) are schema
errors; fields that are present but inconsistent produce a denied decision
with reasons, not an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import names
from .errors import (
    MALFORMED, MAP, NON_NEGATIVE_INT, STRING, STRING_LIST, AnsError, Check, decode_doc, one_of,
    read_fields,
)
from .identity import CertificateChain, validate_chain
from .names import AnsName
from .policy import (
    EvaluationContext,
    PHASE_ADMISSION,
    PolicyDecision,
    PolicySubject,
    evaluate,
)

API_VERSION = "ans.io/v1"
KIND = "Agent"

# Used with ``fullmatch``: ``$`` would also match before a final newline.
_DURATION_RE = re.compile(r"([1-9][0-9]*)([dhms])")
_DURATION_UNITS = {"d": 86400, "h": 3600, "m": 60, "s": 1}


def parse_duration(text: str) -> int:
    """``90d`` / ``12h`` / ``30m`` / ``45s`` to seconds."""
    if not isinstance(text, str):
        raise AnsError(MALFORMED, "duration must be a string")
    match = _DURATION_RE.fullmatch(text)
    if not match:
        raise AnsError(MALFORMED, f"duration {text!r} must match <n>d|h|m|s")
    return decode_doc("duration", int, match.group(1)) * _DURATION_UNITS[match.group(2)]


@dataclass(frozen=True)
class CertificateSpec:
    issuer: str
    validity_text: str
    validity_seconds: int


@dataclass(frozen=True)
class AgentManifest:
    name: str
    namespace: str
    ans_name_text: str
    capabilities: tuple[str, ...]
    provider: str
    version: str
    environment: str
    certificate: CertificateSpec
    policies: tuple[str, ...]
    cpu_millicores: int | None = None
    memory_mebibytes: int | None = None

    def to_doc(self) -> dict:
        spec: dict = {
            "ansName": self.ans_name_text,
            "capabilities": list(self.capabilities),
            "provider": self.provider,
            "version": self.version,
            "environment": self.environment,
            "certificate": {
                "issuer": self.certificate.issuer,
                "validity": self.certificate.validity_text,
            },
            "policies": list(self.policies),
        }
        if self.cpu_millicores is not None or self.memory_mebibytes is not None:
            resources = {}
            if self.cpu_millicores is not None:
                resources["cpu_millicores"] = self.cpu_millicores
            if self.memory_mebibytes is not None:
                resources["memory_mebibytes"] = self.memory_mebibytes
            spec["resources"] = resources
        return {
            "apiVersion": API_VERSION,
            "kind": KIND,
            "metadata": {"name": self.name, "namespace": self.namespace},
            "spec": spec,
        }


_CAPABILITIES = Check("a non-empty list of strings", lambda v: STRING_LIST.accepts(v) and v != [])
_TOP_LEVEL = {"apiVersion": one_of(API_VERSION), "kind": one_of(KIND), "metadata": MAP, "spec": MAP}
_METADATA = {"name": STRING, "namespace": STRING}
_SPEC = {
    "ansName": STRING,
    "capabilities": _CAPABILITIES,
    "provider": STRING,
    "version": STRING,
    "environment": STRING,
    "certificate": MAP,
    "policies": (STRING_LIST, ()),
    "resources": (MAP, {}),
}
_CERTIFICATE = {"issuer": STRING, "validity": STRING}
_RESOURCES = {"cpu_millicores": (NON_NEGATIVE_INT, None),
              "memory_mebibytes": (NON_NEGATIVE_INT, None)}


def manifest_from_doc(doc) -> AgentManifest:
    """Structural validation only; value-level consistency is check_consistency.

    Raises MALFORMED for missing keys, wrong types, or unknown keys.
    """
    top = read_fields(doc, "top level", _TOP_LEVEL)
    metadata = read_fields(top["metadata"], "metadata", _METADATA)
    spec = read_fields(top["spec"], "spec", _SPEC)
    certificate = read_fields(spec["certificate"], "spec.certificate", _CERTIFICATE)
    return AgentManifest(
        name=metadata["name"],
        namespace=metadata["namespace"],
        ans_name_text=spec["ansName"],
        capabilities=tuple(spec["capabilities"]),
        provider=spec["provider"],
        version=spec["version"],
        environment=spec["environment"],
        certificate=CertificateSpec(certificate["issuer"], certificate["validity"],
                                    parse_duration(certificate["validity"])),
        policies=tuple(spec["policies"]),
        **read_fields(spec["resources"], "spec.resources", _RESOURCES),
    )


def check_consistency(manifest: AgentManifest) -> tuple[AnsName | None, list[str]]:
    """Value-level checks: labels, name grammar, and name/spec agreement.

    Returns the parsed agent name (when it parses) plus a list of problems;
    an empty list means consistent.
    """
    problems: list[str] = []
    for label, field in ((manifest.name, "metadata.name"), (manifest.namespace, "metadata.namespace")):
        try:
            names.validate_label(label, field)
        except AnsError as exc:
            problems.append(f"INVALID_LABEL: {exc.message}")
    parsed: AnsName | None = None
    try:
        parsed = names.parse(manifest.ans_name_text)
    except AnsError as exc:
        problems.append(f"INVALID_NAME: {exc.message}")
    for capability in manifest.capabilities:
        try:
            names.validate_label(capability, "spec.capabilities entry")
        except AnsError as exc:
            problems.append(f"INVALID_LABEL: {exc.message}")
    if parsed is not None:
        if parsed.capability not in manifest.capabilities:
            problems.append(
                f"NAME_MISMATCH: name capability {parsed.capability!r} "
                "is not listed in spec.capabilities"
            )
        if parsed.provider != manifest.provider:
            problems.append(
                f"NAME_MISMATCH: name provider {parsed.provider!r} != spec.provider "
                f"{manifest.provider!r}"
            )
        if parsed.version.render() != "v" + manifest.version:
            problems.append(
                f"NAME_MISMATCH: name version {parsed.version.render()!r} != "
                f"'v' + spec.version {manifest.version!r}"
            )
        if parsed.extension != manifest.environment:
            problems.append(
                f"NAME_MISMATCH: name extension {parsed.extension!r} != spec.environment "
                f"{manifest.environment!r}"
            )
    return parsed, problems


@dataclass(frozen=True)
class AdmissionResult:
    allowed: bool
    reasons: tuple[str, ...]
    matched_rules: tuple[tuple[str, str, str], ...]

    def to_doc(self) -> dict:
        return {
            "allowed": self.allowed,
            "reasons": list(self.reasons),
            "matched_rules": [list(m) for m in self.matched_rules],
        }


def _evaluate_referenced(manifest: AgentManifest, ctx: EvaluationContext,
                         policies) -> tuple[bool, list[str], list]:
    """Manifest-referenced policies must each independently allow.

    A referenced id that is not loaded denies: an unverifiable requirement is
    a failed requirement.
    """
    by_id = {p.id: p for p in policies}
    ok = True
    reasons: list[str] = []
    matched: list = []
    for ref in manifest.policies:
        referenced = by_id.get(ref)
        if referenced is None:
            ok = False
            reasons.append(f"referenced policy {ref!r} is not loaded")
            continue
        decision = evaluate(ctx, [referenced])
        matched.extend(decision.matched_rules)
        if not decision.allowed:
            ok = False
            reasons.extend(f"policy {ref!r}: {r}" for r in decision.reasons)
    return ok, reasons, matched


def validate_admission(
    doc,
    policies,
    trust_anchors,
    now: int,
    chain: CertificateChain | None = None,
) -> AdmissionResult:
    """Full admission pipeline for one manifest document.

    Raises MALFORMED only for structural schema violations; everything else
    comes back as a decision. Never mutates any registry state.
    """
    manifest = manifest_from_doc(doc)
    parsed, problems = check_consistency(manifest)
    if problems or parsed is None:
        return AdmissionResult(False, tuple(problems), ())

    reasons: list[str] = []
    if chain is not None:
        verdict = validate_chain(chain, trust_anchors, now)
        if not verdict.ok:
            reasons.append(f"{verdict.code}: {verdict.message}")
        else:
            if chain.agent.subject_name is None or chain.agent.subject_name != parsed:
                reasons.append("NAME_MISMATCH: certificate subject does not match manifest ansName")
            window = chain.agent.not_after - chain.agent.not_before
            if window > manifest.certificate.validity_seconds:
                reasons.append(
                    f"WINDOW_EXCEEDED: certificate window {window}s exceeds declared "
                    f"validity {manifest.certificate.validity_seconds}s"
                )
        if reasons:
            return AdmissionResult(False, tuple(reasons), ())

    subject = PolicySubject.of(parsed, manifest.capabilities, manifest.namespace,
                               manifest.certificate.validity_seconds,
                               manifest.cpu_millicores, manifest.memory_mebibytes)
    ctx = EvaluationContext(subject=subject, phase=PHASE_ADMISSION, now=now)
    decision: PolicyDecision = evaluate(ctx, policies)
    matched = list(decision.matched_rules)
    reasons.extend(decision.reasons)
    allowed = decision.allowed
    if allowed and manifest.policies:
        refs_ok, ref_reasons, ref_matched = _evaluate_referenced(manifest, ctx, policies)
        reasons.extend(ref_reasons)
        matched.extend(ref_matched)
        allowed = refs_ok
    deduped = tuple(dict.fromkeys(matched))
    return AdmissionResult(allowed, tuple(reasons), deduped)


def manifest_for_name(
    parsed: AnsName,
    namespace: str,
    capabilities: tuple[str, ...] = (),
    issuer: str = "ans-ca",
    validity: str = "90d",
    policies: tuple[str, ...] = (),
) -> AgentManifest:
    """Convenience constructor producing a manifest consistent with a name."""
    caps = tuple(dict.fromkeys((parsed.capability, *capabilities)))
    return AgentManifest(
        name=parsed.agent_id,
        namespace=namespace,
        ans_name_text=parsed.render(),
        capabilities=caps,
        provider=parsed.provider,
        version=parsed.version.render()[1:],
        environment=parsed.extension,
        certificate=CertificateSpec(issuer, validity, parse_duration(validity)),
        policies=policies,
    )
