"""Deny-by-default policy engine for admission and resolution-time checks.

Policies are small closed-schema documents, not a general rule language:
a rule has a partial match predicate over a subject (protocol, provider,
environment, capability glob, namespace) and, for allow rules, a set of
conditions that must all hold. Combining is deny-overrides with a zero-trust
default: any matching deny rule defeats everything, and with no satisfied
allow rule the answer is denied.

Globs support ``*`` only. Conditions apply to allow rules; resource caps are
checked at admission only, certificate validity caps at both phases.
Evaluation is pure and policies are immutable after load. The server loads
its policy file once, at start; ``Registry.set_policies`` swaps the whole set
in-process, and no server path calls it.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field

from .errors import (
    LIST, NON_EMPTY_STRING, NON_NEGATIVE_INT, POLICY_PARSE, STRING, STRING_LIST, AnsError, Check,
    decode_doc, one_of, read_doc, read_fields,
)
from .names import AnsName

PHASE_ADMISSION = "admission"
PHASE_RUNTIME = "runtime"

EFFECT_ALLOW = "allow"
EFFECT_DENY = "deny"

# null reads as an absent match or conditions map; any other non-map is refused.
_MAP_OR_NULL = Check("a map or null", lambda v: v is None or isinstance(v, dict))
_POLICY_FIELDS = {"id": NON_EMPTY_STRING, "description": (STRING, ""), "rules": (LIST, ())}
_RULE_FIELDS = {
    "id": NON_EMPTY_STRING,
    "effect": one_of(EFFECT_ALLOW, EFFECT_DENY),
    "match": (_MAP_OR_NULL, None),
    "conditions": (_MAP_OR_NULL, None),
}
_MATCH_FIELDS = {key: (STRING, None)
                 for key in ("protocol", "provider", "environment", "capability", "namespace")}
_CONDITION_FIELDS = {
    "allowed_environments": (STRING_LIST, None),
    "provider_allowlist": (STRING_LIST, None),
    "capability_denylist": (STRING_LIST, None),
    "max_cert_validity_seconds": (NON_NEGATIVE_INT, None),
    "max_cpu_millicores": (NON_NEGATIVE_INT, None),
    "max_memory_mebibytes": (NON_NEGATIVE_INT, None),
}


@functools.lru_cache(maxsize=4096)
def _glob_regex(pattern: str) -> re.Pattern:
    parts = pattern.split("*")
    return re.compile("".join(re.escape(p) + (".*" if i < len(parts) - 1 else "")
                              for i, p in enumerate(parts)) + "$")


def glob_match(pattern: str, value: str) -> bool:
    """``*``-only glob match against a whole string."""
    if "*" not in pattern:
        return pattern == value
    return _glob_regex(pattern).match(value) is not None


@dataclass(frozen=True)
class RuleMatch:
    protocol: str | None = None
    provider: str | None = None
    environment: str | None = None
    capability: str | None = None  # glob
    namespace: str | None = None


@dataclass(frozen=True)
class RuleConditions:
    allowed_environments: tuple[str, ...] | None = None
    provider_allowlist: tuple[str, ...] | None = None
    capability_denylist: tuple[str, ...] | None = None  # globs
    max_cert_validity_seconds: int | None = None
    max_cpu_millicores: int | None = None
    max_memory_mebibytes: int | None = None


@dataclass(frozen=True)
class PolicyRule:
    id: str
    effect: str
    match: RuleMatch = field(default_factory=RuleMatch)
    conditions: RuleConditions = field(default_factory=RuleConditions)


@dataclass(frozen=True)
class Policy:
    id: str
    description: str
    rules: tuple[PolicyRule, ...]


@dataclass(frozen=True)
class PolicySubject:
    """What a rule is evaluated against: built from an agent manifest at
    admission or from a registry record at resolution time."""

    protocol: str
    agent_id: str
    capability: str
    capabilities: tuple[str, ...]
    provider: str
    environment: str
    namespace: str
    cert_validity_seconds: int | None = None
    cpu_millicores: int | None = None
    memory_mebibytes: int | None = None

    @classmethod
    def of(cls, name: AnsName, capabilities, namespace: str,
           cert_validity_seconds: int | None, cpu: int | None = None,
           memory: int | None = None) -> "PolicySubject":
        """The subject for an agent name; its own capability comes first."""
        return cls(
            protocol=name.protocol,
            agent_id=name.agent_id,
            capability=name.capability,
            capabilities=tuple(dict.fromkeys((name.capability, *capabilities))),
            provider=name.provider,
            environment=name.extension,
            namespace=namespace,
            cert_validity_seconds=cert_validity_seconds,
            cpu_millicores=cpu,
            memory_mebibytes=memory,
        )


@dataclass(frozen=True)
class EvaluationContext:
    subject: PolicySubject
    phase: str
    now: int


@dataclass(frozen=True)
class PolicyDecision:
    allowed: bool
    matched_rules: tuple[tuple[str, str, str], ...]  # (policy id, rule id, effect)
    reasons: tuple[str, ...]


def _refuse_duplicate_ids(items, what: str, where: str) -> None:
    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise AnsError(POLICY_PARSE, f"duplicate {what} id {item.id!r} (at {where})")
        seen.add(item.id)


def _parse_rule(doc, where: str) -> PolicyRule:
    rule = read_fields(doc, where, _RULE_FIELDS, POLICY_PARSE)
    match = read_fields(rule["match"] or {}, f"{where}.match", _MATCH_FIELDS, POLICY_PARSE)
    conditions = read_fields(rule["conditions"] or {}, f"{where}.conditions",
                             _CONDITION_FIELDS, POLICY_PARSE)
    return PolicyRule(
        id=rule["id"],
        effect=rule["effect"],
        match=RuleMatch(**match),
        conditions=RuleConditions(**{k: (tuple(v) if isinstance(v, list) else v)
                                     for k, v in conditions.items()}),
    )


def _parse_policy(doc, where: str) -> Policy:
    policy = read_fields(doc, where, _POLICY_FIELDS, POLICY_PARSE)
    rules = tuple(
        _parse_rule(rule, f"{where}.rules[{i}]") for i, rule in enumerate(policy["rules"])
    )
    _refuse_duplicate_ids(rules, "rule", where)
    return Policy(id=policy["id"], description=policy["description"], rules=rules)


def load_policies(document: str | bytes) -> list[Policy]:
    """Parse a policy file: canonical-text document with a top-level
    ``policies`` array. Bytes that do not decode as JSON text, and unknown
    keys anywhere, are POLICY_PARSE errors."""
    doc = decode_doc("policy document", json.loads, document, POLICY_PARSE)
    top = read_fields(doc, "document", {"policies": (LIST, ())}, POLICY_PARSE)
    policies = [
        _parse_policy(p, f"policies[{i}]") for i, p in enumerate(top["policies"])
    ]
    _refuse_duplicate_ids(policies, "policy", "document.policies")
    return policies


def load_policy_file(path: str) -> list[Policy]:
    """The policies of the file at ``path``, read as bytes, so that bytes
    which do not decode as text are POLICY_PARSE like any other fault."""
    return read_doc(path, "policy file", load_policies, POLICY_PARSE)


def policies_to_doc(policies) -> dict:
    """Inverse of load_policies, for writing policy files."""
    out = []
    for policy in policies:
        rules = []
        for rule in policy.rules:
            rule_doc: dict = {"id": rule.id, "effect": rule.effect}
            match = {k: v for k, v in vars(rule.match).items() if v is not None}
            if match:
                rule_doc["match"] = match
            conditions = {k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in vars(rule.conditions).items() if v is not None}
            if conditions:
                rule_doc["conditions"] = conditions
            rules.append(rule_doc)
        out.append({"id": policy.id, "description": policy.description, "rules": rules})
    return {"policies": out}


def _rule_matches(rule: PolicyRule, subject: PolicySubject) -> bool:
    m = rule.match
    if m.protocol is not None and m.protocol != subject.protocol:
        return False
    if m.provider is not None and m.provider != subject.provider:
        return False
    if m.environment is not None and m.environment != subject.environment:
        return False
    if m.namespace is not None and m.namespace != subject.namespace:
        return False
    if m.capability is not None:
        if not any(glob_match(m.capability, c) for c in subject.capabilities):
            return False
    return True


def _failed_conditions(rule: PolicyRule, ctx: EvaluationContext) -> list[str]:
    c = rule.conditions
    s = ctx.subject
    failures: list[str] = []
    if c.allowed_environments is not None and s.environment not in c.allowed_environments:
        failures.append(f"environment {s.environment!r} not in allowed_environments")
    if c.provider_allowlist is not None and s.provider not in c.provider_allowlist:
        failures.append(f"provider {s.provider!r} not in provider_allowlist")
    if c.capability_denylist is not None:
        for capability in s.capabilities:
            if any(glob_match(g, capability) for g in c.capability_denylist):
                failures.append(f"capability {capability!r} is denylisted")
                break
    if c.max_cert_validity_seconds is not None and s.cert_validity_seconds is not None:
        if s.cert_validity_seconds > c.max_cert_validity_seconds:
            failures.append(
                f"certificate validity {s.cert_validity_seconds}s exceeds "
                f"max {c.max_cert_validity_seconds}s"
            )
    if ctx.phase == PHASE_ADMISSION:
        if c.max_cpu_millicores is not None and s.cpu_millicores is not None:
            if s.cpu_millicores > c.max_cpu_millicores:
                failures.append(f"cpu request {s.cpu_millicores}m exceeds max {c.max_cpu_millicores}m")
        if c.max_memory_mebibytes is not None and s.memory_mebibytes is not None:
            if s.memory_mebibytes > c.max_memory_mebibytes:
                failures.append(
                    f"memory request {s.memory_mebibytes}Mi exceeds max {c.max_memory_mebibytes}Mi"
                )
    return failures


def evaluate(ctx: EvaluationContext, policies) -> PolicyDecision:
    """Deny-overrides with default deny.

    Any matching deny rule denies. Otherwise at least one matching allow rule
    whose conditions all hold allows. Otherwise the zero-trust default denies.
    Matched rules of both effects are reported, with failure reasons.
    """
    matched: list[tuple[str, str, str]] = []
    reasons: list[str] = []
    deny_hit = False
    allow_hit = False
    for policy in policies:
        for rule in policy.rules:
            if not _rule_matches(rule, ctx.subject):
                continue
            matched.append((policy.id, rule.id, rule.effect))
            if rule.effect == EFFECT_DENY:
                deny_hit = True
                reasons.append(f"denied by {policy.id}/{rule.id}")
            else:
                failures = _failed_conditions(rule, ctx)
                if failures:
                    for failure in failures:
                        reasons.append(f"allow rule {policy.id}/{rule.id} not satisfied: {failure}")
                else:
                    allow_hit = True
    if deny_hit:
        return PolicyDecision(False, tuple(matched), tuple(reasons))
    if allow_hit:
        return PolicyDecision(True, tuple(matched), tuple(reasons))
    reasons.append("default deny: no allow rule matched")
    return PolicyDecision(False, tuple(matched), tuple(reasons))


def explain(decision: PolicyDecision) -> str:
    """Stable multi-line rendering of a decision for humans and audit logs."""
    lines = [f"decision: {'allowed' if decision.allowed else 'denied'}"]
    if decision.matched_rules:
        lines.append("matched rules:")
        for policy_id, rule_id, effect in decision.matched_rules:
            lines.append(f"  - {policy_id}/{rule_id} ({effect})")
    else:
        lines.append("matched rules: none")
    if decision.reasons:
        lines.append("reasons:")
        for reason in decision.reasons:
            lines.append(f"  - {reason}")
    return "\n".join(lines)
