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

from .errors import AnsError, POLICY_PARSE
from .names import AnsName

PHASE_ADMISSION = "admission"
PHASE_RUNTIME = "runtime"

EFFECT_ALLOW = "allow"
EFFECT_DENY = "deny"

_MATCH_KEYS = ("protocol", "provider", "environment", "capability", "namespace")
_CONDITION_KEYS = (
    "allowed_environments",
    "provider_allowlist",
    "capability_denylist",
    "max_cert_validity_seconds",
    "max_cpu_millicores",
    "max_memory_mebibytes",
)
_RULE_KEYS = ("id", "effect", "match", "conditions")
_POLICY_KEYS = ("id", "description", "rules")


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


def _parse_error(message: str, where: str) -> AnsError:
    return AnsError(POLICY_PARSE, f"{message} (at {where})")


def _require_keys(doc: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise _parse_error(f"unknown key {key!r}", where)


def _string_list(value, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _parse_error("expected a list of strings", where)
    return tuple(value)


def _parse_conditions(doc, where: str) -> RuleConditions:
    if doc is None:
        return RuleConditions()
    if not isinstance(doc, dict):
        raise _parse_error("conditions must be a map", where)
    _require_keys(doc, _CONDITION_KEYS, where)
    kwargs: dict = {}
    for key in ("allowed_environments", "provider_allowlist", "capability_denylist"):
        if key in doc:
            kwargs[key] = _string_list(doc[key], f"{where}.{key}")
    for key in ("max_cert_validity_seconds", "max_cpu_millicores", "max_memory_mebibytes"):
        if key in doc:
            value = doc[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise _parse_error("expected a non-negative integer", f"{where}.{key}")
            kwargs[key] = value
    return RuleConditions(**kwargs)


def _parse_rule(doc, where: str) -> PolicyRule:
    if not isinstance(doc, dict):
        raise _parse_error("rule must be a map", where)
    _require_keys(doc, _RULE_KEYS, where)
    rule_id = doc.get("id")
    if not isinstance(rule_id, str) or not rule_id:
        raise _parse_error("rule id must be a non-empty string", where)
    effect = doc.get("effect")
    if effect not in (EFFECT_ALLOW, EFFECT_DENY):
        raise _parse_error("effect must be 'allow' or 'deny'", f"{where}.effect")
    match_doc = doc.get("match") or {}
    if not isinstance(match_doc, dict):
        raise _parse_error("match must be a map", f"{where}.match")
    _require_keys(match_doc, _MATCH_KEYS, f"{where}.match")
    for key, value in match_doc.items():
        if not isinstance(value, str):
            raise _parse_error("match values must be strings", f"{where}.match.{key}")
    return PolicyRule(
        id=rule_id,
        effect=effect,
        match=RuleMatch(**match_doc),
        conditions=_parse_conditions(doc.get("conditions"), f"{where}.conditions"),
    )


def _parse_policy(doc, where: str) -> Policy:
    if not isinstance(doc, dict):
        raise _parse_error("policy must be a map", where)
    _require_keys(doc, _POLICY_KEYS, where)
    policy_id = doc.get("id")
    if not isinstance(policy_id, str) or not policy_id:
        raise _parse_error("policy id must be a non-empty string", where)
    rules_doc = doc.get("rules", [])
    if not isinstance(rules_doc, list):
        raise _parse_error("rules must be a list", f"{where}.rules")
    rules = tuple(
        _parse_rule(rule, f"{where}.rules[{i}]") for i, rule in enumerate(rules_doc)
    )
    seen: set[str] = set()
    for rule in rules:
        if rule.id in seen:
            raise _parse_error(f"duplicate rule id {rule.id!r}", where)
        seen.add(rule.id)
    return Policy(id=policy_id, description=doc.get("description", ""), rules=rules)


def load_policies(document: str) -> list[Policy]:
    """Parse a policy file: canonical-text document with a top-level
    ``policies`` array. Unknown keys anywhere are POLICY_PARSE errors."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise AnsError(POLICY_PARSE, f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise _parse_error("top level must be a map", "document")
    _require_keys(doc, ("policies",), "document")
    policies_doc = doc.get("policies", [])
    if not isinstance(policies_doc, list):
        raise _parse_error("policies must be a list", "document.policies")
    policies = [
        _parse_policy(p, f"policies[{i}]") for i, p in enumerate(policies_doc)
    ]
    seen: set[str] = set()
    for policy in policies:
        if policy.id in seen:
            raise _parse_error(f"duplicate policy id {policy.id!r}", "document.policies")
        seen.add(policy.id)
    return policies


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
