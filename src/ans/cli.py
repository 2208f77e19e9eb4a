"""ansctl: operator command line for the agent name service.

Subcommands cover key generation, CA setup, certificate issuance,
registration, resolution, attestation, policy testing, admission validation,
serving, and the benchmark/demo harness.

Exit codes: 0 success or allowed, 1 operational error, 2 usage error,
3 denied (policy or attestation verdict).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import time
from typing import TYPE_CHECKING

from . import names
from .canonical import canonical_json
from .errors import DENIAL_CODES, AnsError, TransportError
from .identity import Certificate, CertificateChain, KeyPair, build_ca, derive_did
from .manifest import parse_duration, validate_admission
from .policy import load_policies
from .server import AnsServer, ServerConfig, load_anchors

if TYPE_CHECKING:
    from .client import AgentIdentity

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DENIED = 3

ROOT_FILE = "ca-root.json"
INTERMEDIATE_FILE = "ca-intermediate.json"
ANCHORS_FILE = "anchors.json"


def _emit(args, human: str, doc) -> None:
    if args.output == "json":
        print(canonical_json(doc))
    else:
        print(human)


def _write_private(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))
    os.chmod(path, 0o600)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_manifest_doc(path: str):
    """Manifests arrive as YAML-shaped documents or plain canonical text."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def save_identity(path: str, identity: AgentIdentity, namespace: str | None = None) -> None:
    doc = {
        "name": identity.name.render(),
        "endpoint": identity.endpoint,
        "identity_seed": identity.identity_keys.private_key.hex(),
        "chain": identity.chain.to_doc(),
        "capabilities": {
            label: secret.keypair.private_key.hex()
            for label, secret in identity.capabilities.items()
        },
    }
    if namespace:
        doc["namespace"] = namespace
    _write_private(path, doc)


def load_identity(path: str) -> tuple[AgentIdentity, str | None]:
    from .client import AgentIdentity, CapabilitySecret

    doc = _load_json(path)
    name = names.parse(doc["name"])
    identity_keys = KeyPair.generate(bytes.fromhex(doc["identity_seed"]))
    capabilities = {}
    for label, seed_hex in doc["capabilities"].items():
        keys = KeyPair.generate(bytes.fromhex(seed_hex))
        capabilities[label] = CapabilitySecret(label, keys)
    identity = AgentIdentity(
        name=name,
        identity_keys=identity_keys,
        chain=CertificateChain.from_doc(doc["chain"]),
        capabilities=capabilities,
        endpoint=doc["endpoint"],
    )
    return identity, doc.get("namespace")


# -- commands -------------------------------------------------------------------


def cmd_keygen(args) -> int:
    keys = KeyPair.generate()
    doc = {
        "seed": keys.private_key.hex(),
        "public_key": keys.public_key.hex(),
        "did": derive_did(keys.public_key),
    }
    if args.out:
        _write_private(args.out, doc)
        _emit(args, f"wrote {args.out} ({doc['did']})", doc)
    else:
        _emit(args, f"did: {doc['did']}\npublic_key: {doc['public_key']}", doc)
    return EXIT_OK


def cmd_ca_init(args) -> int:
    os.makedirs(args.keys, exist_ok=True)
    ca = build_ca()
    _write_private(os.path.join(args.keys, ROOT_FILE),
                   {"seed": ca.root_keys.private_key.hex(), "cert": ca.root_cert.to_doc()})
    _write_private(os.path.join(args.keys, INTERMEDIATE_FILE),
                   {"seed": ca.intermediate_keys.private_key.hex(),
                    "cert": ca.intermediate_cert.to_doc()})
    anchors_path = os.path.join(args.keys, ANCHORS_FILE)
    with open(anchors_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json([ca.root_cert.to_doc()]))
    _emit(args, f"initialized CA under {args.keys} (anchors: {anchors_path})", {
        "root_did": ca.root_cert.subject_did,
        "intermediate_did": ca.intermediate_cert.subject_did,
        "anchors": anchors_path,
    })
    return EXIT_OK


def _load_ca(keys_dir: str) -> tuple[KeyPair, Certificate, Certificate]:
    inter_doc = _load_json(os.path.join(keys_dir, INTERMEDIATE_FILE))
    root_doc = _load_json(os.path.join(keys_dir, ROOT_FILE))
    return (
        KeyPair.generate(bytes.fromhex(inter_doc["seed"])),
        Certificate.from_doc(inter_doc["cert"]),
        Certificate.from_doc(root_doc["cert"]),
    )


def cmd_cert_issue(args) -> int:
    from .client import bootstrap_identity

    name = names.parse(args.name)
    inter_keys, inter_cert, root_cert = _load_ca(args.keys)
    identity = bootstrap_identity(
        name,
        args.endpoint,
        tuple(args.capability or ()),
        inter_keys,
        inter_cert,
        root_cert,
        validity_seconds=parse_duration(args.validity),
    )
    save_identity(args.out, identity, namespace=args.namespace)
    _emit(args, f"issued agent certificate for {name} -> {args.out}", {
        "name": name.render(),
        "did": identity.chain.agent.subject_did,
        "capabilities": sorted(identity.capabilities),
        "identity_file": args.out,
    })
    return EXIT_OK


def cmd_register(args) -> int:
    from . import client

    identity, stored_namespace = load_identity(args.identity)
    namespace = args.namespace or stored_namespace
    if not namespace:
        print("error: no namespace given and none stored in the identity file",
              file=sys.stderr)
        return EXIT_USAGE
    record = client.register_with(identity, args.registry, namespace)
    _emit(args, f"registered {record.name} (expires_at={record.expires_at})", record.to_doc())
    return EXIT_OK


def cmd_resolve(args) -> int:
    from . import client

    query = names.NameQuery.from_params(
        {p: value for p in names.QUERY_PARAMS if (value := getattr(args, p)) is not None})
    records = client.discover(args.registry, query)
    if args.output == "json":
        print(canonical_json([r.to_doc() for r in records]))
    elif not records:
        print("no matching agents")
    else:
        for record in records:
            print(f"{record.name}  did={record.did}  endpoint={record.endpoint}  "
                  f"namespace={record.namespace}  expires_at={record.expires_at}")
    return EXIT_OK


def cmd_attest(args) -> int:
    from . import client

    identity, _ = load_identity(args.identity)
    result = client.attest_with(identity, args.registry, args.capability)
    _emit(args, f"granted: {args.capability} for {identity.name}", result)
    return EXIT_OK


def cmd_policy_test(args) -> int:
    with open(args.policy, "r", encoding="utf-8") as fh:
        policies = load_policies(fh.read())
    doc = _load_manifest_doc(args.manifest)
    result = validate_admission(doc, policies, (), int(time.time()))
    from .policy import PolicyDecision, explain

    decision = PolicyDecision(result.allowed, result.matched_rules, result.reasons)
    _emit(args, explain(decision), result.to_doc())
    return EXIT_OK if result.allowed else EXIT_DENIED


def cmd_admission_validate(args) -> int:
    doc = _load_manifest_doc(args.manifest)
    if args.registry:
        from .client import RegistryClient

        with contextlib.closing(RegistryClient(args.registry)) as registry_client:
            result_doc = registry_client.post("/v1/admission/validate", doc)
    else:
        if not args.policy:
            print("error: need --registry or --policy", file=sys.stderr)
            return EXIT_USAGE
        with open(args.policy, "r", encoding="utf-8") as fh:
            policies = load_policies(fh.read())
        anchors = load_anchors(args.anchors) if args.anchors else ()
        result_doc = validate_admission(doc, policies, anchors, int(time.time())).to_doc()
    allowed = result_doc["allowed"]
    human = "allowed" if allowed else "denied:\n" + "\n".join(
        f"  - {r}" for r in result_doc["reasons"])
    _emit(args, human, result_doc)
    return EXIT_OK if allowed else EXIT_DENIED


def cmd_serve(args) -> int:
    config = ServerConfig.load(args.config)
    overrides = {}
    if args.listen:
        overrides["listen"] = args.listen
    if args.anchors:
        overrides["anchors_path"] = args.anchors
    if args.policy:
        overrides["policy_path"] = args.policy
    if args.log:
        overrides["log_path"] = args.log
    if args.snapshot:
        overrides["snapshot_path"] = args.snapshot
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    server = AnsServer(config)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    print(f"serving on {server.url} (ctrl-c or SIGTERM to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("snapshot flushed, bye")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import harness

    config = harness.BenchConfig(
        n_agents=args.agents,
        n_namespaces=args.namespaces,
        duration_seconds=args.duration,
        warmup_seconds=args.warmup,
        seed=args.seed,
    )
    report = harness.run_benchmark(config)
    doc = report.to_doc()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    if args.output == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for op, budget in doc["budgets"].items():
            flag = "ok " if budget["pass"] else "FAIL"
            print(f"{flag} {op}: p99 {budget['p99_ms']}ms (budget {budget['budget_ms']}ms)")
        print("throughput:", doc["throughput"])
    return EXIT_OK if report.passed else EXIT_ERROR


def cmd_demo(args) -> int:
    from . import harness

    config = harness.BenchConfig(
        n_agents=args.agents, n_namespaces=args.namespaces, seed=args.seed,
    )
    report = harness.run_demo(config)
    doc = report.to_doc()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    ok = (report.success_rate == 1.0 and report.invalid_manifest_rejected
          and report.rollback_ok)
    if args.output == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"agents: {doc['succeeded']}/{doc['agents']} full lifecycle "
              f"({doc['success_rate']:.0%})")
        print(f"invalid manifest rejected: {doc['invalid_manifest_rejected']}")
        print(f"rollback check: {doc['rollback_ok']}")
        for phase, stats in doc["phases"].items():
            print(f"  {phase}: n={stats['count']} mean={stats['mean_ms']}ms "
                  f"p99={stats['p99_ms']}ms")
    return EXIT_OK if ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ansctl",
                                     description="agent name service control tool")
    parser.add_argument("--output", choices=("human", "json"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_registry(p):
        p.add_argument("--registry", default=os.environ.get("ANS_REGISTRY_URL",
                                                            "http://127.0.0.1:8400"))

    p = sub.add_parser("keygen", help="generate an identity key pair")
    p.add_argument("--out", help="write the key file here (0600)")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("ca", help="certificate authority operations")
    ca_sub = p.add_subparsers(dest="ca_command", required=True)
    p2 = ca_sub.add_parser("init", help="create root and intermediate certificates")
    p2.add_argument("--keys", required=True, help="directory for CA material")
    p2.set_defaults(func=cmd_ca_init)

    p = sub.add_parser("cert", help="certificate issuance")
    cert_sub = p.add_subparsers(dest="cert_command", required=True)
    p2 = cert_sub.add_parser("issue", help="issue an agent certificate bundle")
    p2.add_argument("--keys", required=True)
    p2.add_argument("--name", required=True, help="rendered agent name")
    p2.add_argument("--endpoint", required=True)
    p2.add_argument("--capability", action="append")
    p2.add_argument("--validity", default="90d")
    p2.add_argument("--namespace")
    p2.add_argument("--out", required=True, help="identity bundle file")
    p2.set_defaults(func=cmd_cert_issue)

    p = sub.add_parser("register", help="register an identity with the registry")
    add_registry(p)
    p.add_argument("--identity", required=True)
    p.add_argument("--namespace")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("resolve", help="discover agents")
    add_registry(p)
    p.add_argument("--capability")
    p.add_argument("--provider")
    p.add_argument("--protocol")
    p.add_argument("--env")
    p.add_argument("--agent")
    p.add_argument("--version", help="latest, X.Y, or >=X.Y")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("attest", help="prove a capability to the registry")
    add_registry(p)
    p.add_argument("--identity", required=True)
    p.add_argument("--capability", required=True)
    p.set_defaults(func=cmd_attest)

    p = sub.add_parser("policy", help="policy operations")
    pol_sub = p.add_subparsers(dest="policy_command", required=True)
    p2 = pol_sub.add_parser("test", help="evaluate a manifest against a policy file")
    p2.add_argument("--policy", required=True)
    p2.add_argument("--manifest", required=True)
    p2.set_defaults(func=cmd_policy_test)

    p = sub.add_parser("admission", help="admission operations")
    adm_sub = p.add_subparsers(dest="admission_command", required=True)
    p2 = adm_sub.add_parser("validate", help="validate an agent manifest")
    p2.add_argument("--manifest", required=True)
    p2.add_argument("--registry")
    p2.add_argument("--policy")
    p2.add_argument("--anchors")
    p2.set_defaults(func=cmd_admission_validate)

    p = sub.add_parser("serve", help="run the registry server")
    p.add_argument("--config")
    p.add_argument("--listen")
    p.add_argument("--anchors")
    p.add_argument("--policy")
    p.add_argument("--log")
    p.add_argument("--snapshot")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("bench", help="run the desk-scale benchmark")
    p.add_argument("--agents", type=int, default=50)
    p.add_argument("--namespaces", type=int, default=5)
    p.add_argument("--duration", type=int, default=60)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("demo", help="run the scripted lifecycle demo")
    p.add_argument("--agents", type=int, default=50)
    p.add_argument("--namespaces", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnsError as exc:
        if args.output == "json":
            print(canonical_json(exc.to_doc()), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENIED if exc.code in DENIAL_CODES else EXIT_ERROR
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
