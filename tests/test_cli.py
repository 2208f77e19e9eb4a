import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest
import yaml

from ans.cli import main
from ans.canonical import canonical_json
from ans.policy import policies_to_doc
from ans.registry import AgentRecord
from test_manifest import LISTING_MANIFEST_YAML

A2A_EXAMPLE = "a2a://concept-drift-detector.concept-drift-detection.research-lab.v2.1.prod"


@pytest.fixture()
def workdir(tmp_path, allow_policies):
    (tmp_path / "policy.json").write_text(canonical_json(policies_to_doc(allow_policies)))
    (tmp_path / "empty-policy.json").write_text('{"policies": []}')
    (tmp_path / "listing.yaml").write_text(LISTING_MANIFEST_YAML)
    assert main(["ca", "init", "--keys", str(tmp_path / "ca")]) == 0
    return tmp_path


@pytest.fixture()
def seeded(workdir, server):
    """CA material plus an identity registered against the shared test server."""
    identity_file = workdir / "agent.json"
    assert main([
        "cert", "issue", "--keys", str(workdir / "ca"),
        "--name", A2A_EXAMPLE, "--endpoint", "http://127.0.0.1:7001",
        "--capability", "statistical-analysis", "--namespace", "mlops-system",
        "--out", str(identity_file),
    ]) == 0
    # the server trusts its own CA, not this one; re-issue under the server CA
    return workdir, identity_file


@pytest.fixture()
def cli_server(workdir):
    """Server whose trust anchors come from the CLI-initialized CA."""
    from ans.server import AnsServer, ServerConfig

    config = ServerConfig(
        listen="127.0.0.1:0",
        anchors_path=str(workdir / "ca" / "anchors.json"),
        policy_path=str(workdir / "policy.json"),
        log_path=str(workdir / "events.log"),
        snapshot_path=str(workdir / "snap.json"),
        fsync=False,
    )
    server = AnsServer(config)
    server.start()
    yield server
    server.shutdown()


def _issue(workdir, out="agent.json", name=A2A_EXAMPLE):
    identity_file = workdir / out
    code = main([
        "cert", "issue", "--keys", str(workdir / "ca"),
        "--name", name, "--endpoint", "http://127.0.0.1:7001",
        "--capability", "statistical-analysis", "--namespace", "mlops-system",
        "--out", str(identity_file),
    ])
    assert code == 0
    return identity_file


def test_keygen_writes_private_file(tmp_path, capsys):
    out = tmp_path / "key.json"
    assert main(["keygen", "--out", str(out)]) == 0
    assert oct(out.stat().st_mode & 0o777) == "0o600"
    doc = json.loads(out.read_text())
    assert doc["did"].startswith("did:ans:")


def test_ca_init_creates_material(workdir):
    for filename in ("ca-root.json", "ca-intermediate.json", "anchors.json"):
        assert (workdir / "ca" / filename).exists()


def test_cert_issue_identity_loads(workdir):
    from ans.cli import load_identity

    identity_file = _issue(workdir)
    identity, namespace = load_identity(str(identity_file))
    assert identity.name.render() == A2A_EXAMPLE
    assert namespace == "mlops-system"
    assert set(identity.capabilities) == {"concept-drift-detection", "statistical-analysis"}


def test_register_resolve_attest_flow(workdir, cli_server, capsys):
    identity_file = _issue(workdir)
    url = cli_server.url

    assert main(["register", "--registry", url, "--identity", str(identity_file)]) == 0
    capsys.readouterr()

    assert main(["--output", "json", "resolve", "--registry", url,
                 "--capability", "concept-drift-detection"]) == 0
    out = capsys.readouterr().out
    records = json.loads(out)
    assert [AgentRecord.from_doc(r).name.render() for r in records] == [A2A_EXAMPLE]

    assert main(["attest", "--registry", url, "--identity", str(identity_file),
                 "--capability", "concept-drift-detection"]) == 0
    # denied: capability the identity never committed
    assert main(["attest", "--registry", url, "--identity", str(identity_file),
                 "--capability", "security-scanning"]) == 3


def test_register_duplicate_is_operational_error(workdir, cli_server, capsys):
    first = _issue(workdir, out="one.json")
    second = _issue(workdir, out="two.json")
    url = cli_server.url
    assert main(["register", "--registry", url, "--identity", str(first)]) == 0
    assert main(["register", "--registry", url, "--identity", str(second)]) == 1


@pytest.mark.parametrize("text", ["{}", "not json", "[]"], ids=["empty", "not-json", "list"])
def test_faulty_identity_file_is_malformed(workdir, capsys, text):
    identity_file = workdir / "faulty.json"
    identity_file.write_text(text)
    assert main(["register", "--registry", "http://127.0.0.1:9",
                 "--identity", str(identity_file)]) == 1
    assert "MALFORMED" in capsys.readouterr().err


@pytest.mark.parametrize("filename,change", [
    ("ca-intermediate.json", {"seed": "not hex"}),
    ("ca-intermediate.json", {"cert": 1}),
    ("ca-root.json", {"cert": None}),
], ids=["seed", "intermediate-cert", "root-cert"])
def test_faulty_ca_file_is_malformed(workdir, capsys, filename, change):
    path = workdir / "ca" / filename
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    assert main(["cert", "issue", "--keys", str(workdir / "ca"), "--name", A2A_EXAMPLE,
                 "--endpoint", "http://127.0.0.1:7001", "--out", str(workdir / "a.json")]) == 1
    assert "MALFORMED" in capsys.readouterr().err


def test_registry_down_is_operational_error(workdir, capsys):
    identity_file = _issue(workdir)
    assert main(["register", "--registry", "http://127.0.0.1:9",
                 "--identity", str(identity_file)]) == 1


def test_policy_test_exit_codes(workdir, capsys):
    assert main(["policy", "test", "--policy", str(workdir / "policy.json"),
                 "--manifest", str(workdir / "listing.yaml")]) == 0
    code = main(["policy", "test", "--policy", str(workdir / "empty-policy.json"),
                 "--manifest", str(workdir / "listing.yaml")])
    assert code == 3
    assert "default deny" in capsys.readouterr().out


def test_admission_validate_local_and_remote(workdir, cli_server, capsys):
    args = ["admission", "validate", "--manifest", str(workdir / "listing.yaml")]
    assert main(args + ["--policy", str(workdir / "policy.json")]) == 0
    assert main(args + ["--registry", cli_server.url]) == 0
    bad = yaml.safe_load(LISTING_MANIFEST_YAML)
    bad["spec"]["environment"] = "staging"
    (workdir / "bad.yaml").write_text(yaml.safe_dump(bad))
    assert main(["admission", "validate", "--manifest", str(workdir / "bad.yaml"),
                 "--policy", str(workdir / "policy.json")]) == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["register"])  # missing required --identity
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2


def test_json_output_round_trips_through_server_parsers(workdir, cli_server, capsys):
    identity_file = _issue(workdir)
    main(["register", "--registry", cli_server.url, "--identity", str(identity_file),
          "--namespace", "mlops-system"])
    capsys.readouterr()
    assert main(["--output", "json", "resolve", "--registry", cli_server.url,
                 "--capability", "concept-drift-detection"]) == 0
    for doc in json.loads(capsys.readouterr().out):
        record = AgentRecord.from_doc(doc)
        assert record.to_doc() == doc


def test_cli_import_loads_no_client_harness_or_yaml():
    # `ansctl serve` should load only serving code: each module costs start-up time.
    code = ("import sys, ans.cli\n"
            "print(sorted(m for m in ('ans.harness', 'ans.client', 'yaml') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    assert out.stdout.strip() == "[]"
    from ans.cli import load_identity, save_identity  # noqa: F401 - perfbench imports these


@pytest.mark.parametrize("command", [
    ["demo", "--agents", "4", "--namespaces", "2"],
    ["bench", "--agents", "2", "--namespaces", "2", "--duration", "1", "--warmup", "1"],
], ids=["demo", "bench"])
def test_bench_and_demo_print_their_report_as_json(capsys, command):
    main(["--output", "json", *command])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["phases" if command[0] == "demo" else "operations"]["registration"]) == {
        "count", "mean_ms", "p95_ms", "p99_ms"}


def test_serve_with_an_ill_typed_config_exits_1_at_startup(tmp_path):
    config = tmp_path / "server.json"
    config.write_text(json.dumps({"listen": "127.0.0.1:0", "record_ttl_seconds": "3600"}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-m", "ans.cli", "serve", "--config", str(config)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 1 and "'record_ttl_seconds'" in out.stderr


@pytest.mark.parametrize("source", ["flag", "env", "config-file"])
def test_serve_with_a_non_numeric_listen_port_exits_1(tmp_path, monkeypatch, capsys, source):
    argv = ["serve"]
    if source == "flag":
        argv += ["--listen", "127.0.0.1:abc"]
    elif source == "env":
        monkeypatch.setenv("ANS_LISTEN", "abc")
    else:
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"listen": "abc"}))
        argv += ["--config", str(config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "MALFORMED" in err and "'listen'" in err


def test_serve_subprocess_sigterm_snapshot(workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    snap = workdir / "serve-snap.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ans.cli", "serve",
         "--listen", "127.0.0.1:18499",
         "--anchors", str(workdir / "ca" / "anchors.json"),
         "--policy", str(workdir / "policy.json"),
         "--log", str(workdir / "serve-events.log"),
         "--snapshot", str(snap)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    try:
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with urllib.request.urlopen("http://127.0.0.1:18499/v1/healthz") as r:
                    if r.status == 200:
                        break
            except OSError:
                time.sleep(0.1)
        else:
            raise AssertionError("server never became healthy")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert snap.exists()
    finally:
        if proc.poll() is None:
            proc.kill()


@pytest.mark.parametrize("command", ["admission", "policy"])
def test_unparseable_manifest_is_malformed_not_a_traceback(workdir, capsys, command):
    (workdir / "broken.yaml").write_text("a: [1, 2")
    argv = (["admission", "validate"] if command == "admission" else ["policy", "test"])
    assert main(argv + ["--manifest", str(workdir / "broken.yaml"),
                        "--policy", str(workdir / "policy.json")]) == 1
    assert "MALFORMED" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "admission", "policy"])
def test_undecodable_policy_file_is_policy_parse(workdir, capsys, command):
    policy = workdir / "undecodable.json"
    policy.write_bytes(b"\xff\xfe\x7b")
    if command == "serve":
        argv = ["serve", "--listen", "127.0.0.1:0", "--log", str(workdir / "events.log")]
    else:
        argv = (["admission", "validate"] if command == "admission" else ["policy", "test"])
        argv += ["--manifest", str(workdir / "listing.yaml")]
    assert main(argv + ["--policy", str(policy)]) == 1
    assert "POLICY_PARSE" in capsys.readouterr().err


def test_policy_path_that_is_a_directory_exits_1(workdir, capsys):
    assert main(["policy", "test", "--manifest", str(workdir / "listing.yaml"),
                 "--policy", str(workdir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_serve_on_a_port_in_use_exits_1(capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["serve", "--listen", f"127.0.0.1:{port}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_serve_on_a_port_in_use_leaves_the_log_untouched(tmp_path, capsys):
    log = tmp_path / "events.log"
    log.write_bytes(b'{"seq": 1, "ki')
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["serve", "--listen", f"127.0.0.1:{port}", "--log", str(log)]) == 1
    assert log.read_bytes() == b'{"seq": 1, "ki'
    assert "Traceback" not in capsys.readouterr().err


def test_serve_flags_are_the_settings_flags(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "--help"])
    assert exit_.value.code == 0
    flags = re.findall(r"^  (--[a-z]+)", capsys.readouterr().out, re.MULTILINE)
    assert flags == ["--config", "--listen", "--anchors", "--policy", "--log", "--snapshot"]
