import dataclasses
import json
import os
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

import pytest

from constraintbench.composer import FRAMEWORKS, ConstraintSet, TaskSpec, task_id
from constraintbench.errors import TaskSetupError
from constraintbench.diffs import parse_patch
from constraintbench.golden import files_to_diff, golden_patch, layered_files, write_recorded_tree
from constraintbench import harness
from constraintbench.harness import (
    HarnessConfig,
    PatchProvider,
    build_phase,
    evaluate_phase,
    load_campaign,
    run_campaign,
)
from constraintbench.refserver import ServerHandle
from constraintbench.suite import SuiteResult, load_collection, poll_health
from constraintbench.taxonomy import assemble_evidence
from constraintbench.verifiers import structural_compliance

from conftest import run_git, write_tree

MINI_COLLECTION = json.dumps(
    {
        "name": "mini",
        "folders": [
            {
                "name": "Health",
                "requests": [
                    {
                        "name": "health",
                        "method": "GET",
                        "path": "/health-check",
                        "assertions": [
                            {"kind": "status_code", "expect": 200},
                            {"kind": "property_presence", "target": "status"},
                        ],
                    }
                ],
            }
        ],
    }
)


@pytest.fixture
def mini_collection():
    return load_collection(MINI_COLLECTION)


@pytest.fixture
def config(tmp_path):
    return HarnessConfig(
        port_pool=[8101, 8102, 8103],
        health_timeout=3.6,
        workspace_root=str(tmp_path / "ws"),
        pg_url=None,
    )


@pytest.fixture
def flask_l0():
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet()
    return TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints, prompt="build it", setup_commands=[],
    )


def make_workspace_root(tmp_path):
    root = tmp_path / "ws"
    root.mkdir(exist_ok=True)
    return root


def test_provider_parse():
    recorded = PatchProvider.parse("recorded:patches/")
    assert recorded.kind == "recorded_directory" and recorded.location == "patches/"
    command = PatchProvider.parse("command:python3 agent.py --fast")
    assert command.kind == "external_command"
    with pytest.raises(ValueError):
        PatchProvider.parse("magic:stuff")


def test_recorded_provider_is_byte_exact_passthrough(tmp_path, flask_l0, config):
    diff = golden_patch("layered")
    (tmp_path / f"{flask_l0.id}.diff").write_text(diff)
    provider = PatchProvider("recorded_directory", str(tmp_path))
    result = build_phase(flask_l0, provider, trial=0, config=config)
    assert result.diff_text == diff


def test_recorded_provider_prefers_per_trial_file(tmp_path, flask_l0, config):
    base = tmp_path / flask_l0.id
    base.mkdir()
    (base / "trial0.diff").write_text("trial zero\n")
    (base / "trial1.diff").write_text("trial one\n")
    provider = PatchProvider("recorded_directory", str(tmp_path))
    assert build_phase(flask_l0, provider, trial=1, config=config).diff_text == "trial one\n"


def test_recorded_provider_missing_diff_is_setup_error(tmp_path, flask_l0, config):
    provider = PatchProvider("recorded_directory", str(tmp_path))
    with pytest.raises(TaskSetupError):
        build_phase(flask_l0, provider, trial=0, config=config)


def test_recorded_provider_token_passthrough(tmp_path, flask_l0, config):
    (tmp_path / f"{flask_l0.id}.diff").write_text("x\n")
    (tmp_path / f"{flask_l0.id}.diff.tokens.json").write_text(
        '{"input": 123, "output": 45}'
    )
    provider = PatchProvider("recorded_directory", str(tmp_path))
    result = build_phase(flask_l0, provider, trial=0, config=config)
    assert result.token_usage == {"input": 123, "output": 45}


def test_command_provider_diff_extraction(flask_l0, config):
    provider = PatchProvider(
        "external_command",
        "mkdir -p src && printf 'created = True\\n' > src/app.py",
    )
    result = build_phase(flask_l0, provider, trial=0, config=config)
    assert "diff --git a/src/app.py b/src/app.py" in result.diff_text
    assert "+created = True" in result.diff_text
    assert "provider exit=0" in result.logs


def test_command_provider_nonzero_exit_still_extracts(flask_l0, config):
    provider = PatchProvider(
        "external_command",
        "printf 'x = 1\\n' > half_done.py; exit 3",
    )
    result = build_phase(flask_l0, provider, trial=0, config=config)
    assert "provider exit=3" in result.logs
    assert "+x = 1" in result.diff_text


def test_command_provider_node_modules_only_yields_empty_diff(flask_l0, config):
    provider = PatchProvider(
        "external_command",
        "mkdir -p node_modules/pg && printf 'module.exports = 1;\\n' > node_modules/pg/index.js",
    )
    result = build_phase(flask_l0, provider, trial=0, config=config)
    assert result.diff_text.strip() == ""


def test_campaign_records_keep_the_provider_output(tmp_path, mini_collection, config, flask_l0):
    command = PatchProvider.parse(
        "command:echo provider-said-hello; echo then-complained >&2; echo x > a.txt; exit 3"
    )
    [record] = run_campaign([flask_l0], command, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    evaluation, provider_log = record.logs.split("\n--- provider ---\n")
    assert "run.sh" in evaluation
    # stdout and stderr are one stream, in the order the command wrote them
    assert provider_log == "provider exit=3\nprovider-said-hello\nthen-complained\n"

    # a recorded diff has no provider output, so nothing is added
    (tmp_path / f"{flask_l0.id}.diff").write_text(files_to_diff({"a.txt": ("x\n", False)}))
    recorded = PatchProvider("recorded_directory", str(tmp_path))
    [replayed] = run_campaign([flask_l0], recorded, 1, mini_collection, config=config)
    assert replayed.logs == evaluation


def test_evaluate_golden_layered_l3(conduit_collection, config):
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(architecture=True, database="sqlite", orm=True)
    task = TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints, prompt="p", setup_commands=[],
    )
    record = evaluate_phase(task, golden_patch("layered"), conduit_collection, config=config)
    assert record.patch_applied and record.health_ok
    assert record.outcome == "ok"
    assert record.suite.assertions_passed == 291
    assert record.structurally_compliant is True
    assert record.full_pass is True
    assert [r.axis for r in record.verifier_reports] == ["architecture", "database", "orm"]


def test_evaluate_runs_setup_commands(mini_collection, config, tmp_path, flask_l0):
    marker = tmp_path / "setup-ran.txt"
    task = TaskSpec(
        id=flask_l0.id, kind="generation", framework=flask_l0.framework,
        constraints=flask_l0.constraints, prompt="p",
        setup_commands=[f"echo ran > {marker}"],
    )
    record = evaluate_phase(task, golden_patch("layered"), mini_collection, config=config)
    assert marker.read_text().strip() == "ran"
    assert record.health_ok


def _gone_or_zombie(pid: int, within: float) -> bool:
    deadline = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            return True
        if stat[stat.rindex(")") + 2] == "Z":
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


def _stop(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def test_setup_timeout_stops_the_command_group(mini_collection, config, tmp_path, flask_l0):
    pid_file = tmp_path / "child.pid"
    task = TaskSpec(
        id=flask_l0.id, kind="generation", framework=flask_l0.framework,
        constraints=flask_l0.constraints, prompt="p",
        setup_commands=[f"sleep 37 & echo $! > {pid_file}; wait"],
    )
    config.setup_timeout = 0.5
    diff = files_to_diff({"run.sh": ("#!/bin/sh\nexit 7\n", True)})
    record = evaluate_phase(task, diff, mini_collection, config=config)
    child = int(pid_file.read_text())
    try:
        assert "timed out" in record.logs
        assert _gone_or_zombie(child, within=1.0)
    finally:
        _stop(child)


def test_provider_timeout_stops_the_command_group(config, tmp_path, flask_l0):
    pid_file = tmp_path / "child.pid"
    config.provider_timeout = 0.5
    provider = PatchProvider("external_command", f"sleep 37 & echo $! > {pid_file}; wait")
    result = build_phase(flask_l0, provider, trial=0, config=config)
    child = int(pid_file.read_text())
    try:
        assert result.logs == "provider timed out\n"
        assert _gone_or_zombie(child, within=1.0)
    finally:
        _stop(child)


def test_a_timed_out_provider_is_evaluated_on_what_it_wrote(
    mini_collection, config, tmp_path, flask_l0
):
    pid_file = tmp_path / "child.pid"
    config.provider_timeout = 0.5
    provider = PatchProvider(
        "external_command", f"echo 'x = 1' > half_done.py; sleep 37 & echo $! > {pid_file}; wait"
    )
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    child = int(pid_file.read_text())
    try:
        assert record.outcome == "no_run_sh"
        assert "\n--- provider ---\nprovider timed out\n" in record.logs
        assert "+x = 1" in record.diff
        assert _gone_or_zombie(child, within=1.0)
    finally:
        _stop(child)


def test_a_setup_command_leaves_nothing_in_the_background(
    mini_collection, config, tmp_path, flask_l0
):
    pid_file = tmp_path / "child.pid"
    setup = f"sleep 37 & echo $! > {pid_file}"
    task = dataclasses.replace(flask_l0, setup_commands=[setup])
    config.setup_timeout = 5.0  # bounds the test should the shell's exit not end the wait
    record = evaluate_phase(task, "", mini_collection, config=config)
    child = int(pid_file.read_text())
    try:
        assert record.outcome == "no_run_sh"
        assert f"setup `{setup}` exit=0\n" in record.logs
        assert _gone_or_zombie(child, within=1.0)
    finally:
        _stop(child)


def test_a_provider_leaves_nothing_in_the_background(config, tmp_path, flask_l0):
    pid_file = tmp_path / "child.pid"
    config.provider_timeout = 5.0
    provider = PatchProvider("external_command", f"sleep 37 & echo $! > {pid_file}")
    result = build_phase(flask_l0, provider, trial=0, config=config)
    child = int(pid_file.read_text())
    try:
        assert result.logs == "provider exit=0\n"
        assert _gone_or_zombie(child, within=1.0)
    finally:
        _stop(child)


@pytest.mark.parametrize("head", [b"ab", b"a\xc3\xa9", b"a\xe2\x82\xac", b"a\r\n"])
def test_a_cut_tail_starts_after_the_character_the_cut_splits(tmp_path, head):
    # the cut falls after head's second byte: the rest of a character or
    # of a "\r\n" it splits is dropped too, and counted
    body = b"z" * (harness.LOG_TAIL_BYTES + 2 - len(head))
    log = tmp_path / "out.log"
    log.write_bytes(head + body)
    assert harness._tail(log) == f"[{len(head)} earlier bytes dropped]\n" + body.decode()


def test_a_record_keeps_the_tail_of_each_command_output(mini_collection, config, flask_l0):
    # each child prints 5 MB; the record keeps the last LOG_TAIL_BYTES of each
    setup = "head -c 5000000 /dev/zero | tr '\\0' s"
    task = dataclasses.replace(flask_l0, setup_commands=[setup])
    run_sh = "#!/bin/sh\nhead -c 5000000 /dev/zero | tr '\\0' r\nexit 7\n"
    record = evaluate_phase(task, files_to_diff({"run.sh": (run_sh, True)}), mini_collection,
                            config=config)
    assert record.outcome == "server_exited"
    dropped = f"[{5_000_000 - harness.LOG_TAIL_BYTES} earlier bytes dropped]"
    setup_part, server_part = record.logs.split("\nserver exited with code 7"
                                                " before answering health-check\n")
    assert setup_part.endswith(f"setup `{setup}` exit=0\n{dropped}\n" + "s" * harness.LOG_TAIL_BYTES)
    assert server_part == f"--- server log ---\n{dropped}\n" + "r" * harness.LOG_TAIL_BYTES
    assert len(record.logs) < 2 * harness.LOG_TAIL_BYTES + 500


def test_output_that_is_not_utf8_is_kept_as_replacement_characters(
    mini_collection, config, flask_l0
):
    task = dataclasses.replace(flask_l0, setup_commands=["printf 'setup caf\\351\\n'"])
    record = evaluate_phase(task, "", mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "setup `printf 'setup caf\\351\\n'` exit=0\nsetup caf\ufffd\n" in record.logs

    provider = PatchProvider.parse("command:printf 'provider caf\\351\\n'; echo x > a.txt")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert record.logs.endswith("\n--- provider ---\nprovider exit=0\nprovider caf\ufffd\n")


def test_carriage_returns_in_command_output_read_as_newlines(mini_collection, config, flask_l0):
    setup = r"printf 'one\r\ntwo\rthree\n'"
    task = dataclasses.replace(flask_l0, setup_commands=[setup])
    run_sh = f"#!/bin/sh\n{setup}\nexit 7\n"
    record = evaluate_phase(task, files_to_diff({"run.sh": (run_sh, True)}), mini_collection,
                            config=config)
    assert record.logs == (
        f"setup `{setup}` exit=0\none\ntwo\nthree\n\n"
        "server exited with code 7 before answering health-check\n"
        "--- server log ---\none\ntwo\nthree\n"
    )


def test_a_patch_that_is_not_utf8_reaches_git_apply_byte_for_byte(
    tmp_path, mini_collection, config, flask_l0
):
    command = PatchProvider.parse("command:printf 'NAME = \"caf\\351\"\\n' > a.py")
    [made] = run_campaign([flask_l0], command, 1, mini_collection, config=config)
    assert made.outcome == "no_run_sh"
    assert b'+NAME = "caf\xe9"\n' in made.diff.encode("utf-8", "surrogateescape")
    assert json.loads(made.to_json())["diff"] == made.diff

    # replayed from a recorded file, the diff gives git apply the same bytes
    (tmp_path / "expected.py").write_bytes(b'NAME = "caf\xe9"\n')
    (tmp_path / f"{flask_l0.id}.diff").write_bytes(made.diff.encode("utf-8", "surrogateescape"))
    check = f"cmp a.py {tmp_path / 'expected.py'}"
    task = dataclasses.replace(flask_l0, setup_commands=[check])
    recorded = PatchProvider("recorded_directory", str(tmp_path))
    [replayed] = run_campaign([task], recorded, 1, mini_collection, config=config)
    assert replayed.outcome == "no_run_sh"
    assert replayed.diff == made.diff
    assert f"setup `{check}` exit=0\n" in replayed.logs


def test_evaluate_crashing_run_script(mini_collection, config, flask_l0):
    diff = files_to_diff(
        {
            "run.sh": ("#!/bin/sh\nexit 7\n", True),
            "app.py": ("x = 1\n", False),
        }
    )
    record = evaluate_phase(flask_l0, diff, mini_collection, config=config)
    assert record.patch_applied is True
    assert record.health_ok is False
    assert record.outcome == "server_exited"
    assert record.suite.assertions_passed == 0
    assert record.suite.assertions_total == 2
    assert "server exited with code 7 before answering health-check" in record.logs
    # the wait ends when run.sh exits, not when the health budget runs out
    assert record.wall_time < 1.0


BACKGROUND_SERVER = '''import json, os
from http.server import BaseHTTPRequestHandler, HTTPServer


class Health(BaseHTTPRequestHandler):
    def do_GET(self):
        body = json.dumps({"status": "ok"}).encode()
        self.send_response(200 if self.path == "/api/health-check" else 404)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


HTTPServer(("127.0.0.1", int(os.environ["PORT"])), Health).serve_forever()
'''


def test_evaluate_background_server_scored_and_stopped(mini_collection, config, flask_l0):
    diff = files_to_diff(
        {
            "run.sh": ("#!/bin/sh\npython3 server.py &\n", True),
            "server.py": (BACKGROUND_SERVER, False),
        }
    )
    record = evaluate_phase(flask_l0, diff, mini_collection, config=config)
    # run.sh exits 0 at once, but its server is still in the process group
    assert record.health_ok is True
    assert record.outcome == "ok"
    assert record.full_pass is True
    assert "server exited" not in record.logs
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", config.port_pool[0]), timeout=2).close()


def test_evaluate_does_not_score_a_stray_server_on_its_port(
    mini_collection, config, flask_l0, tmp_path
):
    marker = tmp_path / "launched"
    diff = files_to_diff({"run.sh": (f"#!/bin/sh\ntouch '{marker}'\nsleep 3\n", True)})
    with ServerHandle(port=0) as stray:  # answers the health check and the suite
        record = evaluate_phase(flask_l0, diff, mini_collection, config=config, port=stray.port)
    assert not marker.exists()  # run.sh never launched
    assert record.full_pass is False
    assert record.suite.assertions_passed == 0
    assert record.patch_applied is True
    assert record.health_ok is False
    assert record.setup_error is True
    assert record.outcome == "port_in_use"
    assert record.to_dict()["suite"]["not_run"] == "task setup error"
    assert f"task setup error: port {stray.port} already in use" in record.logs.splitlines()


def test_evaluate_invalid_diff_recorded_not_crashed(mini_collection, config, flask_l0):
    record = evaluate_phase(flask_l0, "diff --git a/x b/x\n@@ nonsense", mini_collection,
                            config=config)
    assert record.patch_applied is False
    assert record.outcome == "apply_failed"
    assert record.suite.assertions_passed == 0
    assert record.structurally_compliant is True  # L0: no applicable verifiers


def test_evaluate_missing_run_script(mini_collection, config, flask_l0):
    diff = files_to_diff({"app.py": ("x = 1\n", False)})
    record = evaluate_phase(flask_l0, diff, mini_collection, config=config)
    assert record.patch_applied is True
    assert record.health_ok is False
    assert record.outcome == "no_run_sh"


def test_postgres_task_without_target_is_environment_skipped(mini_collection, config):
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(database="postgres")
    task = TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints, prompt="p", setup_commands=[],
    )
    record = evaluate_phase(task, golden_patch("layered"), mini_collection, config=config)
    assert record.environment_skipped is True
    assert record.outcome == "env_skipped"
    assert record.full_pass is False


# What records stored for each way a run ends, before ``outcome`` existed:
# the values of STAGE_FLAGS, in that order
STAGE_FLAGS = ("patch_applied", "server_started", "health_ok", "setup_error", "environment_skipped")
STORED_FLAGS = {
    "ok": (True, True, True, False, False),  # golden L3, background server
    "server_exited": (True, True, False, False, False),  # crashing run.sh
    "health_timeout": (True, True, False, False, False),  # server never answers 200
    "no_run_sh": (True, False, False, False, False),  # missing run.sh
    "port_in_use": (True, False, False, True, False),  # stray server on the port
    "apply_failed": (False, False, False, False, False),  # invalid diff
    "setup_error": (False, False, False, True, False),  # missing recorded diff
    "env_skipped": (False, False, False, False, True),  # postgres without PG_URL
    "internal_error": (False, False, False, False, False),  # crashing run_one
}


@pytest.mark.parametrize("outcome", sorted(harness.OUTCOMES))
def test_outcome_stores_the_stage_flags_of_its_scenario(outcome, mini_collection, flask_l0):
    """A record stores ``outcome`` alone; the flags follow from it."""
    assert set(STORED_FLAGS) == set(harness.OUTCOMES)
    suite = SuiteResult(name="mini") if outcome == "ok" else None
    record = harness.RunRecord.of(flask_l0, 0, outcome, "", mini_collection, suite=suite)
    stored = json.loads(record.to_json())
    assert not set(STAGE_FLAGS) & set(stored)
    assert stored["outcome"] == outcome
    stages = harness.OUTCOMES[stored["outcome"]][0]
    patch_applied, server_started, health_ok, setup_error, skipped = STORED_FLAGS[outcome]
    assert (stages >= 1, stages >= 2, stages >= 3) == (patch_applied, server_started, health_ok)
    assert (record.patch_applied, record.health_ok) == (patch_applied, health_ok)
    assert (record.setup_error, record.environment_skipped) == (setup_error, skipped)
    assert stored["suite"].get("not_run") == harness.OUTCOMES[outcome][1]


GARBAGE_SERVER = '''import os, socket

with socket.create_server(("127.0.0.1", int(os.environ["PORT"]))) as listener:
    while True:
        connection, _ = listener.accept()
        with connection:
            connection.recv(65536)
            connection.sendall(b"garbage\\r\\n\\r\\n")
'''


def test_evaluate_keeps_the_verdict_when_the_server_answers_garbage(mini_collection, config):
    files = layered_files()
    files["run.sh"] = ("#!/bin/sh\nexec python3 garbage.py\n", True)
    files["garbage.py"] = (GARBAGE_SERVER, False)
    config.health_timeout = 0.3
    record = evaluate_phase(_l3_task(), files_to_diff(files), mini_collection, config=config)
    assert record.outcome == "health_timeout"
    assert record.patch_applied is True
    assert record.structurally_compliant is True
    assert [r.axis for r in record.verifier_reports] == ["architecture", "database", "orm"]
    assert "--- server log ---" in record.logs


def test_relative_workspace_root_is_resolved(tmp_path, monkeypatch, conduit_collection, config):
    monkeypatch.chdir(tmp_path)
    config.workspace_root = "out/ws"
    record = evaluate_phase(_l3_task(), golden_patch("layered"), conduit_collection, config=config)
    assert record.suite.assertions_passed == record.suite.assertions_total == 291, record.logs
    assert record.outcome == "ok"
    assert list((tmp_path / "out" / "ws").iterdir()) == []


def test_verifiers_run_even_when_server_never_starts(config, mini_collection):
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(architecture=True, database="sqlite", orm=True)
    task = TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints, prompt="p", setup_commands=[],
    )
    diff = files_to_diff(
        {
            "routes/r.py": ("from services.s import f\n", False),
            "services/s.py": ("def f():\n    pass\n", False),
            "models/m.py": ("import sqlite3\nURL = 'sqlite:///x.db'\n", False),
            "requirements.txt": ("sqlalchemy\n", False),
        }
    )
    record = evaluate_phase(task, diff, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert len(record.verifier_reports) == 3
    assert record.structurally_compliant is True


def test_campaign_counts_and_index(tmp_path, mini_collection, config, flask_l0):
    patches = tmp_path / "patches"
    write_recorded_tree(patches, {flask_l0.id: "layered"})
    provider = PatchProvider("recorded_directory", str(patches))
    out = tmp_path / "results"
    records = run_campaign(
        [flask_l0], provider, trials=3, collection=mini_collection,
        config=config, out_dir=out, labels={"agent": "replay", "model": "golden"},
    )
    assert len(records) == 3
    assert [r.trial for r in records] == [0, 1, 2]
    index = json.loads((out / "campaign.json").read_text())
    assert index["trials"] == 3
    assert len(index["runs"]) == 3
    loaded = load_campaign(out)
    assert {r["task_id"] for r in loaded} == {flask_l0.id}


def test_campaign_run_counts_match_tasks_times_trials(tmp_path, mini_collection, config):
    # 16 tasks x 3 trials -> 48 records, in task-major deterministic order.
    # The provider directory is empty, so every run takes the cheap
    # setup-error path; the counting logic is what matters here.
    from constraintbench.composer import enumerate_variants

    frameworks = [FRAMEWORKS[name] for name in ("aiohttp", "fastapi", "express", "fastify")]
    tasks = [t for t in enumerate_variants(frameworks) if t.constraints.database != "postgres"][:16]
    assert len(tasks) == 16
    provider = PatchProvider("recorded_directory", str(tmp_path / "void"))
    records = run_campaign(tasks, provider, trials=3, collection=mini_collection, config=config)
    assert len(records) == 48
    assert [(r.task_id, r.trial) for r in records] == [
        (task.id, trial) for task in tasks for trial in range(3)
    ]


def test_campaign_zero_tasks():
    provider = PatchProvider("recorded_directory", "/nonexistent")
    collection = load_collection(MINI_COLLECTION)
    assert run_campaign([], provider, trials=3, collection=collection,
                        config=HarnessConfig()) == []


def test_campaign_survives_missing_recorded_diff(tmp_path, mini_collection, config, flask_l0):
    provider = PatchProvider("recorded_directory", str(tmp_path / "empty"))
    records = run_campaign([flask_l0], provider, trials=2, collection=mini_collection,
                           config=config)
    assert len(records) == 2
    assert all(r.setup_error for r in records)
    assert [r.outcome for r in records] == ["setup_error", "setup_error"]
    assert all(not r.full_pass for r in records)


def test_missing_diff_record_keeps_its_wall_time(tmp_path, mini_collection, config, flask_l0):
    provider = PatchProvider("recorded_directory", str(tmp_path / "empty"))
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "setup_error"
    assert record.wall_time > 0


def test_provider_timeout_record_keeps_its_wall_time(mini_collection, config, flask_l0):
    config.provider_timeout = 0.3
    provider = PatchProvider("external_command", "sleep 30")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"  # it changed nothing, so there is no run.sh
    assert record.wall_time >= 0.3


def test_slow_provider_time_is_part_of_the_record(tmp_path, mini_collection, config, flask_l0):
    (tmp_path / "server.py").write_text(BACKGROUND_SERVER)
    provider = PatchProvider(
        "external_command",
        f"sleep 0.3 && cp '{tmp_path / 'server.py'}' server.py"
        " && printf '#!/bin/sh\\nexec python3 server.py\\n' > run.sh && chmod +x run.sh",
    )
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "ok"
    assert record.wall_time >= 0.3


def test_campaign_contains_a_crashing_run(monkeypatch, mini_collection, config, flask_l0):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_one", crash)
    provider = PatchProvider("recorded_directory", "unused")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.logs == "internal error: RuntimeError('boom')"
    assert record.outcome == "internal_error"
    assert record.verifier_reports == [] and record.structurally_compliant is False
    stored = record.to_dict()
    assert stored["diff"] == ""
    assert stored["suite"]["not_run"] == "internal error"
    assert stored["task"]["id"] == flask_l0.id


def test_campaign_never_gives_one_port_to_two_runs(monkeypatch, mini_collection, flask_l0):
    config = HarnessConfig(port_pool=[8141, 8142], workers=2, pg_url=None)
    lock = threading.Lock()
    held: set[int] = set()
    clashes: list[tuple[int, int]] = []
    used: list[int] = []

    def slow_run_one(task, provider, collection, trial, config, labels=None, port=None):
        with lock:
            if port in held:
                clashes.append((trial, port))
            held.add(port)
            used.append(port)
        # trial 0 holds its port while the other worker goes through the rest
        time.sleep(0.3 if trial == 0 else 0.02)
        with lock:
            held.discard(port)
        return trial

    monkeypatch.setattr(harness, "run_one", slow_run_one)
    provider = PatchProvider("recorded_directory", "unused")
    records = run_campaign([flask_l0], provider, 6, mini_collection, config=config)
    assert records == list(range(6))
    assert clashes == []
    assert set(used) == {8141, 8142}


def test_campaign_rejects_a_repeated_port(mini_collection, flask_l0):
    config = HarnessConfig(port_pool=[8143, 8144, 8143], workers=2, pg_url=None)
    with pytest.raises(ValueError, match="port 8143"):
        run_campaign([flask_l0], PatchProvider("recorded_directory", "unused"), 2,
                     mini_collection, config=config)


@pytest.mark.parametrize("overrides,message", [
    ({"port_pool": [8145, 0]}, "port 0, outside 1-65535"),
    ({"port_pool": [70000]}, "port 70000, outside 1-65535"),
    ({"health_timeout": 0}, "health_timeout must be positive"),
    ({"health_timeout": -1.0}, "health_timeout must be positive"),
    *[({f.name: value}, f"{f.name} must be positive and finite")
      for f in dataclasses.fields(HarnessConfig) if type(f.default) is float
      for value in (0.0, -5.0, float("inf"), float("nan"))],
])
def test_campaign_rejects_a_config_no_run_could_use(mini_collection, flask_l0, overrides,
                                                     message):
    config = HarnessConfig(pg_url=None, **overrides)
    with pytest.raises(ValueError, match=message):
        run_campaign([flask_l0], PatchProvider("recorded_directory", "unused"), 1,
                     mini_collection, config=config)


def test_campaign_rejects_an_empty_port_pool(mini_collection, flask_l0):
    config = HarnessConfig(port_pool=[], pg_url=None)
    raised: list[Exception] = []

    def campaign():
        try:
            run_campaign([flask_l0], PatchProvider("recorded_directory", "unused"), 1,
                         mini_collection, config=config)
        except ValueError as exc:
            raised.append(exc)

    # a daemon thread, so that a campaign blocked on the empty pool fails the test
    thread = threading.Thread(target=campaign, daemon=True)
    thread.start()
    thread.join(timeout=2)
    assert not thread.is_alive(), "run_campaign blocked on an empty port pool"
    assert len(raised) == 1 and "port_pool" in str(raised[0])


def test_load_campaign_missing_index(tmp_path):
    with pytest.raises(TaskSetupError):
        load_campaign(tmp_path)


def test_campaign_leaves_no_workspace_behind(tmp_path, mini_collection, config, flask_l0):
    patches = tmp_path / "patches"
    write_recorded_tree(patches, {flask_l0.id: "layered"})
    provider = PatchProvider("recorded_directory", str(patches))
    run_campaign([flask_l0], provider, trials=2, collection=mini_collection, config=config)
    ws_root = Path(config.workspace_root)
    assert not ws_root.exists() or list(ws_root.iterdir()) == []


def test_evaluate_composed_task_with_default_setup(mini_collection, config):
    # the composer's default python setup command is a pip no-op here because
    # the golden requirements line is unpinned and already satisfied
    from constraintbench.composer import enumerate_variants

    task = enumerate_variants([FRAMEWORKS["flask"]])[8]  # arch+sqlite+orm
    assert task.setup_commands == ["pip install -r requirements.txt"]
    record = evaluate_phase(task, golden_patch("layered"), mini_collection, config=config)
    assert record.health_ok is True
    assert record.structurally_compliant is True
    assert "pip install" in record.logs


def test_campaign_parallel_workers(tmp_path, conduit_collection, flask_l0):
    config = HarnessConfig(
        port_pool=[8131, 8132], workers=2,
        health_timeout=5.85,
        workspace_root=str(tmp_path / "ws"),
    )
    patches = tmp_path / "patches"
    write_recorded_tree(patches, {flask_l0.id: "layered"})
    provider = PatchProvider("recorded_directory", str(patches))
    records = run_campaign([flask_l0], provider, trials=4, collection=conduit_collection,
                           config=config)
    assert len(records) == 4
    assert [r.trial for r in records] == [0, 1, 2, 3]
    assert all(r.suite.assertions_passed == 291 for r in records)


def test_group_alive_ignores_zombie_orphans(tmp_path):
    # run.sh exits at once; its backgrounded child exits 0.3 s later and is
    # left for PID 1 to reap, so it may linger as a zombie of the group
    (tmp_path / "run.sh").write_text("(sleep 0.3) & exit 0\n")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    process = subprocess.Popen(["bash", "run.sh"], cwd=tmp_path, start_new_session=True)
    started = time.monotonic()
    try:
        healthy = poll_health(f"http://127.0.0.1:{port}/api", timeout=9.5,
                              alive=lambda: harness._group_alive(process))
        waited = time.monotonic() - started
    finally:
        harness._terminate(process, 1.0)
    assert healthy is False
    assert waited < 0.3 + 0.5


def test_terminate_returns_only_once_the_group_is_gone(monkeypatch):
    # a server that outlived run.sh is not its child to reap, and SIGKILL
    # takes effect later: teardown must wait until the group reads empty
    answers = iter([True, True, True, False])
    monkeypatch.setattr(harness, "_group_alive", lambda process: next(answers))
    sent = []
    monkeypatch.setattr(harness, "_signal_group", lambda process, signum: sent.append(signum))
    process = subprocess.Popen(["true"])
    process.wait()
    harness._terminate(process, grace=2.0)
    assert sent == [signal.SIGTERM, signal.SIGKILL]
    assert next(answers, "drained") == "drained"


# -- stored records ----------------------------------------------------------------


def _l3_task(database="sqlite"):
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(architecture=True, database=database, orm=True)
    return TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints, prompt="p", setup_commands=[],
    )


def _layered_with_run_sh(script):
    files = layered_files()
    files["run.sh"] = (script, True)
    return files_to_diff(files)


STORED_RUNS = {
    "full_pass": (_l3_task(), golden_patch("layered")),
    "partial_pass": (_l3_task(), _layered_with_run_sh(
        "#!/bin/sh\nexec python3 server.py --disable comments\n")),
    "crashed": (_l3_task(), _layered_with_run_sh("#!/bin/sh\nexit 7\n")),
    "environment_skipped": (_l3_task("postgres"), golden_patch("layered")),
}


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory, conduit_collection):
    """Each kind of run once: (task, in-memory record, its stored JSON)."""
    config = HarnessConfig(
        port_pool=[8104], health_timeout=3.6, pg_url=None,
        workspace_root=str(tmp_path_factory.mktemp("ws")),
    )
    runs = {}
    for kind, (task, diff) in STORED_RUNS.items():
        record = evaluate_phase(task, diff, conduit_collection, config=config)
        runs[kind] = (task, record, json.loads(record.to_json()))
    return runs


def test_stored_runs_are_the_intended_kinds(stored_runs):
    assert stored_runs["full_pass"][1].full_pass is True
    assert stored_runs["partial_pass"][1].suite.assertions_passed == 291 - 26
    assert stored_runs["crashed"][1].outcome == "server_exited"
    assert stored_runs["crashed"][1].health_ok is False
    assert stored_runs["environment_skipped"][1].environment_skipped is True


@pytest.mark.parametrize("kind", sorted(STORED_RUNS))
def test_record_rebuilds_suite_and_verdicts(stored_runs, conduit_collection, kind):
    task, record, stored = stored_runs[kind]
    suite = SuiteResult.from_record(stored["suite"], conduit_collection)
    assert suite == record.suite
    assert suite.to_dict() == record.suite.to_dict()

    compliant, reports = structural_compliance(task, parse_patch(stored["diff"]))
    assert compliant == stored["structurally_compliant"]
    assert json.loads(json.dumps([r.to_dict() for r in reports])) == stored["verifier_reports"]
    assert len(reports) == 3


def test_record_holds_the_diff_not_the_parsed_patch(stored_runs):
    stored = stored_runs["full_pass"][2]
    assert stored["diff"] == golden_patch("layered")
    assert "patch" not in stored


def test_record_diff_leaves_out_excluded_sections(mini_collection, config, flask_l0):
    kept = files_to_diff({"app.py": ("x = 1\n", False)})
    vendored = files_to_diff({"node_modules/pkg/index.js": ("module.exports = 1\n", False)})
    record = evaluate_phase(flask_l0, kept + vendored, mini_collection, config=config)
    assert record.patch_applied is True
    assert record.to_dict()["diff"] == kept


def test_excluded_sections_are_not_applied(mini_collection, config, flask_l0):
    run_sh = files_to_diff(
        {"run.sh": ("#!/bin/sh\ntest -e node_modules/pkg/index.js && exit 5; exit 6\n", True)}
    )
    vendored = files_to_diff({"node_modules/pkg/index.js": ("module.exports = 1\n", False)})
    record = evaluate_phase(flask_l0, run_sh + vendored, mini_collection, config=config)
    assert record.diff == run_sh
    assert "server exited with code 6 before answering health-check" in record.logs

    only_vendored = evaluate_phase(flask_l0, vendored, mini_collection, config=config)
    assert only_vendored.patch_applied is True
    assert "empty diff: nothing to apply" in only_vendored.logs


def test_record_suite_shapes(stored_runs):
    full = stored_runs["full_pass"][2]["suite"]
    assert full["failed"] == []
    assert "not_run" not in full
    assert all(passed == total for passed, total in full["folders"].values())

    crashed = stored_runs["crashed"][2]["suite"]
    assert crashed["not_run"] == "server unreachable"
    assert "failed" not in crashed
    assert all(passed == 0 for passed, _ in crashed["folders"].values())

    partial = stored_runs["partial_pass"][2]["suite"]
    assert len(partial["failed"]) == 26
    assert {row["folder"] for row in partial["failed"]} == {"Articles, Favorites, Comments"}


def test_evidence_from_a_partial_failure_record(stored_runs):
    bundle = assemble_evidence(stored_runs["partial_pass"][2])
    assert bundle.test_summary == {
        "Auth": {"passed": 30, "total": 30},
        "Articles": {"passed": 20, "total": 20},
        "Articles, Favorites, Comments": {"passed": 186, "total": 212},
        "Profiles": {"passed": 26, "total": 26},
        "Tags": {"passed": 3, "total": 3},
    }
    assert bundle.run_digest["assertions_passed"] == 265


# -- evaluate workspaces: a plain directory and one `git apply` -----------------


def record_subprocess_runs(monkeypatch) -> list:
    """Record the argv of every process the harness starts: ``subprocess.run``
    starts its process through ``subprocess.Popen`` too."""
    calls = []
    real_popen = subprocess.Popen

    def spy(args, *rest, **kwargs):
        calls.append(args)
        return real_popen(args, *rest, **kwargs)

    monkeypatch.setattr(harness.subprocess, "Popen", spy)
    return calls


def test_evaluate_runs_git_apply_and_no_other_git(monkeypatch, mini_collection, config, flask_l0):
    calls = record_subprocess_runs(monkeypatch)
    diff = files_to_diff({"app.py": ("x = 1\n", False)})
    record = evaluate_phase(flask_l0, diff, mini_collection, config=config)
    assert record.patch_applied is True
    assert [argv[:2] for argv in calls] == [["git", "apply"]]


def test_evaluate_empty_diff_runs_no_git(monkeypatch, mini_collection, config, flask_l0):
    calls = record_subprocess_runs(monkeypatch)
    record = evaluate_phase(flask_l0, "", mini_collection, config=config)
    assert record.patch_applied is True
    assert "empty diff: nothing to apply" in record.logs
    assert calls == []


def _no_workspace(*args, **kwargs):
    raise TaskSetupError("no room")


@pytest.mark.parametrize("scenario, outcome", [
    ("env_skipped", "env_skipped"), ("setup_error", "setup_error"),
    ("empty_diff", "no_run_sh"), ("applied", "no_run_sh"), ("parse_error", "apply_failed"),
])
def test_each_run_is_verified_once(
    scenario, outcome, monkeypatch, mini_collection, config, flask_l0
):
    events = []
    real_popen = subprocess.Popen
    real_compliance = harness.structural_compliance
    real_stages = harness._run_stages

    class SpyPopen(real_popen):
        def __init__(self, args, *rest, **kwargs):
            super().__init__(args, *rest, **kwargs)
            self.applies = args[:2] == ["git", "apply"]
            if self.applies:
                events.append("apply started")

        def communicate(self, *args, **kwargs):
            self._waited()
            return super().communicate(*args, **kwargs)

        def wait(self, *args, **kwargs):
            self._waited()
            return super().wait(*args, **kwargs)

        def _waited(self):
            if self.applies:
                events.append("apply waited")
                self.applies = False

    def spied(name, event):
        real = getattr(harness, name)

        def spy(*args, **kwargs):
            events.append(event)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)

    def stages(*args, **kwargs):
        try:
            return real_stages(*args, **kwargs)
        finally:
            events.append("stages ended")

    monkeypatch.setattr(harness.subprocess, "Popen", SpyPopen)
    spied("parse_patch", "parsed")
    spied("structural_compliance", "verified")
    monkeypatch.setattr(harness, "_run_stages", stages)
    task, diff = flask_l0, ""
    if scenario == "env_skipped":
        task, diff = _l3_task("postgres"), golden_patch("layered")
    elif scenario == "setup_error":
        monkeypatch.setattr(harness, "_make_workspace", _no_workspace)
    elif scenario == "applied":
        diff = files_to_diff({"app.py": ("x = 1\n", False)})
    elif scenario == "parse_error":
        diff = "diff --git a/x b/x\n@@ nonsense"
    record = evaluate_phase(task, diff, mini_collection, config=config)
    assert record.outcome == outcome
    # a diff that reaches `git apply` is verified after git starts and
    # before it is waited for; any other run once its stages have ended
    if scenario in ("applied", "parse_error"):
        assert events == [
            "apply started", "parsed", "verified", "apply waited", "stages ended",
        ]
    else:
        assert events == ["stages ended", "parsed", "verified"]
    parse_error = scenario == "parse_error"
    assert record.logs.startswith("patch parse error:") is parse_error
    patch = harness.PatchDocument() if parse_error else parse_patch(diff)
    expected = real_compliance(task, patch)[1]
    assert [r.to_dict() for r in record.verifier_reports] == [r.to_dict() for r in expected]


def test_a_verifier_that_raises_during_the_apply_leaves_nothing_behind(
    monkeypatch, tmp_path, mini_collection, config, flask_l0
):
    applies = []
    real_popen = subprocess.Popen

    def spy(args, *rest, **kwargs):
        process = real_popen(args, *rest, **kwargs)
        if args[:2] == ["git", "apply"]:
            applies.append(process)
        return process

    def broken(*args, **kwargs):
        [applying] = applies
        assert applying.returncode is None  # started, not yet waited for
        raise RuntimeError("verifier broke")

    monkeypatch.setattr(harness.subprocess, "Popen", spy)
    monkeypatch.setattr(harness, "structural_compliance", broken)
    patches = tmp_path / "patches"
    patches.mkdir()
    (patches / f"{flask_l0.id}.diff").write_text(files_to_diff({"app.py": ("x = 1\n", False)}))
    provider = PatchProvider("recorded_directory", str(patches))
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "internal_error"
    assert record.logs == "internal error: RuntimeError('verifier broke')"
    [applying] = applies
    assert applying.returncode is not None  # reaped
    assert list(Path(config.workspace_root).iterdir()) == []


def test_overlapped_verification_keeps_every_record(
    monkeypatch, tmp_path, mini_collection, flask_l0
):
    """Records equal those of the earlier order, where the patch was parsed
    and verified before the workspace was made, apart from ``wall_time``."""
    config = HarnessConfig(
        port_pool=[8105], health_timeout=1.2,
        workspace_root=str(tmp_path / "ws"), pg_url=None,
    )
    no_run_sh = layered_files()
    del no_run_sh["run.sh"]
    runs = {
        "golden": (_l3_task(), golden_patch("layered")),
        "golden-monolithic": (flask_l0, golden_patch("monolithic")),
        "crash": (_l3_task(), _layered_with_run_sh(
            "#!/bin/sh\necho 'fatal: cannot open database' >&2\nexit 3\n")),
        "never_listens": (_l3_task(), _layered_with_run_sh("#!/bin/sh\nexec sleep 600\n")),
        "late_boot": (_l3_task(), _layered_with_run_sh(
            "#!/bin/sh\nsleep 0.4\nexec python3 server.py\n")),
        "no_run_sh": (_l3_task(), files_to_diff(no_run_sh)),
        "apply_reject": (_l3_task(), golden_patch("layered") + REJECTED_HUNK),
        "parse_error": (flask_l0, "diff --git a/x b/x\n@@ nonsense"),
        "env_skipped": (_l3_task("postgres"), golden_patch("layered")),
    }
    tasks = []
    patches = tmp_path / "patches"
    patches.mkdir()
    for name, (task, diff) in runs.items():
        tasks.append(dataclasses.replace(task, id=f"{task.id}-{name}"))
        (patches / f"{tasks[-1].id}.diff").write_text(diff, encoding="utf-8")
    provider = PatchProvider("recorded_directory", str(patches))

    def campaign():
        records = run_campaign(tasks, provider, 1, mini_collection, config=config)
        return [dict(record.to_dict(), wall_time=None) for record in records]

    overlapped = campaign()
    real_stages = harness._run_stages

    def verify_first(task, diff, collection, config, port, log_parts, verify):
        verify()
        return real_stages(task, diff, collection, config, port, log_parts, verify)

    monkeypatch.setattr(harness, "_run_stages", verify_first)
    assert overlapped == campaign()
    assert [r["outcome"] for r in overlapped] == [
        "ok", "ok", "server_exited", "health_timeout", "ok", "no_run_sh", "apply_failed",
        "apply_failed", "env_skipped",
    ]
    assert overlapped[7]["logs"].startswith("patch parse error:")
    assert [r["structurally_compliant"] for r in overlapped] == [
        True, True, True, True, True, True, True, True, False,
    ]


# Changes a file the empty tree lacks, so `git apply` rejects the whole patch.
REJECTED_HUNK = """diff --git a/config/server.ini b/config/server.ini
--- a/config/server.ini
+++ b/config/server.ini
@@ -1,2 +1,2 @@
 [server]
-workers = 1
+workers = 4
"""


def test_evaluate_inside_an_enclosing_git_repo(tmp_path, mini_collection, config, flask_l0):
    # git must not take the enclosing repository for the workspace's own:
    # there a bare `git apply` skips every path and still exits 0
    enclosing = tmp_path / "checkout"
    enclosing.mkdir()
    run_git(["init", "-q"], enclosing)
    config.workspace_root = str(enclosing / "scratch" / "ws")
    server = files_to_diff(
        {
            "run.sh": ("#!/bin/sh\nexec python3 server.py\n", True),
            "server.py": (BACKGROUND_SERVER, False),
        }
    )
    record = evaluate_phase(flask_l0, server, mini_collection, config=config)
    assert record.patch_applied is True
    assert record.health_ok is True
    assert record.full_pass is True

    rejected = evaluate_phase(flask_l0, server + REJECTED_HUNK, mini_collection, config=config)
    assert rejected.patch_applied is False
    assert "git apply failed" in rejected.logs
    assert rejected.outcome == "apply_failed"


# -- git reads no config of the host ---------------------------------------------


@pytest.fixture
def host_git_config(tmp_path, monkeypatch):
    """Gives the host a git config: ``write(text, where)`` writes ``text`` as
    its global (``~/.gitconfig``), XDG or system config, with ``HOME`` and
    ``XDG_CONFIG_HOME`` under ``tmp_path``."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CONFIG_HOME", str(home / "xdg"))
    for name in [name for name in os.environ if name.startswith("GIT_")]:
        monkeypatch.delenv(name)

    def write(text: str, where: str = "global"):
        path = {"global": home / ".gitconfig", "xdg": home / "xdg" / "git" / "config",
                "system": tmp_path / "gitconfig"}[where]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        if where == "system":
            monkeypatch.setenv("GIT_CONFIG_SYSTEM", str(path))

    return write


WRITE_APP = PatchProvider.parse("command:printf 'x = 1\\n' > app.py")


@pytest.mark.parametrize("where", ["global", "xdg", "system"])
def test_a_host_autocrlf_leaves_a_golden_score_whole(
    where, host_git_config, conduit_collection, config, flask_l0
):
    # with it, `git apply` would write run.sh with CRLF line ends
    host_git_config("[core]\n\tautocrlf = true\n", where)
    record = evaluate_phase(flask_l0, golden_patch("monolithic"), conduit_collection, config=config)
    assert record.outcome == "ok"
    assert record.suite.assertions_passed == 291


def test_a_host_config_in_the_environment_leaves_a_golden_score_whole(
    host_git_config, monkeypatch, conduit_collection, config, flask_l0
):
    for name, value in {"GIT_CONFIG_COUNT": "1", "GIT_CONFIG_KEY_0": "core.autocrlf",
                        "GIT_CONFIG_VALUE_0": "true"}.items():
        monkeypatch.setenv(name, value)
    record = evaluate_phase(flask_l0, golden_patch("monolithic"), conduit_collection, config=config)
    assert record.outcome == "ok"
    assert record.suite.assertions_passed == 291


def test_a_host_git_dir_is_not_the_provider_workspace_repository(
    host_git_config, monkeypatch, tmp_path, mini_collection, config, flask_l0
):
    # as in a git hook, which runs with GIT_DIR set to its own repository
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "host.git"))
    [record] = run_campaign([flask_l0], WRITE_APP, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "+x = 1" in record.diff
    assert not (tmp_path / "host.git").exists()


def test_a_host_noprefix_leaves_a_provider_diff_applicable(
    host_git_config, mini_collection, config, flask_l0
):
    host_git_config("[diff]\n\tnoprefix = true\n")
    [record] = run_campaign([flask_l0], WRITE_APP, 1, mini_collection, config=config)
    assert record.diff.startswith("diff --git a/app.py b/app.py\n")
    assert record.outcome == "no_run_sh"


def test_a_host_hook_neither_runs_nor_fails_a_provider_run(
    host_git_config, tmp_path, mini_collection, config, flask_l0
):
    hooks = tmp_path / "hooks"
    hooks.mkdir()
    (hooks / "pre-commit").write_text(f"#!/bin/sh\ntouch '{tmp_path / 'hook-ran'}'\nexit 1\n")
    (hooks / "pre-commit").chmod(0o755)
    host_git_config(f"[core]\n\thooksPath = {hooks}\n")
    [record] = run_campaign([flask_l0], WRITE_APP, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "+x = 1" in record.diff
    assert not (tmp_path / "hook-ran").exists()


def test_a_provider_that_turns_git_colour_on_still_yields_a_plain_diff(config, flask_l0):
    # the provider's own repository turns colour on; the harness's git reads none of it
    provider = PatchProvider.parse(
        "command:git init -q && git config color.diff always && printf 'x = 1\\n' > app.py"
    )
    diff = build_phase(flask_l0, provider, config=config).diff_text
    assert diff.startswith("diff --git a/app.py b/app.py\n")
    assert "\x1b" not in diff


def test_a_command_provider_build_starts_five_gits(monkeypatch, config, flask_l0):
    started = []
    real_start_git = harness._start_git

    def spy(args, cwd):
        started.append(next(arg for arg in args if not arg.startswith("-")))
        return real_start_git(args, cwd)

    monkeypatch.setattr(harness, "_start_git", spy)
    build_phase(flask_l0, WRITE_APP, config=config)
    # the baseline tree, then the extraction against it
    assert started == ["init", "add", "write-tree", "add", "diff"]


# -- the artifact rule alone drops a provider's file ------------------------------


@pytest.mark.parametrize(
    "command,path",
    [
        ("test ! -e .git && echo 'x = 1' > a.py", "a.py"),
        ("mkdir sub && git -C sub init -q && echo 'x = 1' > sub/f.py", "sub/f.py"),
        ("printf '.env\\n' > .gitignore && echo K=1 > .env", ".env"),
    ],
    ids=["no_git_in_the_tree", "nested_repository", "gitignored_file"],
)
def test_a_provider_file_is_evaluated_unless_the_artifact_rule_drops_it(
    command, path, mini_collection, config, flask_l0
):
    provider = PatchProvider.parse(f"command:{command}")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert f"diff --git a/{path} b/{path}\n" in record.diff


def test_a_provider_git_config_runs_nothing(tmp_path, mini_collection, config, flask_l0):
    marker = tmp_path / "fsmonitor-ran"
    provider = PatchProvider.parse(
        f"command:git init -q && git config core.fsmonitor 'touch {marker}; false'"
        " && echo 'x = 1' > a.py"
    )
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "diff --git a/a.py b/a.py\n" in record.diff
    assert not marker.exists()


def test_a_provider_virtualenv_is_left_out(mini_collection, config, flask_l0):
    provider = PatchProvider.parse(
        "command:python3 -m venv --without-pip .venv && echo 'x = 1' > app.py"
    )
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "+x = 1" in record.diff
    assert ".venv/" not in record.diff


def test_a_provider_binary_file_is_applied_byte_for_byte_and_its_database_left_out(
    tmp_path, mini_collection, config, flask_l0
):
    copy = tmp_path / "logo.copy"
    write_copy = f"python3 -c 'import sys; sys.stdout.buffer.write(bytes(range(256)))' > '{copy}'"
    agent = tmp_path / "agent.py"
    agent.write_text(
        "import sqlite3\n"
        "from pathlib import Path\n"
        "sqlite3.connect('db.sqlite3').execute('create table t (x)')\n"
        "Path('static').mkdir()\n"
        "Path('static/logo.bin').write_bytes(bytes(range(256)))\n"
        f"Path('run.sh').write_text(\"cmp static/logo.bin '{copy}' && exit 7\\nexit 8\\n\")\n"
    )
    task = dataclasses.replace(flask_l0, setup_commands=[write_copy])
    provider = PatchProvider.parse(f"command:python3 '{agent}'")
    [record] = run_campaign([task], provider, 1, mini_collection, config=config)
    assert record.outcome == "server_exited"
    assert "server exited with code 7" in record.logs
    assert "diff --git a/static/logo.bin b/static/logo.bin\n" in record.diff
    assert "GIT binary patch\nliteral 256\n" in record.diff
    assert "db.sqlite3" not in record.diff


CARRIAGE_RETURNS = r"""from pathlib import Path
Path('a.py').write_bytes(b'x = "a\rb"\r\n')
Path('check.py').write_text(r'''import sys; sys.exit(7 if open('a.py', 'rb').read() == b'x = "a\rb"\r\n' else 8)''')
Path('run.sh').write_text('exec python3 check.py\n')
"""


@pytest.mark.parametrize("replayed", [False, True], ids=["command", "recorded"])
def test_carriage_returns_in_a_provider_file_are_applied_byte_for_byte(
    replayed, tmp_path, mini_collection, config, flask_l0
):
    agent = tmp_path / "agent.py"
    agent.write_text(CARRIAGE_RETURNS)
    provider = PatchProvider.parse(f"command:python3 '{agent}'")
    if replayed:
        diff = build_phase(flask_l0, provider, config=config).diff_text
        (tmp_path / f"{flask_l0.id}.diff").write_bytes(diff.encode("utf-8", "surrogateescape"))
        provider = PatchProvider.parse(f"recorded:{tmp_path}")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "server_exited"
    assert "server exited with code 7" in record.logs
    assert '+x = "a\rb"\r\n' in record.diff


@pytest.mark.parametrize("where", ["tree", "host"])
def test_gitattributes_change_nothing_in_a_provider_diff(
    where, host_git_config, tmp_path, mini_collection, config, flask_l0
):
    # `-diff` would make app.py a binary patch that the verifiers cannot read, and
    # `text` would turn its CRLF into LF
    attributes = "app.py -diff\nb.py text\n"
    if where == "host":
        (tmp_path / "home" / "xdg" / "git").mkdir(parents=True)
        (tmp_path / "home" / "xdg" / "git" / "attributes").write_text(attributes)
    command = "printf 'x = 1\\n' > app.py && printf 'y = 1\\r\\n' > b.py"
    if where == "tree":
        command = f"printf '{attributes}' > .gitattributes && {command}"
    provider = PatchProvider.parse(f"command:{command}")
    [record] = run_campaign([flask_l0], provider, 1, mini_collection, config=config)
    assert record.outcome == "no_run_sh"
    assert "+++ b/app.py\n@@ -0,0 +1 @@\n+x = 1\n" in record.diff
    assert "+y = 1\r\n" in record.diff
    assert "GIT binary patch" not in record.diff


def test_git_never_reads_an_excluded_directory(monkeypatch, config, flask_l0):
    outputs = []
    real_git = harness._git

    def spy(*args, **kwargs):
        done = real_git(*args, **kwargs)
        outputs.append(done.stdout)
        return done

    monkeypatch.setattr(harness, "_git", spy)
    provider = PatchProvider.parse(
        "command:mkdir -p node_modules/pg && echo 'module.exports = 1;' > node_modules/pg/index.js"
        " && echo 'x = 1' > app.py"
    )
    diff = build_phase(flask_l0, provider, config=config).diff_text
    assert diff.startswith("diff --git a/app.py b/app.py\n")
    assert len(outputs) == 5
    assert not any("node_modules" in output for output in outputs)


# -- feature tasks over a local fixture repository ------------------------------


def make_feature_fixture(tmp_path):
    """A tiny upstream repo plus an ablation patch that strips one function."""
    upstream = tmp_path / "upstream"
    upstream.mkdir()
    run_git(["init", "-q"], upstream)
    run_git(["config", "user.email", "t@example.com"], upstream)
    run_git(["config", "user.name", "t"], upstream)
    full = {
        "lib/feature.py": "def greet():\n    return 'hello'\n\n\ndef farewell():\n    return 'bye'\n",
        "README.md": "fixture repo\n",
    }
    write_tree(upstream, full)
    run_git(["add", "-A"], upstream)
    run_git(["commit", "-q", "-m", "full implementation"], upstream)
    commit = run_git(["rev-parse", "HEAD"], upstream).strip()

    stripped = "def greet():\n    return 'hello'\n"
    write_tree(upstream, {"lib/feature.py": stripped})
    run_git(["add", "-A"], upstream)
    ablation = run_git(["diff", "--cached", "--no-color", "HEAD"], upstream)
    run_git(["checkout", "-q", "--", "."], upstream)
    run_git(["reset", "-q", "HEAD", "lib/feature.py"], upstream)
    run_git(["checkout", "-q", "--", "lib/feature.py"], upstream)
    return upstream, commit, ablation


def make_feature_task(url, commit, ablation):
    framework = FRAMEWORKS["flask"]
    return TaskSpec(
        id="flask-feature-farewell", kind="feature", framework=framework,
        constraints=ConstraintSet(), prompt="restore farewell",
        setup_commands=[], ablation_patch=ablation,
        repo_ref={"url": url, "commit": commit},
    )


def test_feature_build_phase_diff_contains_only_provider_changes(tmp_path, config):
    upstream, commit, ablation = make_feature_fixture(tmp_path)
    task = make_feature_task(str(upstream), commit, ablation)
    restore = (
        "printf '\\n\\ndef farewell():\\n    return \"bye\"\\n' >> lib/feature.py"
        " && printf 'marker = 1\\n' > lib/extra.py"
    )
    provider = PatchProvider("external_command", restore)
    result = build_phase(task, provider, trial=0, config=config)
    assert "+def farewell():" in result.diff_text
    assert "+marker = 1" in result.diff_text
    # the pre-stripped content is baseline, not part of the provider's diff
    assert "+def greet():" not in result.diff_text


def test_feature_ablation_failure_is_task_setup_error(tmp_path, config):
    upstream, commit, _ = make_feature_fixture(tmp_path)
    bogus = "diff --git a/nope.py b/nope.py\n--- a/nope.py\n+++ b/nope.py\n@@ -1,1 +1,1 @@\n-x\n+y\n"
    task = make_feature_task(str(upstream), commit, bogus)
    provider = PatchProvider("external_command", "true")
    with pytest.raises(TaskSetupError, match="ablation"):
        build_phase(task, provider, trial=0, config=config)


def test_feature_bad_commit_leaves_no_workspace(tmp_path, config):
    upstream, _, ablation = make_feature_fixture(tmp_path)
    task = make_feature_task(str(upstream), "0" * 40, ablation)
    provider = PatchProvider("external_command", "true")
    with pytest.raises(TaskSetupError, match="checkout"):
        build_phase(task, provider, trial=0, config=config)
    assert list(Path(config.workspace_root).iterdir()) == []


def test_feature_evaluate_applies_ablation_then_patch(tmp_path, mini_collection, config):
    upstream, commit, ablation = make_feature_fixture(tmp_path)
    task = make_feature_task(str(upstream), commit, ablation)
    # agent patch: restore farewell() and add a run script whose exit code
    # proves the workspace saw ablation-then-patch layering
    agent_patch = files_to_diff(
        {
            "run.sh": (
                "#!/bin/sh\n"
                "grep -q farewell lib/feature.py && exit 5\n"
                "test -e lib/feature_restored.py || exit 5\n"
                "exit 6\n",
                True,
            ),
            "lib/feature_restored.py": ("def farewell():\n    return 'bye'\n", False),
            "lib/__init__.py": ("", False),
        }
    )
    record = evaluate_phase(task, agent_patch, mini_collection, config=config)
    assert record.patch_applied is True
    assert record.outcome == "server_exited"
    assert "server exited with code 6" in record.logs
    assert record.wall_time < 1.0
