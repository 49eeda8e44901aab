import json
import subprocess
import sys

import pytest

import constraintbench
from constraintbench.cli import main
from constraintbench.golden import files_to_diff, golden_patch, layered_files, write_recorded_tree
from constraintbench.refserver import ServerHandle

from conftest import ARTIFACT_FILES


def test_usage_error_exit_code_1(capsys):
    assert main(["compose"]) == 1  # --out is required
    assert main(["definitely-not-a-command"]) == 1


def test_compose_writes_80_tasks(tmp_path, capsys):
    out = tmp_path / "tasks"
    assert main(["compose", "--out", str(out)]) == 0
    files = sorted(out.glob("*.json"))
    assert len(files) == 80
    payload = json.loads((out / "flask-openapi.json").read_text())
    assert payload["level"] == "L0"
    stdout = capsys.readouterr().out
    assert "80 tasks" in stdout
    assert "L0: 8, L1: 24, L2: 32, L3: 16" in stdout


def test_compose_framework_and_level_filters(tmp_path, capsys):
    out = tmp_path / "tasks"
    assert main(["compose", "--frameworks", "flask,express", "--levels", "L3",
                 "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.json"))
    assert len(files) == 4
    assert all("clean_architecture" in name for name in files)


@pytest.mark.parametrize("levels", ["foo", "L0,L7"])
def test_compose_rejects_a_level_outside_l0_to_l3(tmp_path, capsys, levels):
    assert main(["compose", "--levels", levels, "--out", str(tmp_path / "t")]) == 1
    assert "argument --levels" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_evaluate_rejects_zero_trials(tmp_path, capsys):
    tasks = tmp_path / "tasks"
    assert main(["compose", "--frameworks", "flask", "--levels", "L0", "--out", str(tasks)]) == 0
    assert main(["evaluate", "--tasks", str(tasks), "--provider", f"recorded:{tmp_path}",
                 "--out", str(tmp_path / "runs"), "--trials", "0"]) == 1
    assert "argument --trials" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_reference_server_rejects_an_unknown_feature_group(capsys):
    assert main(["reference-server", "--port", "0", "--disable", "comments,bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: constraintbench reference-server")
    assert "unknown feature group(s): bogus" in err


def test_compose_unknown_framework_exit_2(tmp_path, capsys):
    assert main(["compose", "--frameworks", "rails", "--out", str(tmp_path)]) == 2


def test_diff_inspect(tmp_path, capsys):
    patch = tmp_path / "p.diff"
    patch.write_text(golden_patch("layered"))
    assert main(["diff", "inspect", str(patch)]) == 0
    payload = json.loads(capsys.readouterr().out)
    paths = {f["path"] for f in payload["files"]}
    assert "routes/api.py" in paths
    assert "requirements.txt" in paths


def test_verify_subcommand(tmp_path, capsys):
    tasks = tmp_path / "tasks"
    main(["compose", "--frameworks", "flask", "--levels", "L3", "--out", str(tasks)])
    task_file = tasks / "flask-openapi-clean_architecture-sqlite-sqlalchemy.json"
    patch = tmp_path / "golden.diff"
    patch.write_text(golden_patch("layered"))
    report_file = tmp_path / "verdict.json"
    capsys.readouterr()
    assert main(["verify", "--task", str(task_file), "--patch", str(patch),
                 "--report", str(report_file)]) == 0
    stdout = capsys.readouterr().out
    assert "architecture: compliant" in stdout
    assert "overall: compliant" in stdout
    payload = json.loads(report_file.read_text())
    assert payload["overall"] is True
    assert [r["axis"] for r in payload["reports"]] == ["architecture", "database", "orm"]


def test_artifact_sections_are_excluded_by_path(tmp_path, capsys):
    patch = tmp_path / "artifacts.diff"
    patch.write_text(files_to_diff({**layered_files(), **ARTIFACT_FILES}))
    assert main(["diff", "inspect", str(patch)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {f["path"] for f in payload["files"] if f["is_excluded"]} == set(ARTIFACT_FILES)

    tasks = tmp_path / "tasks"
    main(["compose", "--frameworks", "flask", "--levels", "L3", "--out", str(tasks)])
    task_file = tasks / "flask-openapi-clean_architecture-sqlite-sqlalchemy.json"
    capsys.readouterr()
    assert main(["verify", "--task", str(task_file), "--patch", str(patch)]) == 0
    assert "overall: compliant" in capsys.readouterr().out


def test_diff_inspect_and_verify_read_a_patch_that_is_not_utf8(tmp_path, capsys):
    tasks = tmp_path / "tasks"
    main(["compose", "--frameworks", "flask", "--levels", "L3", "--out", str(tasks)])
    task_file = tasks / "flask-openapi-clean_architecture-sqlite-sqlalchemy.json"
    patch = tmp_path / "latin1.diff"
    patch.write_bytes(files_to_diff({"a.py": ('NAME = "caf\udce9"\n', False)})
                      .encode("utf-8", "surrogateescape"))
    assert b'+NAME = "caf\xe9"' in patch.read_bytes()
    capsys.readouterr()
    assert main(["diff", "inspect", str(patch)]) == 0
    [changed] = json.loads(capsys.readouterr().out)["files"]
    assert changed["added_lines"] == [[1, 'NAME = "caf\udce9"']]
    assert main(["verify", "--task", str(task_file), "--patch", str(patch)]) == 0
    assert "overall: NON-COMPLIANT" in capsys.readouterr().out


def test_verify_monolithic_flags_architecture(tmp_path, capsys):
    tasks = tmp_path / "tasks"
    main(["compose", "--frameworks", "flask", "--levels", "L3", "--out", str(tasks)])
    task_file = tasks / "flask-openapi-clean_architecture-sqlite-sqlalchemy.json"
    patch = tmp_path / "mono.diff"
    patch.write_text(golden_patch("monolithic"))
    capsys.readouterr()
    assert main(["verify", "--task", str(task_file), "--patch", str(patch)]) == 0
    stdout = capsys.readouterr().out
    assert "architecture: NON-COMPLIANT" in stdout
    assert "overall: NON-COMPLIANT" in stdout


def test_run_suite_cli(tmp_path, capsys):
    with ServerHandle(port=0) as server:
        out = tmp_path / "suite"
        assert main(["run-suite", "--base-url", server.base_url, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "291/291 assertions passed" in stdout
    assert (out / "suite_result.json").exists()
    csv_text = (out / "suite_result.csv").read_text()
    assert csv_text.splitlines()[0] == "folder,request,index,kind,passed,detail"


def test_golden_subcommand(tmp_path, capsys):
    out = tmp_path / "g.diff"
    assert main(["golden", "--variant", "monolithic", "--out", str(out)]) == 0
    assert "app.py" in out.read_text()


def _write_config(tmp_path):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "# harness settings\n"
        "port_pool = 8111-8113\n"
        "workers = 1\n"
        "health_timeout = 4.35\n"
    )
    return config


def test_evaluate_metrics_report_pipeline(tmp_path, capsys):
    tasks = tmp_path / "tasks"
    main(["compose", "--frameworks", "flask", "--levels", "L0", "--out", str(tasks)])

    patches = tmp_path / "patches"
    write_recorded_tree(patches, {"flask-openapi": "layered"})
    # neutralize pip-install setup for the offline test
    task_file = tasks / "flask-openapi.json"
    payload = json.loads(task_file.read_text())
    payload["setup_commands"] = []
    task_file.write_text(json.dumps(payload))

    results = tmp_path / "results"
    capsys.readouterr()
    code = main([
        "evaluate", "--tasks", str(tasks), "--provider", f"recorded:{patches}",
        "--trials", "2", "--out", str(results), "--config", str(_write_config(tmp_path)),
        "--agent-label", "replay", "--model-label", "golden",
    ])
    assert code == 0
    assert "2 runs recorded" in capsys.readouterr().out
    assert (results / "campaign.json").exists()
    record = json.loads((results / "flask-openapi_t0.json").read_text())
    assert record["full_pass"] is True
    assert record["suite"]["assertions_passed"] == 291

    tables = tmp_path / "tables"
    assert main(["metrics", "--runs", str(results), "--report", str(tables)]) == 0
    a_pct = json.loads((tables / "a_pct_by_level.json").read_text())
    assert a_pct["rows"] == [["replay", "golden", "100.0", "-", "-", "-"]]

    report_dir = tmp_path / "report"
    assert main(["report", "--results", str(results), "--out", str(report_dir)]) == 0
    assert (report_dir / "a_pct_by_framework.csv").exists()


def test_report_missing_results_exit_2(tmp_path, capsys):
    assert main(["report", "--results", str(tmp_path / "void"),
                 "--out", str(tmp_path / "t")]) == 2


def test_report_taxonomy_without_labels_exit_2(tmp_path, capsys):
    out = tmp_path / "t"
    assert main(["report", "--results", str(tmp_path / "void"), "--out", str(out),
                 "--tables", "taxonomy"]) == 2
    assert "--labels" in capsys.readouterr().err
    assert not out.exists()


def test_taxonomy_cli(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    lines = [
        {"run_id": f"r{i}", "coarse": "logic_error", "sub": "incorrect_query_logic"}
        for i in range(3)
    ]
    lines.append({"run_id": "r3", "coarse": "server_startup_failure"})
    labels.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    assert main(["taxonomy", "aggregate", "--labels", str(labels)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed_runs"] == 4
    assert summary["coarse"]["logic_error"]["count"] == 3

    human = tmp_path / "human.jsonl"
    human_lines = list(lines[:3])
    human_lines[0] = {"run_id": "r0", "coarse": "logic_error", "sub": "auth_misconfiguration",
                      "source": "human"}
    human_lines.append({"run_id": "r3", "coarse": "server_startup_failure", "source": "human"})
    human.write_text("\n".join(json.dumps(line) for line in human_lines) + "\n")
    assert main(["taxonomy", "validate", "--judge", str(labels), "--human", str(human)]) == 0
    stdout = capsys.readouterr().out
    assert "accuracy: 75.0%" in stdout
    assert "kappa:" in stdout


def test_diff_inspect_malformed_patch_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.diff"
    bad.write_text("--- a/x\n+++ b/x\n@@ mangled @@\n+line\n")
    assert main(["diff", "inspect", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_suite_missing_collection_exit_2(tmp_path, capsys):
    assert main(["run-suite", "--collection", str(tmp_path / "nope.json"),
                 "--base-url", "http://127.0.0.1:1/api"]) == 2


def test_console_script_installed():
    result = subprocess.run(
        [sys.executable, "-m", "constraintbench.cli", "golden", "--variant", "layered"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "diff --git a/models/entities.py" in result.stdout


def test_every_exported_name_resolves():
    missing = [name for name in constraintbench.__all__ if not hasattr(constraintbench, name)]
    assert missing == []


def test_run_suite_rejects_a_url_that_is_not_http_exit_2(capsys):
    assert main(["run-suite", "--base-url", "https://127.0.0.1:1/api"]) == 2
    assert "'https://127.0.0.1:1/api'" in capsys.readouterr().err


HTTP_AND_TLS_MODULES = {"ssl", "http.client", "http.server", "urllib.request", "email"}


@pytest.mark.parametrize("statement", [
    "import constraintbench.golden; constraintbench.golden.golden_patch('layered')",
    "import constraintbench.cli",
])
def test_the_package_and_the_cli_load_no_http_or_tls_stack(statement):
    # each in a fresh interpreter: this test process has loaded them all
    check = f"import sys; print(sorted({sorted(HTTP_AND_TLS_MODULES)} & sys.modules.keys()))"
    result = subprocess.run([sys.executable, "-c", f"{statement}\n{check}"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
