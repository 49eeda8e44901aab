import subprocess
import sys

import pytest

from constraintbench import golden
from constraintbench.diffs import parse_patch
from constraintbench.golden import (
    files_to_diff,
    golden_patch,
    layered_files,
    monolithic_files,
    write_recorded_tree,
)

from conftest import run_git


def test_layered_tree_shape():
    files = layered_files()
    assert set(files) == {
        "models/entities.py",
        "repositories/store.py",
        "repositories/database.py",
        "services/logic.py",
        "routes/api.py",
        "server.py",
        "requirements.txt",
        "run.sh",
    }
    assert files["run.sh"][1] is True  # executable
    assert "sqlalchemy" in files["requirements.txt"][0]


def test_layered_rewrites_leave_no_package_relative_imports():
    for path, (content, _) in layered_files().items():
        assert "from ." not in content, path
    store = layered_files()["repositories/store.py"][0]
    assert "from models.entities import" in store
    api = layered_files()["routes/api.py"][0]
    assert "from services.logic import" in api


def test_monolith_has_no_relative_imports_and_compiles():
    app = monolithic_files()["app.py"][0]
    assert "from ." not in app
    compile(app, "app.py", "exec")


def test_layered_modules_compile():
    for path, (content, _) in layered_files().items():
        if path.endswith(".py"):
            compile(content, path, "exec")


def test_golden_patch_parses_and_applies(git_repo, tmp_path):
    for variant in ("layered", "monolithic"):
        diff = golden_patch(variant)
        doc = parse_patch(diff)
        assert doc.files, variant
        patch_file = tmp_path / f"{variant}.diff"
        patch_file.write_text(diff)
        target = tmp_path / variant
        target.mkdir()
        run_git(["init", "-q"], target)
        run_git(["apply", str(patch_file)], target)
        assert (target / "run.sh").exists()


def test_monolith_runs_standalone(tmp_path):
    """app.py must serve without the package installed (fresh cwd, plain python)."""
    diff = golden_patch("monolithic")
    target = tmp_path / "standalone"
    target.mkdir()
    run_git(["init", "-q"], target)
    patch_file = tmp_path / "m.diff"
    patch_file.write_text(diff)
    run_git(["apply", str(patch_file)], target)
    probe = (
        "import app, json\n"
        "store = app.Store()\n"
        "status, body = app.dispatch(store, 'GET', '/api/health-check', '', {}, '')\n"
        "print(status, json.dumps(body))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=target, capture_output=True, text=True, timeout=30
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == '200 {"status": "ok"}'


def test_files_to_diff_counts_lines():
    diff = files_to_diff({"a.txt": ("x\ny\n", False)})
    assert "@@ -0,0 +1,2 @@" in diff
    assert "+x\n+y\n" in diff


def test_write_recorded_tree(tmp_path):
    write_recorded_tree(tmp_path / "rec", {"task-a": "layered", "task-b": "monolithic"})
    assert (tmp_path / "rec" / "task-a.diff").exists()
    assert "app.py" in (tmp_path / "rec" / "task-b.diff").read_text()


def test_write_recorded_tree_renders_each_variant_once(tmp_path, monkeypatch):
    calls = []

    def counting(variant):
        calls.append(variant)
        return golden_patch(variant)

    monkeypatch.setattr(golden, "golden_patch", counting)
    assignments = {f"task-{i}": ("layered", "monolithic")[i % 3 == 0] for i in range(9)}
    write_recorded_tree(tmp_path, assignments)
    assert sorted(calls) == ["layered", "monolithic"]
    for task_id, variant in assignments.items():
        stored = (tmp_path / f"{task_id}.diff").read_bytes()
        assert stored == golden_patch(variant).encode("utf-8")


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        golden_patch("artisanal")
