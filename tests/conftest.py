import json
import subprocess
from importlib import resources
from pathlib import Path

import pytest

from constraintbench.suite import load_collection


# generated artifacts to add to a golden tree: a vendored `pg` module that would
# read as PostgreSQL evidence, a lock file and a database
ARTIFACT_FILES = {
    "node_modules/pg/index.js": ("const pg = require('pg');\n", False),
    "yarn.lock": ('pg@^8:\n  version "8.11.0"\n', False),
    "data/app.db": ("SQLite format 3\n", False),
}


@pytest.fixture(scope="session")
def conduit_collection():
    text = (
        resources.files("constraintbench")
        .joinpath("assets/collections/conduit.json")
        .read_text(encoding="utf-8")
    )
    return load_collection(text)


@pytest.fixture(scope="session")
def goldens_dir():
    return Path(__file__).parent / "goldens"


def run_git(args, cwd):
    result = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    assert result.returncode == 0, f"git {args} failed: {result.stderr}"
    return result.stdout


@pytest.fixture
def git_repo(tmp_path):
    """Initialized empty repo with identity configured."""
    repo = tmp_path / "repo"
    repo.mkdir()
    run_git(["init", "-q"], repo)
    run_git(["config", "user.email", "t@example.com"], repo)
    run_git(["config", "user.name", "t"], repo)
    run_git(["config", "commit.gpgsign", "false"], repo)
    return repo


def write_tree(root: Path, files: dict):
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def record_to_comparable(record_dict: dict) -> str:
    """RunRecord JSON minus the fields allowed to differ between replays."""
    clean = dict(record_dict)
    clean.pop("wall_time", None)
    clean.pop("logs", None)
    return json.dumps(clean, sort_keys=True)
