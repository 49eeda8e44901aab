import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_records.py"


@pytest.fixture(scope="module")
def same_records():
    spec = importlib.util.spec_from_file_location("same_records", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_output(out: Path, records: dict[str, dict], tables: dict[str, str]):
    """A campaign output as the tool lays it out: results/ and tables/."""
    results = out / "results" / "golden"
    results.mkdir(parents=True)
    (results / "campaign.json").write_text(json.dumps({"runs": sorted(records)}))
    for name, record in records.items():
        (results / name).write_text(json.dumps(record, sort_keys=True))
    (out / "tables" / "golden").mkdir(parents=True)
    for name, text in tables.items():
        (out / "tables" / "golden" / name).write_text(text)


def record(outcome: str, wall_time: float, **flags) -> dict:
    return {"task_id": "t", "outcome": outcome, "wall_time": wall_time, **flags}


def test_same_outputs_apart_from_wall_time(tmp_path, same_records):
    records = {"a_t0.json": record("ok", 0.1), "b_t0.json": record("env_skipped", 0.2)}
    write_output(tmp_path / "this", records, {"x.csv": "a\n1\n"})
    records = {"a_t0.json": record("ok", 0.3), "b_t0.json": record("env_skipped", 0.4)}
    write_output(tmp_path / "other", records, {"x.csv": "a\n1\n"})
    assert same_records.differences(tmp_path / "this", tmp_path / "other") == ([], 2, 2)


def test_every_difference_is_named(tmp_path, same_records):
    write_output(
        tmp_path / "this",
        {
            "a_t0.json": record("ok", 0.1),
            "b_t0.json": record("env_skipped", 0.2),
            "c_t0.json": record("apply_failed", 0.3),
        },
        {"x.csv": "a\n1\n", "y.csv": "b\n2\n", "z.csv": "c\n3\n"},
    )
    write_output(
        tmp_path / "other",
        {
            "a_t0.json": record("ok", 0.1, health_ok=True),
            "b_t0.json": record("server_exited", 0.2, health_ok=False),
            "c_t0.json": record("apply_failed", 0.9),
        },
        {"x.csv": "a\n1\n", "y.csv": "b\n20\n", "z.csv": "c\n3"},
    )
    lines, records, others = same_records.differences(tmp_path / "this", tmp_path / "other")
    assert (records, others) == (3, 4)
    assert lines == [
        "key 'health_ok' differs in 2 of 3 records",
        "key 'outcome' differs in 1 of 3 records",
        "file tables/golden/y.csv differs",
        "file tables/golden/z.csv differs",
        "first difference: results/golden/a_t0.json: 'health_ok' differs\n"
        "  here:  null\n  there: true",
    ]


def test_a_table_difference_is_shown_by_line(tmp_path, same_records):
    write_output(tmp_path / "this", {}, {"x.csv": "a\n1\n"})
    write_output(tmp_path / "other", {}, {"x.csv": "a\n2\n"})
    lines, _, _ = same_records.differences(tmp_path / "this", tmp_path / "other")
    assert lines == [
        "file tables/golden/x.csv differs",
        "first difference: tables/golden/x.csv differs at line 2\n"
        "  here:  b'1\\n'\n  there: b'2\\n'",
    ]


def test_missing_files_are_named(tmp_path, same_records):
    write_output(tmp_path / "this", {}, {"x.csv": "a\n", "y.csv": "b\n"})
    write_output(tmp_path / "other", {}, {"x.csv": "a\n"})
    lines, _, _ = same_records.differences(tmp_path / "this", tmp_path / "other")
    assert lines == ["files only here: ['tables/golden/y.csv']; only there: []"]


def test_the_child_writes_no_bytecode(tmp_path, monkeypatch, same_records):
    # -I makes the child ignore PYTHONDONTWRITEBYTECODE, so only -B keeps
    # __pycache__ out of the checkouts, whose bench then reads no .pyc files
    started = []

    def run(argv, **kwargs):
        started.append(argv)
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(same_records.subprocess, "run", run)
    same_records.run_campaign(tmp_path / "checkout", tmp_path / "out")
    [argv] = started
    assert argv[1:3] == ["-I", "-B"]
