import dataclasses
import json
import tracemalloc

import pytest

from constraintbench.composer import FRAMEWORKS, enumerate_variants
from constraintbench.errors import MetricError, TaskSetupError
from constraintbench.harness import OUTCOMES, RunRecord, load_campaign, write_campaign
from constraintbench.report import (
    METRICS_TABLES, TABLE_NAMES, build_report, score_campaign, write_tables,
)
from constraintbench.suite import AssertionOutcome, SuiteResult
from constraintbench.taxonomy import FailureLabel, save_labels

from test_harness import STAGE_FLAGS, STORED_FLAGS
from test_metrics import synthetic_campaign


def _suite(fraction: float, total: int = 20) -> SuiteResult:
    passed = round(fraction * total)
    return SuiteResult(
        name="synthetic", requests_executed=total, assertions_total=total,
        assertions_passed=passed, folders={"F": [passed, total]},
        failures=[AssertionOutcome("F", "r", index, "status_code", "ok")
                  for index in range(passed, total)],
    )


def synthetic_records():
    tasks, scores = synthetic_campaign()
    by_id = {task.id: task for task in tasks}
    records = []
    for score in scores:
        task = by_id[score.task_id]
        records.append(
            RunRecord(
                task_id=score.task_id,
                trial=score.trial,
                diff="",
                suite=_suite(score.raw_fraction),
                verifier_reports=[],
                structurally_compliant=score.compliant,
                labels={"agent": "replay", "model": "golden"},
                task_summary={
                    "id": task.id,
                    "kind": "generation",
                    "framework": task.framework.name,
                    "runtime": task.framework.runtime,
                    "level": f"L{task.level}",
                    "constraints": {
                        "architecture": task.constraints.architecture,
                        "database": task.constraints.database,
                        "orm": task.constraints.orm,
                    },
                },
            )
        )
    return records


@pytest.fixture
def results_dir(tmp_path):
    records = synthetic_records()
    out = tmp_path / "results"
    write_campaign(records, out, trials=3, labels={"agent": "replay", "model": "golden"})
    return out


def test_score_campaign_shape(results_dir):
    campaign = score_campaign(load_campaign(results_dir))
    assert len(campaign.scores) == 24
    assert len(campaign.tasks) == 8
    assert campaign.configs == [("replay", "golden")]


def test_a_pct_by_level_values(results_dir):
    tables = build_report(results_dir, tables=["a_pct_by_level"])
    table = tables["a_pct_by_level"]
    assert table.columns == ["agent", "model", "L0", "L1", "L2", "L3"]
    assert table.rows == [["replay", "golden", "95.0", "63.3", "30.0", "-"]]


def test_pass_at_1_table(results_dir):
    table = build_report(results_dir, tables=["pass_at_1_by_level"])["pass_at_1_by_level"]
    # L0: flask task 1 full pass of 3 trials, express all 3 -> (1/3 + 1)/2 = 66.7
    assert table.rows == [["replay", "golden", "66.7", "0.0", "0.0", "-"]]


def test_raw_vs_enforced_table(results_dir):
    table = build_report(results_dir, tables=["raw_vs_enforced"])["raw_vs_enforced"]
    by_level = {row[2]: row for row in table.rows}
    assert by_level["L1"][3] == "63.3"   # enforced
    assert by_level["L1"][4] == "70.0"   # raw
    assert by_level["L1"][5] == "6.7"    # delta
    assert by_level["L0"][5] == "0.0"


def test_marginal_effects_table(results_dir):
    table = build_report(results_dir, tables=["marginal_effects"])["marginal_effects"]
    rows = {row[0]: row for row in table.rows}
    assert rows["Clean architecture"][1] == "-34.2"
    assert rows["Clean architecture"][3] == "4"
    assert rows["SQLite"][3] == "4"
    assert rows["PostgreSQL"][1] == "no matched pairs"
    assert rows["SQLAlchemy"][1] == "no matched pairs"


def test_framework_table_sorted_by_average(results_dir):
    table = build_report(results_dir, tables=["a_pct_by_framework"])["a_pct_by_framework"]
    assert [row[0] for row in table.rows] == ["express", "flask"]
    # express tasks: (1.0 + 0.7 + 0.7 + 0.2)/4 = 65.0
    assert table.rows[0][1] == "65.0"


def test_taxonomy_table(tmp_path, results_dir):
    labels = [
        FailureLabel("r1", "logic_error", sub="incorrect_query_logic"),
        FailureLabel("r2", "logic_error", sub="auth_misconfiguration"),
        FailureLabel("r3", "server_startup_failure"),
    ]
    labels_path = tmp_path / "labels.jsonl"
    save_labels(labels, labels_path)
    table = build_report(results_dir, tables=["taxonomy"], labels_path=labels_path)["taxonomy"]
    assert ["coarse", "logic_error", "2", "66.7"] in table.rows


def test_reports_byte_identical_across_runs(results_dir, tmp_path):
    first = build_report(results_dir)
    second = build_report(results_dir)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    files_a = write_tables(first, out_a)
    files_b = write_tables(second, out_b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_unknown_table_rejected(results_dir):
    with pytest.raises(MetricError, match="unknown table"):
        build_report(results_dir, tables=["nope"])


def test_missing_results_dir_is_error(tmp_path):
    with pytest.raises(TaskSetupError):
        build_report(tmp_path / "void")


def test_environment_skipped_runs_not_scored(tmp_path):
    records = synthetic_records()
    records[0].outcome = "env_skipped"
    out = tmp_path / "results"
    write_campaign(records, out, trials=3)
    campaign = score_campaign(load_campaign(out))
    assert len(campaign.scores) == 23
    assert campaign.skipped == 1


def test_records_older_than_outcome_give_the_same_tables(tmp_path, conduit_collection):
    """Records stored with the stage flags and no ``outcome`` score as the
    same runs stored with ``outcome`` alone."""
    tasks = enumerate_variants([FRAMEWORKS["flask"]])
    labels = {"agent": "replay", "model": "golden"}
    records = [
        RunRecord.of(task, 0, "ok", "", conduit_collection, suite=_suite(1.0),
                     verdict=(True, []), labels=labels)
        for task in tasks
    ]
    records += [
        RunRecord.of(tasks[index % len(tasks)], 1, outcome, "", conduit_collection,
                     suite=_suite(0.5) if outcome == "ok" else None, labels=labels)
        for index, outcome in enumerate(sorted(OUTCOMES))
    ]
    current, older = tmp_path / "current", tmp_path / "older"
    write_campaign(records, current, trials=2, labels=labels)
    write_campaign(records, older, trials=2, labels=labels)
    for path in older.glob("*_t*.json"):
        stored = json.loads(path.read_text(encoding="utf-8"))
        stored.update(zip(STAGE_FLAGS, STORED_FLAGS[stored.pop("outcome")]))
        path.write_text(json.dumps(stored, indent=2, sort_keys=True), encoding="utf-8")

    assert all("outcome" not in record for record in load_campaign(older))
    assert score_campaign(load_campaign(older)).skipped == 1
    ours = write_tables(build_report(current), tmp_path / "current_tables")
    theirs = write_tables(build_report(older), tmp_path / "older_tables")
    assert [path.name for path in ours] == [path.name for path in theirs]
    for path, other in zip(ours, theirs):
        assert path.read_bytes() == other.read_bytes(), path.name


def test_report_holds_one_record_at_a_time(tmp_path):
    """200 records with a 100 KB diff each are 20 MB on disk; the report
    keeps only each record's score, task and config."""
    template = synthetic_records()[0]
    records = [
        dataclasses.replace(template, trial=trial, diff=f"{trial}\n" + "+x\n" * 34_000)
        for trial in range(200)
    ]
    out = tmp_path / "results"
    write_campaign(records, out, trials=200)
    tracemalloc.start()
    try:
        tables = build_report(out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables["a_pct_by_level"].rows
    assert peak < 2 * 1024 * 1024, f"report peaked at {peak / 1024 / 1024:.1f} MB"


def test_table_text_is_aligned(results_dir):
    table = build_report(results_dir, tables=["a_pct_by_level"])["a_pct_by_level"]
    lines = table.to_text().splitlines()
    assert len({len(line) for line in lines[:2]}) == 1  # header and rule same width


def test_default_report_is_every_table_but_taxonomy(results_dir, tmp_path):
    labels_path = tmp_path / "labels.jsonl"
    save_labels([FailureLabel("r1", "server_startup_failure")], labels_path)
    assert list(build_report(results_dir)) == [n for n in TABLE_NAMES if n != "taxonomy"]
    assert list(build_report(results_dir, labels_path=labels_path)) == [
        n for n in TABLE_NAMES if n != "taxonomy"
    ]
    assert set(METRICS_TABLES) < set(TABLE_NAMES)
