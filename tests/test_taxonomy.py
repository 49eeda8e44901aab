import pytest

from constraintbench.errors import MetricError, NotAFailureError
from constraintbench.harness import OUTCOMES, RunRecord
from constraintbench.taxonomy import (
    COARSE_CATEGORIES,
    LOGIC_SUBCATEGORIES,
    EvidenceBundle,
    FailureLabel,
    aggregate_taxonomy,
    assemble_evidence,
    load_labels,
    rule_based_judge,
    save_labels,
    validate_judge,
)


def label(run_id, coarse="logic_error", sub="business_logic_defect", source="judge"):
    if coarse != "logic_error":
        sub = None
    return FailureLabel(run_id=run_id, coarse=coarse, sub=sub, source=source)


def test_category_sets_are_fixed():
    assert len(COARSE_CATEGORIES) == 6
    assert len(LOGIC_SUBCATEGORIES) == 6


def test_sub_required_exactly_for_logic_errors():
    with pytest.raises(ValueError):
        FailureLabel(run_id="r", coarse="logic_error")  # missing sub
    with pytest.raises(ValueError):
        FailureLabel(run_id="r", coarse="stuck_in_loop", sub="business_logic_defect")
    FailureLabel(run_id="r", coarse="logic_error", sub="incorrect_query_logic")


def failed_run_dict(**overrides):
    run = {
        "task_id": "flask-openapi",
        "trial": 0,
        "full_pass": False,
        "outcome": "ok",
        "structurally_compliant": True,
        "logs": "\n".join(f"log line {i}" for i in range(80)),
        "suite": {
            "assertions_passed": 100,
            "assertions_total": 291,
            "failed": [
                {"folder": "Tags", "request": "All Tags", "index": 0, "kind": "status_code",
                 "detail": "expected status 200, got 500"},
            ],
            "folders": {"Auth": [1, 1], "Tags": [0, 1]},
        },
        "verifier_reports": [
            {"axis": "database", "compliant": False,
             "evidence": [], "violations": [{"description": "x", "path": "p", "line": 1}]},
        ],
    }
    run.update(overrides)
    return run


def test_assemble_evidence_truncates_turns():
    trajectory = [f"turn {i}" for i in range(35)]
    bundle = assemble_evidence(failed_run_dict(), trajectory, n_turns=20)
    assert len(bundle.last_turns) == 20
    assert bundle.last_turns[0] == "turn 15"
    assert bundle.last_turns[-1] == "turn 34"


def test_assemble_evidence_short_trajectory_kept_whole():
    bundle = assemble_evidence(failed_run_dict(), ["t1", "t2", "t3", "t4", "t5"], n_turns=20)
    assert bundle.last_turns == ["t1", "t2", "t3", "t4", "t5"]


def test_assemble_evidence_rejects_passing_run():
    with pytest.raises(NotAFailureError):
        assemble_evidence(failed_run_dict(full_pass=True), [])


def test_assemble_evidence_digests():
    bundle = assemble_evidence(failed_run_dict(), [])
    assert bundle.test_summary == {
        "Auth": {"passed": 1, "total": 1},
        "Tags": {"passed": 0, "total": 1},
    }
    assert "database: non-compliant (1 violation(s))" in bundle.verifier_summary
    assert bundle.server_log_tail.endswith("log line 79")
    assert len(bundle.server_log_tail.splitlines()) == 50


def test_assemble_evidence_is_deterministic():
    one = assemble_evidence(failed_run_dict(), ["a", "b"])
    two = assemble_evidence(failed_run_dict(), ["a", "b"])
    assert one == two


def test_rule_based_judge_rules():
    startup = assemble_evidence(failed_run_dict(outcome="health_timeout"), [])
    assert rule_based_judge(startup).coarse == "server_startup_failure"

    unapplied = assemble_evidence(failed_run_dict(outcome="apply_failed"), [])
    assert rule_based_judge(unapplied).coarse == "incomplete_implementation"

    passing_but_noncompliant = failed_run_dict(structurally_compliant=False)
    passing_but_noncompliant["suite"]["assertions_passed"] = 291
    bundle = assemble_evidence(passing_but_noncompliant, [])
    assert rule_based_judge(bundle).coarse == "constraint_violation"

    logic = assemble_evidence(failed_run_dict(), [])
    verdict = rule_based_judge(logic)
    assert verdict.coarse == "logic_error"
    assert verdict.sub in LOGIC_SUBCATEGORIES


def flag_judge(run: dict) -> str:
    """The coarse label the judge gave when it read the stage flags."""
    passed, total = run["suite"]["assertions_passed"], run["suite"]["assertions_total"]
    if not run["patch_applied"]:
        return "incomplete_implementation"
    if not run["health_ok"]:
        return "server_startup_failure"
    if total and passed == total and not run["structurally_compliant"]:
        return "constraint_violation"
    if passed == 0:
        return "schema_format_error"
    return "logic_error"


@pytest.mark.parametrize("outcome", sorted(OUTCOMES))
@pytest.mark.parametrize("passed,compliant", [(0, True), (100, True), (291, False)])
def test_judge_on_outcome_gives_the_label_of_its_flags(outcome, passed, compliant):
    record = RunRecord(task_id="t", trial=0, diff="", suite=None, verifier_reports=[],
                       structurally_compliant=compliant, outcome=outcome)
    run = failed_run_dict(outcome=outcome, structurally_compliant=compliant)
    run["suite"]["assertions_passed"] = passed
    for flag in ("patch_applied", "health_ok"):
        run[flag] = getattr(record, flag)
    assert rule_based_judge(assemble_evidence(run)).coarse == flag_judge(run)


def test_aggregate_reproduces_published_share():
    # 194 failed runs, 137 logic errors: the coarse share rounds to 70.6%
    labels = [label(f"r{i}") for i in range(137)]
    labels += [label(f"s{i}", coarse="server_startup_failure") for i in range(57)]
    summary = aggregate_taxonomy(labels)
    assert summary["failed_runs"] == 194
    assert summary["logic_errors"] == 137
    assert round(summary["coarse"]["logic_error"]["pct"], 1) == 70.6


def test_aggregate_empty():
    summary = aggregate_taxonomy([])
    assert summary == {"failed_runs": 0, "logic_errors": 0, "coarse": {}, "sub": {}}


def test_aggregate_sub_percentages_over_logic_only():
    labels = [
        label("a", sub="incorrect_query_logic"),
        label("b", sub="incorrect_query_logic"),
        label("c", sub="auth_misconfiguration"),
        label("d", coarse="stuck_in_loop"),
        label("e", coarse="schema_format_error"),
    ]
    summary = aggregate_taxonomy(labels)
    assert summary["coarse"]["logic_error"]["pct"] == pytest.approx(60.0)
    assert summary["sub"]["incorrect_query_logic"]["pct"] == pytest.approx(100 * 2 / 3)
    coarse_total = sum(v["pct"] for v in summary["coarse"].values())
    sub_total = sum(v["pct"] for v in summary["sub"].values())
    assert coarse_total == pytest.approx(100.0, abs=0.1)
    assert sub_total == pytest.approx(100.0, abs=0.1)


def test_validate_judge_identical():
    judge = [label(f"r{i}", sub="incorrect_query_logic", source="judge") for i in range(10)]
    human = [label(f"r{i}", sub="incorrect_query_logic", source="human") for i in range(5)]
    human += [label(f"r{i}", sub="incorrect_query_logic", source="human") for i in range(5, 10)]
    # use two classes so kappa is defined
    judge[0] = label("r0", sub="auth_misconfiguration")
    human[0] = label("r0", sub="auth_misconfiguration", source="human")
    accuracy, kappa, _ = validate_judge(judge, human)
    assert accuracy == 100.0
    assert kappa == pytest.approx(1.0)


def test_validate_judge_49_of_50():
    subs = (
        ["auth_misconfiguration"] * 11 + ["incorrect_query_logic"] * 12
        + ["state_propagation_failure"] * 5 + ["database_runtime_error"] * 11
        + ["framework_idiosyncrasy"] * 5 + ["business_logic_defect"] * 6
    )
    human = [label(f"r{i}", sub=sub, source="human") for i, sub in enumerate(subs)]
    judged = list(subs)
    judged[subs.index("framework_idiosyncrasy")] = "incorrect_query_logic"
    judge = [label(f"r{i}", sub=sub) for i, sub in enumerate(judged)]
    accuracy, kappa, report = validate_judge(judge, human)
    assert accuracy == pytest.approx(98.0)
    assert round(kappa, 3) == 0.975
    assert round(report["macro"]["f1"], 1) == 97.5


def test_validate_judge_disjoint_ids():
    judge = [label("a")]
    human = [label("b", source="human")]
    with pytest.raises(MetricError, match="only in judge"):
        validate_judge(judge, human)


def test_labels_jsonl_roundtrip(tmp_path):
    labels = [
        label("r1", sub="incorrect_query_logic"),
        label("r2", coarse="server_startup_failure"),
        label("r3", sub="auth_misconfiguration", source="human"),
    ]
    path = tmp_path / "labels.jsonl"
    save_labels(labels, path)
    again = load_labels(path)
    assert again == labels


def test_evidence_bundle_default_shape():
    bundle = EvidenceBundle(run_digest={"run_id": "x"})
    assert bundle.last_turns == []
    assert bundle.test_summary == {}
