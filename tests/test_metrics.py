import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from constraintbench.composer import FRAMEWORKS, ConstraintSet, TaskSpec
from constraintbench.errors import MetricError
from constraintbench.metrics import (
    RunScore,
    assert_pct,
    classification_report,
    cohen_kappa,
    correlations,
    marginal_effect,
    matched_pairs,
    pass_at_k,
)


# -- pass@k -------------------------------------------------------------------

def brute_force_pass_at_k(n: int, c: int, k: int) -> float:
    """Independent oracle: enumerate every k-subset of n outcomes."""
    outcomes = [True] * c + [False] * (n - c)
    subsets = list(itertools.combinations(outcomes, k))
    return sum(any(s) for s in subsets) / len(subsets)


def test_pass_at_k_trivial_cases():
    assert pass_at_k(3, 3, 1) == 1.0
    assert pass_at_k(3, 0, 1) == 0.0


def test_pass_at_k_derived_example():
    # n=5, c=2, k=3: only C(3,3)=1 of C(5,3)=10 subsets is all-failure.
    assert pass_at_k(5, 2, 3) == pytest.approx(0.9, abs=1e-15)
    assert brute_force_pass_at_k(5, 2, 3) == pytest.approx(0.9, abs=1e-15)


def test_pass_at_k_equals_enumeration_exhaustively():
    for n in range(1, 7):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                exact = pass_at_k(n, c, k)
                oracle = brute_force_pass_at_k(n, c, k)
                assert abs(exact - oracle) <= 1e-12, (n, c, k)


def test_pass_at_k_monotone_in_c_and_k():
    for n in range(1, 7):
        for k in range(1, n + 1):
            values = [pass_at_k(n, c, k) for c in range(n + 1)]
            assert values == sorted(values)
        for c in range(n + 1):
            values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
            assert values == sorted(values)


def test_pass_at_k_domain_errors():
    with pytest.raises(MetricError):
        pass_at_k(3, 4, 1)
    with pytest.raises(MetricError):
        pass_at_k(3, 1, 4)
    with pytest.raises(MetricError):
        pass_at_k(3, 1, 0)


# -- assert_pct -----------------------------------------------------------------

def score(task_id, trial, fraction, compliant=True, config="default"):
    return RunScore(
        task_id=task_id, trial=trial, raw_fraction=fraction,
        compliant=compliant, full_pass=(fraction == 1.0 and compliant), config=config,
    )


def test_assert_pct_single_run():
    runs = [score("t", 0, 200 / 291)]
    assert round(assert_pct(runs), 2) == 68.73


def test_assert_pct_enforcement_zeroes_noncompliant():
    runs = [score("t", 0, 1.0, compliant=False)]
    assert assert_pct(runs, enforced=True) == 0.0
    assert assert_pct(runs, enforced=False) == 100.0


def test_assert_pct_task_first_averaging():
    # task a mean 0.5 over two trials, task b single trial 1.0:
    # per-task-first gives (0.5 + 1.0)/2 = 75, flat averaging would give 66.67.
    runs = [score("a", 0, 0.0), score("a", 1, 1.0), score("b", 0, 1.0)]
    assert assert_pct(runs) == pytest.approx(75.0, abs=1e-12)


def test_assert_pct_empty_is_error():
    with pytest.raises(MetricError):
        assert_pct([])


def test_enforced_never_exceeds_raw():
    runs = [
        score("a", 0, 0.7, compliant=False),
        score("a", 1, 0.9),
        score("b", 0, 0.4),
    ]
    assert assert_pct(runs, enforced=True) <= assert_pct(runs, enforced=False)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.floats(min_value=0.0, max_value=1.0),
            st.booleans(),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_enforced_bounded_by_raw_property(entries):
    runs = [
        score(task_id, trial, fraction, compliant=compliant)
        for trial, (task_id, fraction, compliant) in enumerate(entries)
    ]
    enforced = assert_pct(runs, enforced=True)
    raw = assert_pct(runs, enforced=False)
    assert enforced <= raw + 1e-12
    if all(r.compliant for r in runs):
        assert enforced == pytest.approx(raw, abs=1e-12)


# -- matched pairs / marginal effects -------------------------------------------

def _task(framework_name, architecture=False, database="none", orm=False):
    framework = FRAMEWORKS[framework_name]
    constraints = ConstraintSet(architecture=architecture, database=database, orm=orm)
    suffix = []
    if architecture:
        suffix.append("clean_architecture")
    if database != "none":
        suffix.append(database)
    if orm:
        suffix.append(framework.orm_name.lower())
    task_id = "-".join([framework_name, "openapi", *suffix])
    return TaskSpec(
        id=task_id, kind="generation", framework=framework,
        constraints=constraints, prompt="",
    )


def synthetic_campaign():
    """8 tasks x 3 trials with hand-computable scores.

    flask arch trial 1 is non-compliant, so its enforced task mean is 1.6/3.
    """
    tasks = [
        _task("flask"),
        _task("flask", architecture=True),
        _task("flask", database="sqlite"),
        _task("flask", architecture=True, database="sqlite"),
        _task("express"),
        _task("express", architecture=True),
        _task("express", database="sqlite"),
        _task("express", architecture=True, database="sqlite"),
    ]
    fractions = {
        "flask-openapi": [1.0, 0.9, 0.8],
        "flask-openapi-clean_architecture": [0.8, 0.8, 0.8],
        "flask-openapi-sqlite": [0.6, 0.6, 0.6],
        "flask-openapi-clean_architecture-sqlite": [0.5, 0.4, 0.3],
        "express-openapi": [1.0, 1.0, 1.0],
        "express-openapi-clean_architecture": [0.7, 0.7, 0.7],
        "express-openapi-sqlite": [0.8, 0.7, 0.6],
        "express-openapi-clean_architecture-sqlite": [0.2, 0.2, 0.2],
    }
    noncompliant = {("flask-openapi-clean_architecture", 1)}
    scores = [
        score(task_id, trial, fraction, compliant=(task_id, trial) not in noncompliant)
        for task_id, values in fractions.items()
        for trial, fraction in enumerate(values)
    ]
    return tasks, scores


def test_synthetic_campaign_a_pct_hand_values():
    _, scores = synthetic_campaign()
    assert len(scores) == 24
    # raw: mean of task means (0.9+0.8+0.6+0.4+1.0+0.7+0.7+0.2)/8 * 100
    assert assert_pct(scores, enforced=False) == pytest.approx(66.25, abs=1e-9)
    # enforced: flask-arch task mean becomes 1.6/3
    expected = (0.9 + 1.6 / 3 + 0.6 + 0.4 + 1.0 + 0.7 + 0.7 + 0.2) / 8 * 100
    assert assert_pct(scores, enforced=True) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(62.91666666666667, abs=1e-9)


def test_matched_pairs_for_arch():
    tasks, _ = synthetic_campaign()
    pairs = matched_pairs(tasks, "arch")
    assert sorted(pairs) == [
        ("express-openapi-clean_architecture", "express-openapi"),
        ("express-openapi-clean_architecture-sqlite", "express-openapi-sqlite"),
        ("flask-openapi-clean_architecture", "flask-openapi"),
        ("flask-openapi-clean_architecture-sqlite", "flask-openapi-sqlite"),
    ]


def test_marginal_effect_arch_hand_computation():
    tasks, scores = synthetic_campaign()
    # deltas (enforced pp): flask 160/3-90, flask 40-60, express 70-100, express 20-70
    mean, stderr, count = marginal_effect(scores, tasks, "arch")
    assert count == 4
    assert mean == pytest.approx(-410 / 12, abs=1e-9)
    assert stderr == pytest.approx(math.sqrt(475.0 / 3) / 2, abs=1e-9)


def test_marginal_effect_sqlite_hand_computation():
    tasks, scores = synthetic_campaign()
    mean, stderr, count = marginal_effect(scores, tasks, "sqlite")
    # deltas: 60-90, 40-160/3, 70-100, 20-70
    assert count == 4
    assert mean == pytest.approx(-370 / 12, abs=1e-9)


def test_marginal_effect_constant_delta_zero_stderr():
    tasks = [_task("flask"), _task("flask", architecture=True)]
    scores = [score("flask-openapi", t, 0.50) for t in range(3)]
    scores += [score("flask-openapi-clean_architecture", t, 0.45) for t in range(3)]
    mean, stderr, count = marginal_effect(scores, tasks, "arch")
    assert (mean, stderr, count) == (pytest.approx(-5.0, abs=1e-12), 0.0, 1)


def test_marginal_effect_two_pairs_example():
    # deltas {-2, -4}: mean -3, stderr = sd/sqrt(2) = sqrt(2)/sqrt(2) = 1
    tasks = [
        _task("flask"), _task("flask", architecture=True),
        _task("express"), _task("express", architecture=True),
    ]
    scores = [
        score("flask-openapi", 0, 0.50),
        score("flask-openapi-clean_architecture", 0, 0.48),
        score("express-openapi", 0, 0.50),
        score("express-openapi-clean_architecture", 0, 0.46),
    ]
    mean, stderr, count = marginal_effect(scores, tasks, "arch")
    assert mean == pytest.approx(-3.0, abs=1e-9)
    assert stderr == pytest.approx(1.0, abs=1e-9)
    assert count == 2


def test_marginal_effect_swapped_scores_negates_mean():
    tasks, scores = synthetic_campaign()
    mean, _, count = marginal_effect(scores, tasks, "arch")
    pairs = matched_pairs(tasks, "arch")
    swap = {}
    for with_id, without_id in pairs:
        swap[with_id] = without_id
        swap[without_id] = with_id
    swapped = [
        RunScore(
            task_id=swap.get(s.task_id, s.task_id), trial=s.trial,
            raw_fraction=s.raw_fraction, compliant=s.compliant,
            full_pass=s.full_pass, config=s.config,
        )
        for s in scores
    ]
    swapped_mean, _, swapped_count = marginal_effect(swapped, tasks, "arch")
    assert swapped_count == count
    assert swapped_mean == pytest.approx(-mean, abs=1e-9)


def test_orm_constraint_without_database_pairs_is_error():
    tasks = [_task("flask"), _task("flask", architecture=True)]
    scores = [score("flask-openapi", 0, 0.5),
              score("flask-openapi-clean_architecture", 0, 0.5)]
    with pytest.raises(MetricError, match="orm"):
        marginal_effect(scores, tasks, "orm")


def test_sqlalchemy_pairs_touch_only_python_frameworks():
    tasks = [
        _task("flask", database="sqlite"), _task("flask", database="sqlite", orm=True),
        _task("express", database="sqlite"), _task("express", database="sqlite", orm=True),
    ]
    pairs = matched_pairs(tasks, "sqlalchemy")
    assert pairs == [("flask-openapi-sqlite-sqlalchemy", "flask-openapi-sqlite")]
    pairs = matched_pairs(tasks, "sequelize")
    assert pairs == [("express-openapi-sqlite-sequelize", "express-openapi-sqlite")]


# -- correlations ----------------------------------------------------------------

def test_correlation_identity():
    r, rho = correlations([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
    assert r == pytest.approx(1.0, abs=1e-12)
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_correlation_reversed():
    r, rho = correlations([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert r == pytest.approx(-1.0, abs=1e-12)
    assert rho == pytest.approx(-1.0, abs=1e-12)


def test_correlation_hand_computed():
    # x=[1,2,3,4], y=[1,3,2,4]: cov=4, var_x=var_y=5 -> r=0.8; ranks equal values.
    r, rho = correlations([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(0.8, abs=1e-12)
    assert rho == pytest.approx(0.8, abs=1e-12)


def test_spearman_average_ranks_for_ties():
    # y ranks with ties: [1.5, 1.5, 3, 4]; hand pearson of ranks = sqrt(0.9)
    _, rho = correlations([1, 2, 3, 4], [1, 1, 2, 3])
    assert rho == pytest.approx(math.sqrt(0.9), abs=1e-12)


def test_correlation_errors():
    with pytest.raises(MetricError):
        correlations([1, 2], [1, 2])
    with pytest.raises(MetricError):
        correlations([1, 1, 1], [1, 2, 3])


@given(
    st.lists(st.integers(min_value=-10_000, max_value=10_000), min_size=3, max_size=30),
    st.floats(min_value=0.5, max_value=100.0),
    st.floats(min_value=-1e3, max_value=1e3),
)
@settings(max_examples=60)
def test_pearson_invariant_under_positive_affine(xs, scale, shift):
    xs = [float(x) for x in xs]
    ys = [2.5 * x + 1 for x in xs]
    transformed = [scale * x + shift for x in xs]
    # the transform must not create or destroy ties, or ranks change legitimately
    if len(set(xs)) < 2 or len(set(transformed)) != len(set(xs)):
        return
    r1, rho1 = correlations(xs, ys)
    r2, rho2 = correlations(transformed, ys)
    assert r1 == pytest.approx(r2, abs=1e-6)
    assert rho1 == pytest.approx(rho2, abs=1e-9)


def test_spearman_invariant_under_monotone_transform():
    xs = [1.0, 5.0, 2.0, 9.0, 3.0]
    ys = [2.0, 4.0, 1.0, 8.0, 7.0]
    _, rho1 = correlations(xs, ys)
    _, rho2 = correlations([math.exp(x) for x in xs], ys)
    assert rho1 == pytest.approx(rho2, abs=1e-12)


# -- cohen's kappa -----------------------------------------------------------------

def test_kappa_perfect_agreement():
    assert cohen_kappa(["a", "b", "a"], ["a", "b", "a"]) == pytest.approx(1.0)


def test_kappa_chance_level_is_zero():
    # 2x2 confusion with p_o = p_e = 0.5
    assert cohen_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"]) == pytest.approx(0.0, abs=1e-12)


def test_kappa_hand_computed():
    # p_o = 3/4; p_e = (3/4)(1/2) + (1/4)(1/2) = 1/2; kappa = 0.5
    assert cohen_kappa(["a", "a", "a", "b"], ["a", "a", "b", "b"]) == pytest.approx(0.5, abs=1e-12)


def test_kappa_undefined_for_identical_constant_raters():
    with pytest.raises(MetricError):
        cohen_kappa(["a", "a"], ["a", "a"])


def judge_validation_sample():
    """49/50 agreement with the one confusion that reproduces the published
    per-class table: a framework_idiosyncrasy item judged incorrect_query_logic."""
    supports = {
        "auth_misconfiguration": 11,
        "incorrect_query_logic": 12,
        "state_propagation_failure": 5,
        "database_runtime_error": 11,
        "framework_idiosyncrasy": 5,
        "business_logic_defect": 6,
    }
    truth, predicted = [], []
    for label, count in supports.items():
        truth.extend([label] * count)
        predicted.extend([label] * count)
    index = truth.index("framework_idiosyncrasy")
    predicted[index] = "incorrect_query_logic"
    return truth, predicted


def test_kappa_matches_published_judge_agreement():
    truth, predicted = judge_validation_sample()
    assert sum(t == p for t, p in zip(truth, predicted)) == 49
    kappa = cohen_kappa(truth, predicted)
    assert round(kappa, 3) == 0.975


def test_classification_report_matches_published_table():
    truth, predicted = judge_validation_sample()
    report = classification_report(truth, predicted)
    classes = report["classes"]
    assert classes["incorrect_query_logic"]["precision"] == pytest.approx(100 * 12 / 13, abs=1e-9)
    assert classes["incorrect_query_logic"]["recall"] == pytest.approx(100.0)
    assert round(classes["incorrect_query_logic"]["f1"], 1) == 96.0
    assert classes["framework_idiosyncrasy"]["recall"] == pytest.approx(80.0, abs=1e-9)
    assert round(classes["framework_idiosyncrasy"]["f1"], 1) == 88.9
    for name in ("auth_misconfiguration", "state_propagation_failure",
                 "database_runtime_error", "business_logic_defect"):
        assert classes[name]["precision"] == pytest.approx(100.0)
        assert classes[name]["recall"] == pytest.approx(100.0)
    macro = report["macro"]
    assert round(macro["precision"], 1) == 98.7
    assert round(macro["recall"], 1) == 96.7
    assert round(macro["f1"], 1) == 97.5


def test_classification_report_perfect():
    report = classification_report(["a", "b"], ["a", "b"])
    assert report["macro"]["precision"] == 100.0
    assert report["macro"]["recall"] == 100.0
    assert report["macro"]["f1"] == 100.0


def test_classification_report_single_false_positive():
    # one y item predicted as x: x precision drops, y recall drops, rest intact
    truth = ["x", "x", "y", "y", "z"]
    predicted = ["x", "x", "x", "y", "z"]
    report = classification_report(truth, predicted)["classes"]
    assert report["x"]["precision"] == pytest.approx(100 * 2 / 3, abs=1e-9)
    assert report["x"]["recall"] == pytest.approx(100.0)
    assert report["y"]["recall"] == pytest.approx(50.0)
    assert report["y"]["precision"] == pytest.approx(100.0)
    assert report["z"]["precision"] == pytest.approx(100.0)
    assert report["z"]["recall"] == pytest.approx(100.0)


def test_classification_report_hand_computed_three_class():
    truth = ["a", "a", "b", "b", "c", "c"]
    predicted = ["a", "b", "b", "b", "c", "a"]
    report = classification_report(truth, predicted)["classes"]
    assert report["a"]["precision"] == pytest.approx(50.0)   # 1 of 2 predicted a
    assert report["a"]["recall"] == pytest.approx(50.0)      # 1 of 2 true a
    assert report["b"]["precision"] == pytest.approx(100 * 2 / 3, abs=1e-9)
    assert report["b"]["recall"] == pytest.approx(100.0)
    assert report["c"]["precision"] == pytest.approx(100.0)
    assert report["c"]["recall"] == pytest.approx(50.0)


def test_classification_report_flags_unpredicted_class():
    report = classification_report(["a", "b"], ["a", "a"])["classes"]
    assert report["b"]["undefined_precision"] is True
    assert report["b"]["precision"] == 0.0
