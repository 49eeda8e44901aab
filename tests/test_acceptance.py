"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Tolerances are pinned here, not configured elsewhere.
"""

import itertools
import math
import re
import time

import pytest

from constraintbench.composer import (
    FRAMEWORK_ORDER,
    FRAMEWORKS,
    ConstraintSet,
    TaskSpec,
    enumerate_variants,
    render_prompt,
    task_id,
)
from constraintbench.golden import golden_patch, write_recorded_tree
from constraintbench.harness import HarnessConfig, PatchProvider, evaluate_phase, run_campaign
from constraintbench.metrics import (
    RunScore,
    assert_pct,
    cohen_kappa,
    correlations,
    marginal_effect,
    pass_at_k,
)
from constraintbench.refserver import ServerHandle
from constraintbench.report import build_report, write_tables
from constraintbench.suite import run_suite
from constraintbench.taxonomy import FailureLabel, aggregate_taxonomy
from constraintbench.verifiers import verify_architecture, verify_database, verify_orm

import test_metrics
import test_verifiers

ALL_FRAMEWORKS = [FRAMEWORKS[name] for name in FRAMEWORK_ORDER]


def _ok(name: str):
    print(f"\nACCEPTANCE {name}: PASS")


@pytest.fixture
def harness_config(tmp_path):
    return HarnessConfig(
        port_pool=[8121, 8122],
        health_timeout=5.85,
        workspace_root=str(tmp_path / "ws"),
        pg_url=None,
    )


def _l3_task(setup_commands=()):
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(architecture=True, database="sqlite", orm=True)
    return TaskSpec(
        id=task_id(framework, constraints), kind="generation", framework=framework,
        constraints=constraints,
        prompt=render_prompt(framework, constraints),
        setup_commands=list(setup_commands),
    )


def test_acceptance_task_matrix():
    start = time.perf_counter()
    tasks = enumerate_variants(ALL_FRAMEWORKS)
    elapsed = time.perf_counter() - start

    assert len(tasks) == 80
    per_level = {level: 0 for level in range(4)}
    for task in tasks:
        per_level[task.level] += 1
    assert per_level == {0: 8, 1: 24, 2: 32, 3: 16}
    assert [t.id for t in tasks] == [t.id for t in enumerate_variants(ALL_FRAMEWORKS)]
    assert len({t.id for t in tasks}) == 80
    assert elapsed < 1.0
    _ok("task matrix (80 tasks, levels 8/24/32/16, deterministic, <1s)")


def test_acceptance_prompt_rendering(goldens_dir):
    headings = lambda text: set(re.findall(r"^## .+$", text, flags=re.MULTILINE))
    for task in enumerate_variants(ALL_FRAMEWORKS):
        prompt = task.prompt
        assert ("## Architecture" in prompt) == task.constraints.architecture, task.id
        assert ("## Database" in prompt) == (task.constraints.database != "none"), task.id
        orm_sentence = f"You MUST use the {task.framework.orm_name}"
        assert (orm_sentence in prompt) == task.constraints.orm, task.id

    for framework in ALL_FRAMEWORKS:
        chain = [
            ConstraintSet(),
            ConstraintSet(architecture=True),
            ConstraintSet(architecture=True, database="sqlite"),
            ConstraintSet(architecture=True, database="sqlite", orm=True),
        ]
        previous = set()
        for constraints in chain:
            current = headings(render_prompt(framework, constraints))
            assert previous <= current
            previous = current

    for golden, framework, constraints in [
        ("flask_l0", "flask", ConstraintSet()),
        ("flask_l3", "flask", ConstraintSet(architecture=True, database="postgres", orm=True)),
        ("express_l0", "express", ConstraintSet()),
        ("express_l3", "express", ConstraintSet(architecture=True, database="postgres", orm=True)),
    ]:
        expected = (goldens_dir / f"{golden}.txt").read_text(encoding="utf-8")
        assert render_prompt(FRAMEWORKS[framework], constraints) == expected, golden
    _ok("prompt rendering (block iff constraint, superset chain, golden files)")


def test_acceptance_verifier_fixture_corpus():
    checked = 0
    for name, (files, expected) in test_verifiers.ARCH_FIXTURES.items():
        report = verify_architecture(test_verifiers.patch_from(files))
        assert report.compliant is expected, f"architecture fixture {name}"
        checked += 1
    for name, (files, engine, expected) in test_verifiers.DB_FIXTURES.items():
        report = verify_database(test_verifiers.patch_from(files), engine)
        assert report.compliant is expected, f"database fixture {name}"
        checked += 1
    for name, (files, orm, expected) in test_verifiers.ORM_FIXTURES.items():
        report = verify_orm(test_verifiers.patch_from(files), orm)
        assert report.compliant is expected, f"orm fixture {name}"
        checked += 1
    assert checked >= 15
    _ok(f"verifier fixture corpus ({checked} fixtures, 100% agreement)")


def test_acceptance_collection_counts(conduit_collection):
    per_folder = {
        f.name: (len(f.requests), sum(len(r.assertions) for r in f.requests))
        for f in conduit_collection.folders
    }
    assert sum(requests for requests, _ in per_folder.values()) == 32
    assert sum(assertions for _, assertions in per_folder.values()) == 291
    assert per_folder == {
        "Auth": (5, 30),
        "Articles": (4, 20),
        "Articles, Favorites, Comments": (18, 212),
        "Profiles": (4, 26),
        "Tags": (1, 3),
    }
    _ok("collection static counts (32 requests / 291 assertions, folder split exact)")


def test_acceptance_end_to_end_oracle(conduit_collection, harness_config):
    task = _l3_task()
    start = time.perf_counter()
    layered = evaluate_phase(task, golden_patch("layered"), conduit_collection,
                             config=harness_config)
    elapsed = time.perf_counter() - start
    assert layered.health_ok is True
    assert layered.suite.assertions_passed == 291
    assert all(r.compliant for r in layered.verifier_reports)
    assert len(layered.verifier_reports) == 3
    assert layered.full_pass is True
    assert elapsed < 120.0

    monolithic = evaluate_phase(task, golden_patch("monolithic"), conduit_collection,
                                config=harness_config)
    assert monolithic.suite.assertions_passed == 291
    arch = [r for r in monolithic.verifier_reports if r.axis == "architecture"][0]
    assert arch.compliant is False
    score = RunScore(
        task_id=task.id, trial=0, raw_fraction=monolithic.raw_fraction,
        compliant=monolithic.structurally_compliant, full_pass=monolithic.full_pass,
    )
    assert assert_pct([score], enforced=True) == 0.0
    assert assert_pct([score], enforced=False) == pytest.approx(100.0)
    _ok(f"end-to-end oracle (layered full pass in {elapsed:.1f}s; monolithic zeroed)")


def test_acceptance_partial_failure_oracle(conduit_collection):
    # Hand count: Create Comment 11, All Comments 10, Delete Comment 1,
    # All Comments after Delete 4 -> exactly 26 failures, nothing else.
    expected_failures = {
        "Create Comment": 11,
        "All Comments for Article": 10,
        "Delete Comment": 1,
        "All Comments after Delete": 4,
    }
    with ServerHandle(port=0, disabled=["comments"]) as server:
        result = run_suite(conduit_collection, server.base_url)
    failed = result.failures
    per_request = {}
    for outcome in failed:
        per_request[outcome.request] = per_request.get(outcome.request, 0) + 1
    assert per_request == expected_failures
    assert result.assertions_passed == 291 - 26
    _ok("partial-failure oracle (comments off: exactly the 26 comment assertions fail)")


def test_acceptance_pass_at_k_exactness():
    def brute_force(n, c, k):
        outcomes = [True] * c + [False] * (n - c)
        subsets = list(itertools.combinations(outcomes, k))
        return sum(any(s) for s in subsets) / len(subsets)

    checked = 0
    for n in range(1, 7):
        for c in range(n + 1):
            for k in range(1, n + 1):
                assert abs(pass_at_k(n, c, k) - brute_force(n, c, k)) <= 1e-12, (n, c, k)
                checked += 1
    _ok(f"pass@k exactness ({checked} (n,c,k) triples vs enumeration, tol 1e-12)")


def test_acceptance_metrics_oracle(tmp_path):
    tasks, scores = test_metrics.synthetic_campaign()
    assert len(scores) == 24

    assert assert_pct(scores, enforced=False) == pytest.approx(66.25, abs=1e-9)
    assert assert_pct(scores, enforced=True) == pytest.approx(
        (0.9 + 1.6 / 3 + 0.6 + 0.4 + 1.0 + 0.7 + 0.7 + 0.2) / 8 * 100, abs=1e-9
    )

    mean, stderr, count = marginal_effect(scores, tasks, "arch")
    assert count == 4
    assert mean == pytest.approx(-410 / 12, abs=1e-9)
    assert stderr == pytest.approx(math.sqrt(475.0 / 3) / 2, abs=1e-9)

    r, rho = correlations([1, 2, 3, 4], [1, 3, 2, 4])
    assert r == pytest.approx(0.8, abs=1e-9)
    assert rho == pytest.approx(0.8, abs=1e-9)

    assert cohen_kappa(["a", "a", "a", "b"], ["a", "a", "b", "b"]) == pytest.approx(0.5, abs=1e-9)

    import test_report

    records = test_report.synthetic_records()
    from constraintbench.harness import write_campaign

    results = tmp_path / "results"
    write_campaign(records, results, trials=3)
    files_a = write_tables(build_report(results), tmp_path / "a")
    files_b = write_tables(build_report(results), tmp_path / "b")
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes()
    _ok("metrics oracle (24-run campaign matches hand values; reports byte-identical)")


def test_acceptance_taxonomy_share():
    labels = [
        FailureLabel(f"r{i}", "logic_error", sub="incorrect_query_logic") for i in range(137)
    ]
    labels += [FailureLabel(f"s{i}", "server_startup_failure") for i in range(57)]
    summary = aggregate_taxonomy(labels)
    assert summary["failed_runs"] == 194
    assert round(summary["coarse"]["logic_error"]["pct"], 1) == 70.6
    _ok("taxonomy aggregation (137/194 logic errors -> 70.6%)")


def test_acceptance_replay_determinism(tmp_path, conduit_collection, harness_config):
    from conftest import record_to_comparable

    layered_task = _l3_task()
    patches = tmp_path / "patches"
    write_recorded_tree(patches, {layered_task.id: "layered"})
    provider = PatchProvider("recorded_directory", str(patches))

    def campaign():
        return run_campaign(
            [layered_task], provider, trials=2, collection=conduit_collection,
            config=harness_config, labels={"agent": "replay", "model": "golden"},
        )

    first = [record_to_comparable(r.to_dict()) for r in campaign()]
    second = [record_to_comparable(r.to_dict()) for r in campaign()]
    assert first == second
    _ok("replay determinism (two campaigns identical modulo wall_time/logs)")
