import json
import re
import time

import pytest
from hypothesis import given, strategies as st

from constraintbench.composer import (
    FRAMEWORK_ORDER,
    FRAMEWORKS,
    ConstraintSet,
    PromptTemplate,
    TaskSpec,
    enumerate_variants,
    load_feature_task,
    load_task,
    openapi_document,
    render_prompt,
    task_id,
)
from constraintbench.errors import PromptRenderError, TaskSchemaError

ALL_FRAMEWORKS = [FRAMEWORKS[name] for name in FRAMEWORK_ORDER]


def test_framework_registry_shape():
    python = [f for f in FRAMEWORKS.values() if f.runtime == "python312"]
    node = [f for f in FRAMEWORKS.values() if f.runtime == "node20"]
    assert len(python) == 4 and len(node) == 4
    assert all(f.port == 8080 and f.orm_name == "SQLAlchemy" for f in python)
    assert all(f.port == 3000 and f.orm_name == "Sequelize" for f in node)
    assert all(f.dependency_file == "requirements.txt" for f in python)
    assert all(f.dependency_file == "package.json" for f in node)


def test_orm_requires_database():
    with pytest.raises(ValueError):
        ConstraintSet(orm=True)


def test_full_matrix_counts():
    tasks = enumerate_variants(ALL_FRAMEWORKS)
    assert len(tasks) == 80
    by_level = {}
    for task in tasks:
        by_level[task.level] = by_level.get(task.level, 0) + 1
    assert by_level == {0: 8, 1: 24, 2: 32, 3: 16}


def test_single_framework_yields_ten():
    assert len(enumerate_variants([FRAMEWORKS["flask"]])) == 10


def test_l3_variants_are_the_two_orm_combinations():
    tasks = [t for t in enumerate_variants(ALL_FRAMEWORKS) if t.level == 3]
    assert len(tasks) == 16
    combos = {
        (t.constraints.architecture, t.constraints.database, t.constraints.orm) for t in tasks
    }
    assert combos == {(True, "sqlite", True), (True, "postgres", True)}


def test_deterministic_ids_and_ordering():
    first = [t.id for t in enumerate_variants(ALL_FRAMEWORKS)]
    second = [t.id for t in enumerate_variants(ALL_FRAMEWORKS)]
    assert first == second
    assert len(set(first)) == 80
    assert first[0] == "flask-openapi"
    # the id format mirrors <framework>-openapi[-clean_architecture][-db][-orm]
    assert "flask-openapi-clean_architecture-postgres-sqlalchemy" in first
    assert "express-openapi-clean_architecture-postgres-sequelize" in first
    for identifier in first:
        assert re.fullmatch(r"[a-z0-9_-]+", identifier)


def test_matrix_runtime_under_one_second():
    start = time.perf_counter()
    tasks = enumerate_variants(ALL_FRAMEWORKS)
    elapsed = time.perf_counter() - start
    assert len(tasks) == 80
    assert elapsed < 1.0


@given(st.sets(st.sampled_from(FRAMEWORK_ORDER), min_size=1))
def test_variant_count_is_ten_per_framework(names):
    frameworks = [FRAMEWORKS[n] for n in sorted(names)]
    tasks = enumerate_variants(frameworks)
    assert len(tasks) == 10 * len(frameworks)
    per_level = {level: 0 for level in range(4)}
    for task in tasks:
        per_level[task.level] += 1
    assert per_level == {
        0: len(frameworks), 1: 3 * len(frameworks),
        2: 4 * len(frameworks), 3: 2 * len(frameworks),
    }


def test_render_is_pure():
    spec = openapi_document()
    constraints = ConstraintSet(architecture=True, database="sqlite", orm=True)
    one = render_prompt(FRAMEWORKS["flask"], constraints, spec)
    two = render_prompt(FRAMEWORKS["flask"], constraints, spec)
    assert one == two


def test_l0_prompt_content():
    prompt = render_prompt(FRAMEWORKS["flask"], ConstraintSet())
    assert "You MUST use the **flask** framework" in prompt
    assert "## Architecture" not in prompt
    assert "## Database" not in prompt
    assert "SQLAlchemy" not in prompt
    assert "port 8080" in prompt


def test_l3_prompt_content():
    constraints = ConstraintSet(architecture=True, database="postgres", orm=True)
    prompt = render_prompt(FRAMEWORKS["flask"], constraints)
    assert "## Architecture" in prompt
    assert "## Database" in prompt
    assert "You MUST use the SQLAlchemy" in prompt
    assert "PostgreSQL" in prompt
    assert "port 8080" in prompt


def test_node_prompt_port():
    prompt = render_prompt(FRAMEWORKS["express"], ConstraintSet(database="sqlite"))
    assert "port 3000" in prompt
    assert "package.json" in prompt
    assert "SQLite" in prompt


def test_every_prompt_says_to_listen_on_the_port_the_harness_exports():
    # runs lease ports from a pool and get theirs in PORT; the framework's
    # own port is only the fallback when PORT is unset
    for task in enumerate_variants(ALL_FRAMEWORKS):
        assert "the **`PORT`** environment variable" in task.prompt, task.id
        assert "`http://localhost:$PORT/api`" in task.prompt, task.id


def test_prompt_always_starts_with_contract():
    prompt = render_prompt(FRAMEWORKS["koa"], ConstraintSet())
    assert prompt.startswith('openapi: "3.0.1"')


def _headings(prompt: str) -> set:
    return set(re.findall(r"^## .+$", prompt, flags=re.MULTILINE))


@pytest.mark.parametrize("framework_name", FRAMEWORK_ORDER)
def test_heading_superset_chain(framework_name):
    framework = FRAMEWORKS[framework_name]
    spec = openapi_document()
    chain = [
        ConstraintSet(),
        ConstraintSet(architecture=True),
        ConstraintSet(architecture=True, database="sqlite"),
        ConstraintSet(architecture=True, database="sqlite", orm=True),
    ]
    previous: set = set()
    for constraints in chain:
        headings = _headings(render_prompt(framework, constraints, spec))
        assert previous <= headings
        previous = headings


def test_every_task_has_exactly_its_blocks():
    for task in enumerate_variants(ALL_FRAMEWORKS):
        prompt = task.prompt
        assert ("## Architecture" in prompt) == task.constraints.architecture
        assert ("## Database" in prompt) == (task.constraints.database != "none")
        orm_line = f"You MUST use the {task.framework.orm_name}"
        assert (orm_line in prompt) == task.constraints.orm


def test_unresolved_placeholder_is_hard_error():
    template = PromptTemplate.load()
    template.server_config_block += "\nleftover {not_a_real_placeholder}"
    with pytest.raises(PromptRenderError):
        render_prompt(FRAMEWORKS["flask"], ConstraintSet(), "spec text", template)


@pytest.mark.parametrize(
    "golden,framework,constraints",
    [
        ("flask_l0", "flask", ConstraintSet()),
        ("flask_l3", "flask", ConstraintSet(architecture=True, database="postgres", orm=True)),
        ("express_l0", "express", ConstraintSet()),
        ("express_l3", "express", ConstraintSet(architecture=True, database="postgres", orm=True)),
    ],
)
def test_prompt_golden_files(goldens_dir, golden, framework, constraints):
    expected = (goldens_dir / f"{golden}.txt").read_text(encoding="utf-8")
    assert render_prompt(FRAMEWORKS[framework], constraints) == expected


def test_task_json_schema_roundtrip():
    task = enumerate_variants([FRAMEWORKS["fastify"]])[9]
    payload = json.loads(task.to_json())
    assert payload["kind"] == "generation"
    assert payload["runtime"] == "node20"
    assert payload["port"] == 3000
    assert payload["level"] == "L3"
    assert "ablation_patch" not in payload
    again = load_task(task.to_json())
    assert again.id == task.id
    assert again.constraints == task.constraints
    assert again.prompt == task.prompt


def _feature_doc(**overrides):
    doc = {
        "id": "express-feature-comments",
        "kind": "feature",
        "framework": "express",
        "prompt": "openapi...\nComplete the existing repository...",
        "setup_commands": ["npm install"],
        "ablation_patch": "diff --git a/x b/x\n--- a/x\n+++ b/x\n@@ -1,1 +1,1 @@\n-a\n+b\n",
        "repo": {"url": "https://example.com/repo.git", "commit": "a" * 40},
    }
    doc.update(overrides)
    return doc


def test_load_feature_task():
    task = load_feature_task(json.dumps(_feature_doc()))
    assert task.kind == "feature"
    assert task.ablation_patch.startswith("diff --git")
    assert task.repo_ref == {"url": "https://example.com/repo.git", "commit": "a" * 40}


def test_task_summary_round_trips_for_every_composed_task_and_a_feature_task():
    feature = load_feature_task(json.dumps(_feature_doc()))
    for task in enumerate_variants() + [feature]:
        summary = task.summary()
        assert summary == {
            key: value for key, value in task.to_dict().items()
            if key in ("id", "kind", "framework", "runtime", "constraints", "level")
        }
        rebuilt = TaskSpec.from_summary(json.loads(json.dumps(summary)))
        assert (rebuilt.id, rebuilt.kind, rebuilt.framework, rebuilt.constraints, rebuilt.level) \
            == (task.id, task.kind, task.framework, task.constraints, task.level)
    assert TaskSpec.from_summary(feature.summary()).repo_ref is None


def test_feature_task_missing_patch_names_field():
    doc = _feature_doc()
    del doc["ablation_patch"]
    with pytest.raises(TaskSchemaError, match="ablation_patch"):
        load_feature_task(json.dumps(doc))


def test_feature_task_missing_repo_commit():
    doc = _feature_doc(repo={"url": "https://example.com/repo.git"})
    with pytest.raises(TaskSchemaError, match="repo.commit"):
        load_feature_task(json.dumps(doc))


def test_generation_document_rejected_by_feature_loader():
    task = enumerate_variants([FRAMEWORKS["flask"]])[0]
    with pytest.raises(TaskSchemaError, match="kind"):
        load_feature_task(task.to_json())


def test_task_id_format():
    framework = FRAMEWORKS["flask"]
    assert task_id(framework, ConstraintSet()) == "flask-openapi"
    assert (
        task_id(framework, ConstraintSet(architecture=True, database="postgres", orm=True))
        == "flask-openapi-clean_architecture-postgres-sqlalchemy"
    )
