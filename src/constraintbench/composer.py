"""Task composition: the framework/constraint variant matrix and prompt rendering.

A task prompt is assembled from modular text fragments; optional sections
(architecture, database, ORM) appear exactly when the matching constraint is
active. Fragments live under ``assets/templates`` so wording can be revised
without touching code.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields
from importlib import resources

from .errors import PromptRenderError, TaskSchemaError

DATABASES = ("none", "sqlite", "postgres")


@dataclass(frozen=True)
class Framework:
    name: str
    runtime: str  # python312 | node20
    port: int
    dependency_file: str
    orm_name: str

    @property
    def runtime_label(self) -> str:
        return "Python 3.12" if self.runtime == "python312" else "Node.js 20"


FRAMEWORKS: dict[str, Framework] = {
    name: Framework(name, "python312", 8080, "requirements.txt", "SQLAlchemy")
    for name in ("flask", "fastapi", "django", "aiohttp")
}
FRAMEWORKS.update(
    {
        name: Framework(name, "node20", 3000, "package.json", "Sequelize")
        for name in ("express", "fastify", "hono", "koa")
    }
)
FRAMEWORK_ORDER = ("flask", "fastapi", "django", "aiohttp", "express", "fastify", "hono", "koa")


@dataclass(frozen=True)
class ConstraintSet:
    architecture: bool = False
    database: str = "none"
    orm: bool = False

    def __post_init__(self):
        if self.database not in DATABASES:
            raise ValueError(f"unknown database {self.database!r}")
        if self.orm and self.database == "none":
            raise ValueError("orm constraint requires a database constraint")

    @property
    def level(self) -> int:
        return int(self.architecture) + int(self.database != "none") + int(self.orm)


# Fixed variant order within a framework: L0, then L1 (arch | sqlite | pg),
# L2 (arch+sqlite | arch+pg | sqlite+orm | pg+orm), L3 (arch+sqlite+orm | arch+pg+orm).
VARIANT_ORDER: tuple[ConstraintSet, ...] = (
    ConstraintSet(),
    ConstraintSet(architecture=True),
    ConstraintSet(database="sqlite"),
    ConstraintSet(database="postgres"),
    ConstraintSet(architecture=True, database="sqlite"),
    ConstraintSet(architecture=True, database="postgres"),
    ConstraintSet(database="sqlite", orm=True),
    ConstraintSet(database="postgres", orm=True),
    ConstraintSet(architecture=True, database="sqlite", orm=True),
    ConstraintSet(architecture=True, database="postgres", orm=True),
)


@dataclass
class TaskSpec:
    id: str
    kind: str  # generation | feature
    framework: Framework
    constraints: ConstraintSet
    prompt: str
    setup_commands: list[str] = field(default_factory=list)
    ablation_patch: str | None = None
    repo_ref: dict | None = None  # {"url": ..., "commit": ...}

    @property
    def level(self) -> int:
        return self.constraints.level

    def to_dict(self) -> dict:
        payload = {
            "id": self.id,
            "kind": self.kind,
            "framework": self.framework.name,
            "runtime": self.framework.runtime,
            "port": self.framework.port,
            "constraints": asdict(self.constraints),
            "level": f"L{self.level}",
            "prompt": self.prompt,
            "setup_commands": list(self.setup_commands),
        }
        if self.kind == "feature":
            payload["ablation_patch"] = self.ablation_patch
            payload["repo"] = dict(self.repo_ref)
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> dict:
        """The part of ``to_dict()`` a RunRecord keeps as its ``task``."""
        return {key: value for key, value in self.to_dict().items() if key in _SUMMARY_KEYS}

    @classmethod
    def from_summary(cls, summary: dict) -> "TaskSpec":
        """A prompt-less task from ``summary()``: enough to group and pair runs."""
        return cls(
            id=summary["id"], kind=summary.get("kind", "generation"),
            framework=FRAMEWORKS[summary["framework"]],
            constraints=ConstraintSet(**summary["constraints"]), prompt="",
        )


_SUMMARY_KEYS = ("id", "kind", "framework", "runtime", "constraints", "level")


def _asset(name: str) -> str:
    return resources.files("constraintbench").joinpath(f"assets/{name}").read_text(encoding="utf-8")


def openapi_document() -> str:
    """The API contract shipped with the harness, treated as opaque text."""
    return _asset("openapi.yml")


@dataclass
class PromptTemplate:
    spec_header: str
    requirements_block: str
    requirement_architecture_line: str
    requirement_database_line: str
    orm_sentence: str
    architecture_block: str
    sqlite_block: str
    postgres_block: str
    mandatory_files_block: str
    server_config_block: str
    evaluation_pipeline_block: str

    @classmethod
    def load(cls) -> "PromptTemplate":
        """Each field from the fragment file of the same name."""
        return cls(**{f.name: _asset(f"templates/{f.name}.txt") for f in fields(cls)})


_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


def _substitute(text: str, values: dict[str, str]) -> str:
    def replace(match):
        key = match.group(1)
        if key not in values:
            raise PromptRenderError(f"unresolved placeholder {{{key}}}")
        return values[key]

    return _PLACEHOLDER_RE.sub(replace, text)


def render_prompt(
    framework: Framework,
    constraints: ConstraintSet,
    spec: str | None = None,
    template: PromptTemplate | None = None,
) -> str:
    """Assemble the full task prompt: contract text first, then the sections."""
    spec = openapi_document() if spec is None else spec
    template = template or PromptTemplate.load()
    python = framework.runtime == "python312"
    values = {
        "runtime": framework.runtime_label,
        "framework": framework.name,
        "port": str(framework.port),
        "orm": framework.orm_name,
        "orm_language_qualifier": " Python" if python else "",
        "dependency_file": framework.dependency_file,
        "dependency_file_purpose": "all pip dependencies" if python else "all npm dependencies",
        "install_command": (
            "pip install -r requirements.txt" if python else "npm install"
        ),
    }

    requirements = template.requirements_block.rstrip("\n")
    if constraints.architecture:
        requirements += "\n" + template.requirement_architecture_line.rstrip("\n")
    if constraints.database != "none":
        requirements += "\n" + template.requirement_database_line.rstrip("\n")
    if constraints.orm:
        requirements += "\n" + template.orm_sentence.rstrip("\n")

    sections = [template.spec_header.rstrip("\n"), requirements]
    if constraints.architecture:
        sections.append(template.architecture_block.rstrip("\n"))
    if constraints.database == "sqlite":
        sections.append(template.sqlite_block.rstrip("\n"))
    elif constraints.database == "postgres":
        sections.append(template.postgres_block.rstrip("\n"))
    sections.append(template.mandatory_files_block.rstrip("\n"))
    sections.append(template.server_config_block.rstrip("\n"))
    sections.append(template.evaluation_pipeline_block.rstrip("\n"))

    rendered = _substitute("\n\n".join(sections), values)
    leftover = _PLACEHOLDER_RE.search(rendered)
    if leftover:
        raise PromptRenderError(f"unresolved placeholder {{{leftover.group(1)}}}")
    return spec.rstrip("\n") + "\n\n" + rendered + "\n"


def task_id(framework: Framework, constraints: ConstraintSet) -> str:
    parts = [framework.name, "openapi"]
    if constraints.architecture:
        parts.append("clean_architecture")
    if constraints.database != "none":
        parts.append(constraints.database)
    if constraints.orm:
        parts.append(framework.orm_name.lower())
    return "-".join(parts)


def default_setup_commands(framework: Framework) -> list[str]:
    if framework.runtime == "python312":
        return ["pip install -r requirements.txt"]
    return ["npm install"]


def enumerate_variants(
    frameworks: list[Framework] | None = None,
    spec: str | None = None,
) -> list[TaskSpec]:
    """All constraint variants for the given frameworks, in deterministic order."""
    if frameworks is None:
        frameworks = [FRAMEWORKS[name] for name in FRAMEWORK_ORDER]
    if not frameworks:
        raise ValueError("frameworks must be non-empty")
    spec = openapi_document() if spec is None else spec
    template = PromptTemplate.load()
    tasks = []
    for framework in frameworks:
        for constraints in VARIANT_ORDER:
            tasks.append(
                TaskSpec(
                    id=task_id(framework, constraints),
                    kind="generation",
                    framework=framework,
                    constraints=constraints,
                    prompt=render_prompt(framework, constraints, spec, template),
                    setup_commands=default_setup_commands(framework),
                )
            )
    return tasks


def parse_framework_names(raw: str) -> list[Framework]:
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in FRAMEWORKS]
    if unknown:
        raise TaskSchemaError(f"unknown framework(s): {', '.join(unknown)}")
    return [FRAMEWORKS[name] for name in names]


_GENERATION_FIELDS = ("id", "kind", "framework", "prompt", "setup_commands")
_FEATURE_FIELDS = _GENERATION_FIELDS + ("ablation_patch", "repo")


def _task_from_dict(payload: dict) -> TaskSpec:
    kind = payload.get("kind")
    required = _FEATURE_FIELDS if kind == "feature" else _GENERATION_FIELDS
    for name in required:
        if name not in payload or payload[name] is None:
            raise TaskSchemaError(f"task document missing field: {name}")
    framework_name = payload["framework"]
    if framework_name not in FRAMEWORKS:
        raise TaskSchemaError(f"unknown framework: {framework_name}")
    framework = FRAMEWORKS[framework_name]
    raw_constraints = payload.get("constraints", {})
    constraints = ConstraintSet(
        architecture=bool(raw_constraints.get("architecture", False)),
        database=raw_constraints.get("database", "none"),
        orm=bool(raw_constraints.get("orm", False)),
    )
    repo = payload.get("repo")
    if kind == "feature":
        for sub in ("url", "commit"):
            if sub not in repo:
                raise TaskSchemaError(f"task document missing field: repo.{sub}")
    return TaskSpec(
        id=payload["id"],
        kind=kind,
        framework=framework,
        constraints=constraints,
        prompt=payload["prompt"],
        setup_commands=list(payload["setup_commands"]),
        ablation_patch=payload.get("ablation_patch"),
        repo_ref=dict(repo) if repo else None,
    )


def load_task(document: str) -> TaskSpec:
    """Parse a task JSON document of either kind."""
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise TaskSchemaError(f"task document is not valid JSON: {exc}") from exc
    if payload.get("kind") not in ("generation", "feature"):
        raise TaskSchemaError("task document missing field: kind (generation|feature)")
    return _task_from_dict(payload)


def load_feature_task(document: str) -> TaskSpec:
    """Parse a feature-task JSON document; rejects generation documents."""
    task = load_task(document)
    if task.kind != "feature":
        raise TaskSchemaError(f"expected a feature task, got kind={task.kind!r}")
    return task
