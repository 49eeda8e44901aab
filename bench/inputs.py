"""Seeded workload inputs and the verdict each run must reach.

Every expected verdict follows from how the input was built, never from a
previous run of the program:

* golden patches carry SQLite and SQLAlchemy evidence and nothing for
  PostgreSQL or Sequelize; the layered variant satisfies the architecture
  verifier and the monolithic one goes only to tasks without that
  constraint. So a task complies unless it asks for PostgreSQL or for a Node
  ORM, PostgreSQL tasks are environment-skipped (no PG_URL), and every other
  run serves the whole collection.
* each hard_boots patch is the layered golden patch with one boot defect;
  the defect alone decides whether the patch applies and the server answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from constraintbench import composer, golden
from constraintbench.composer import FRAMEWORKS, ConstraintSet

LABELS = {"agent": "golden", "model": "recorded"}

HARD_BOOTS_TROUBLES = ("crash", "never_listens", "late_boot", "no_run_sh", "apply_reject")
HARD_BOOTS_BLOCKS = 6  # 30 runs, so the tail (20th of 30) falls on a dead server

_HARD_BOOTS_RUN_SH = {
    "crash": "#!/bin/sh\necho 'fatal: cannot open database' >&2\nexit 3\n",
    "never_listens": "#!/bin/sh\nexec sleep 600\n",
    "late_boot": "#!/bin/sh\nsleep 1.2\nexec python3 server.py\n",
}

# Modifies a file the empty baseline lacks, so `git apply` rejects the
# whole patch; it parses cleanly and adds no constraint evidence.
_REJECTED_HUNK = """diff --git a/config/server.ini b/config/server.ini
--- a/config/server.ini
+++ b/config/server.ini
@@ -1,2 +1,2 @@
 [server]
-workers = 1
+workers = 4
"""


@dataclass(frozen=True)
class Verdict:
    patch_applied: bool
    health_ok: bool
    assertions_passed: int
    structurally_compliant: bool
    environment_skipped: bool
    error: str | None = None  # "internal" or "setup" when the harness gave up

    @classmethod
    def of(cls, record) -> "Verdict":
        error = None
        if record.logs.startswith("internal error"):
            error = "internal"
        elif record.setup_error:
            error = "setup"
        return cls(
            patch_applied=record.patch_applied,
            health_ok=record.health_ok,
            assertions_passed=record.suite.assertions_passed,
            structurally_compliant=record.structurally_compliant,
            environment_skipped=record.environment_skipped,
            error=error,
        )

    def differences(self, actual: "Verdict") -> str:
        return ", ".join(
            f"{name} expected {getattr(self, name)!r} got {getattr(actual, name)!r}"
            for name in self.__dataclass_fields__
            if getattr(self, name) != getattr(actual, name)
        )


@dataclass
class CampaignInputs:
    tasks: list
    trials: int
    patches_dir: Path
    expected: dict  # (task_id, trial) -> Verdict
    kinds: dict  # (task_id, trial) -> input kind, for naming runs


def _hermetic(tasks):
    for task in tasks:
        task.setup_commands = []
    return tasks


def golden_campaign(seed: int, patches_dir: Path, assertions: int) -> CampaignInputs:
    """The 80-task matrix in seeded order, one golden patch per task."""
    tasks = _hermetic(composer.enumerate_variants())
    random.Random(seed).shuffle(tasks)
    variants = {
        task.id: "layered" if task.constraints.architecture else "monolithic" for task in tasks
    }
    golden.write_recorded_tree(patches_dir, variants)
    expected, kinds = {}, {}
    for task in tasks:
        constraints = task.constraints
        skipped = constraints.database == "postgres"
        compliant = not skipped and (
            not constraints.orm or task.framework.runtime == "python312"
        )
        expected[(task.id, 0)] = Verdict(
            patch_applied=not skipped,
            health_ok=not skipped,
            assertions_passed=0 if skipped else assertions,
            structurally_compliant=compliant,
            environment_skipped=skipped,
        )
        kinds[(task.id, 0)] = variants[task.id]
    return CampaignInputs(tasks, 1, patches_dir, expected, kinds)


def hard_boots_patch(kind: str) -> str:
    files = golden.layered_files()
    if kind in _HARD_BOOTS_RUN_SH:
        files["run.sh"] = (_HARD_BOOTS_RUN_SH[kind], True)
    elif kind == "no_run_sh":
        del files["run.sh"]
    diff = golden.files_to_diff(files)
    return diff + _REJECTED_HUNK if kind == "apply_reject" else diff


def hard_boots(seed: int, patches_dir: Path, assertions: int,
               blocks: int = HARD_BOOTS_BLOCKS) -> CampaignInputs:
    """One layered L3 task; trial k gets one boot defect, each defect once
    per block of five consecutive trials, in a seeded order per block."""
    framework = FRAMEWORKS["flask"]
    constraints = ConstraintSet(architecture=True, database="sqlite", orm=True)
    task = _hermetic(
        [t for t in composer.enumerate_variants([framework]) if t.constraints == constraints]
    )[0]
    rng = random.Random(seed)
    order = [kind for _ in range(blocks)
             for kind in rng.sample(HARD_BOOTS_TROUBLES, len(HARD_BOOTS_TROUBLES))]
    trial_dir = patches_dir / task.id
    trial_dir.mkdir(parents=True, exist_ok=True)
    patches = {kind: hard_boots_patch(kind) for kind in HARD_BOOTS_TROUBLES}
    expected, kinds = {}, {}
    for trial, kind in enumerate(order):
        (trial_dir / f"trial{trial}.diff").write_text(patches[kind], encoding="utf-8")
        healthy = kind == "late_boot"
        expected[(task.id, trial)] = Verdict(
            patch_applied=kind != "apply_reject",
            health_ok=healthy,
            assertions_passed=assertions if healthy else 0,
            structurally_compliant=True,
            environment_skipped=False,
        )
        kinds[(task.id, trial)] = kind
    return CampaignInputs([task], len(order), patches_dir, expected, kinds)
