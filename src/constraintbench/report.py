"""Campaign results rendered as summary tables (CSV + JSON + aligned text).

Every table is derived from RunRecord JSON plus optional failure labels;
re-running over the same results directory produces byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .composer import TaskSpec
from .errors import MetricError
from .harness import load_campaign
from .metrics import DEFAULT_CONFIG, RunScore, assert_pct, marginal_effect, pass_at_k
from .taxonomy import aggregate_taxonomy, load_labels

LEVELS = ("L0", "L1", "L2", "L3")
_CONSTRAINT_TITLES = {
    "arch": "Clean architecture",
    "sqlite": "SQLite",
    "pg": "PostgreSQL",
    "sqlalchemy": "SQLAlchemy",
    "sequelize": "Sequelize",
}


@dataclass
class Table:
    name: str
    columns: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {"name": self.name, "columns": self.columns, "rows": self.rows},
            indent=2,
            sort_keys=True,
        )

    def to_text(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = ["  ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))]
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines) + "\n"


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


@dataclass
class ScoredCampaign:
    scores: list[RunScore]
    tasks: dict[str, TaskSpec]  # task_id -> its task, in id order
    configs: list[tuple[str, str]]  # the scores' (agent, model) pairs, sorted
    skipped: int = 0

    def runs(
        self, config: tuple[str, str], level: int | None = None, framework: str | None = None
    ) -> list[RunScore]:
        """One config's scores, in stored order, on the tasks of ``level``
        and of ``framework`` where those are given."""
        return [
            s
            for s in self.scores
            if s.config == config
            and (level is None or self.tasks[s.task_id].level == level)
            and (framework is None or self.tasks[s.task_id].framework.name == framework)
        ]


def score_campaign(records: Iterable[dict]) -> ScoredCampaign:
    """RunRecord dicts -> RunScores plus task metadata for pairing/grouping.

    Only each record's score, task and config are kept, so ``records`` may
    be a lazy iterator such as ``load_campaign``'s."""
    scores = []
    tasks: dict[str, TaskSpec] = {}
    skipped = 0
    for record in records:
        # a record stored before ``outcome`` existed keeps the flag instead
        if "outcome" in record:
            skipped_run = record["outcome"] == "env_skipped"
        else:
            skipped_run = record.get("environment_skipped", False)
        if skipped_run:
            skipped += 1
            continue
        task = TaskSpec.from_summary(record["task"])
        tasks.setdefault(task.id, task)
        labels = record.get("labels", {})
        config = (labels.get("agent", DEFAULT_CONFIG[0]), labels.get("model", DEFAULT_CONFIG[1]))
        suite = record["suite"]
        total = suite["assertions_total"]
        scores.append(
            RunScore(
                task_id=record["task_id"],
                trial=record["trial"],
                raw_fraction=(suite["assertions_passed"] / total) if total else 0.0,
                compliant=record["structurally_compliant"],
                full_pass=record["full_pass"],
                config=config,
            )
        )
    return ScoredCampaign(
        scores=scores,
        tasks=dict(sorted(tasks.items())),
        configs=sorted({score.config for score in scores}),
        skipped=skipped,
    )


def _a_pct(runs: list[RunScore]) -> float | None:
    return assert_pct(runs) if runs else None


def a_pct_by_level(campaign: ScoredCampaign) -> Table:
    table = Table("a_pct_by_level", ["agent", "model", *LEVELS])
    for config in campaign.configs:
        cells = [_a_pct(campaign.runs(config, level)) for level in range(len(LEVELS))]
        table.rows.append([*config, *map(_fmt, cells)])
    return table


def pass_at_1_by_level(campaign: ScoredCampaign) -> Table:
    table = Table("pass_at_1_by_level", ["agent", "model", *LEVELS])
    for config in campaign.configs:
        row = list(config)
        for level in range(len(LEVELS)):
            passes: dict[str, list[bool]] = {}  # task_id -> full_pass of each trial
            for score in campaign.runs(config, level):
                passes.setdefault(score.task_id, []).append(score.full_pass)
            values = [pass_at_k(len(trials), sum(trials), 1) for trials in passes.values()]
            row.append(_fmt(100.0 * sum(values) / len(values) if values else None))
        table.rows.append(row)
    return table


def a_pct_by_framework(campaign: ScoredCampaign) -> Table:
    headers = [f"{agent}/{model}" for agent, model in campaign.configs]
    table = Table("a_pct_by_framework", ["framework", *headers, "avg"])
    rows = []
    for framework in {campaign.tasks[s.task_id].framework.name for s in campaign.scores}:
        cells = [_a_pct(campaign.runs(config, framework=framework)) for config in campaign.configs]
        present = [cell for cell in cells if cell is not None]  # never empty: a run has it
        rows.append((sum(present) / len(present), framework, cells))
    # Sort rows by descending average, the leaderboard shape.
    for avg, framework, cells in sorted(rows, key=lambda row: (-row[0], row[1])):
        table.rows.append([framework, *map(_fmt, cells), _fmt(avg)])
    return table


def marginal_effects(campaign: ScoredCampaign) -> Table:
    table = Table("marginal_effects", ["constraint", "mean_delta_pp", "stderr_pp", "pairs"])
    for constraint, title in _CONSTRAINT_TITLES.items():
        try:
            mean, stderr, count = marginal_effect(
                campaign.scores, list(campaign.tasks.values()), constraint
            )
        except MetricError:
            table.rows.append([title, "no matched pairs", "-", "0"])
            continue
        table.rows.append([title, _fmt(mean), _fmt(stderr), str(count)])
    return table


def raw_vs_enforced(campaign: ScoredCampaign) -> Table:
    table = Table(
        "raw_vs_enforced",
        ["agent", "model", "level", "enforced_a_pct", "raw_a_pct", "delta"],
    )
    for config in campaign.configs:
        for level, name in enumerate(LEVELS):
            runs = campaign.runs(config, level)
            if not runs:
                continue
            enforced = assert_pct(runs, enforced=True)
            raw = assert_pct(runs, enforced=False)
            table.rows.append(
                [*config, name, _fmt(enforced), _fmt(raw), _fmt(raw - enforced)]
            )
    return table


def taxonomy_table(labels_path) -> Table:
    table = Table("taxonomy", ["kind", "category", "count", "pct"])
    summary = aggregate_taxonomy(load_labels(labels_path))
    for category, stats in sorted(
        summary["coarse"].items(), key=lambda item: (-item[1]["count"], item[0])
    ):
        table.rows.append(["coarse", category, str(stats["count"]), _fmt(stats["pct"])])
    for category, stats in sorted(
        summary["sub"].items(), key=lambda item: (-item[1]["count"], item[0])
    ):
        table.rows.append(["logic_sub", category, str(stats["count"]), _fmt(stats["pct"])])
    return table


# name -> builder of a table from a ScoredCampaign
TABLES = {
    "a_pct_by_level": a_pct_by_level,
    "pass_at_1_by_level": pass_at_1_by_level,
    "a_pct_by_framework": a_pct_by_framework,
    "marginal_effects": marginal_effects,
    "raw_vs_enforced": raw_vs_enforced,
}
TAXONOMY = "taxonomy"  # the one table built from failure labels, not from runs
TABLE_NAMES = (*TABLES, TAXONOMY)
# what ``constraintbench metrics`` writes
METRICS_TABLES = ("a_pct_by_level", "pass_at_1_by_level", "marginal_effects", "raw_vs_enforced")


def build_report(
    results_dir,
    tables: list[str] | None = None,
    labels_path=None,
) -> dict[str, Table]:
    """Assemble the selected tables (default: every one but taxonomy) from a
    results directory; taxonomy is built from the labels at ``labels_path``."""
    selected = list(tables) if tables else list(TABLES)
    unknown = [t for t in selected if t not in TABLE_NAMES]
    if unknown:
        raise MetricError(f"unknown table(s): {', '.join(unknown)}")
    if TAXONOMY in selected and labels_path is None:
        raise MetricError(f"table {TAXONOMY} needs failure labels: pass --labels")
    campaign = score_campaign(load_campaign(results_dir))
    return {
        name: taxonomy_table(labels_path) if name == TAXONOMY else TABLES[name](campaign)
        for name in selected
    }


def write_tables(tables: dict[str, Table], out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(tables):
        table = tables[name]
        for suffix, text in (
            (".csv", table.to_csv()),
            (".json", table.to_json() + "\n"),
            (".txt", table.to_text()),
        ):
            path = out / f"{name}{suffix}"
            path.write_text(text, encoding="utf-8")
            written.append(path)
    return written
