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
from .metrics import RunScore, assert_pct, marginal_effect, pass_at_k
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
    configs: list[tuple[str, str]]  # (agent, model) in deterministic order
    skipped: int = 0

    def by_level(self, level: str, config: str | None = None) -> list[RunScore]:
        return [
            s
            for s in self.scores
            if f"L{self.tasks[s.task_id].level}" == level and (config is None or s.config == config)
        ]


def score_campaign(records: Iterable[dict]) -> ScoredCampaign:
    """RunRecord dicts -> RunScores plus task metadata for pairing/grouping.

    Only each record's score, task and config are kept, so ``records`` may
    be a lazy iterator such as ``load_campaign``'s."""
    scores = []
    tasks: dict[str, TaskSpec] = {}
    configs = set()
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
        config = f"{labels.get('agent', 'provider')}|{labels.get('model', 'recorded')}"
        configs.add(config)
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
        configs=sorted(tuple(c.split("|", 1)) for c in configs),
        skipped=skipped,
    )


def _config_key(agent: str, model: str) -> str:
    return f"{agent}|{model}"


def a_pct_by_level(campaign: ScoredCampaign) -> Table:
    table = Table("a_pct_by_level", ["agent", "model", *LEVELS])
    for agent, model in campaign.configs:
        row = [agent, model]
        for level in LEVELS:
            runs = campaign.by_level(level, _config_key(agent, model))
            row.append(_fmt(assert_pct(runs) if runs else None))
        table.rows.append(row)
    return table


def pass_at_1_by_level(campaign: ScoredCampaign) -> Table:
    table = Table("pass_at_1_by_level", ["agent", "model", *LEVELS])
    for agent, model in campaign.configs:
        row = [agent, model]
        for level in LEVELS:
            runs = campaign.by_level(level, _config_key(agent, model))
            if not runs:
                row.append("-")
                continue
            by_task: dict[str, list[RunScore]] = {}
            for score in runs:
                by_task.setdefault(score.task_id, []).append(score)
            values = [
                pass_at_k(len(scores), sum(s.full_pass for s in scores), 1)
                for scores in by_task.values()
            ]
            row.append(_fmt(100.0 * sum(values) / len(values)))
        table.rows.append(row)
    return table


def a_pct_by_framework(campaign: ScoredCampaign) -> Table:
    config_keys = [_config_key(a, m) for a, m in campaign.configs]
    headers = [f"{a}/{m}" for a, m in campaign.configs]
    table = Table("a_pct_by_framework", ["framework", *headers, "avg"])
    framework_of = {task.id: task.framework.name for task in campaign.tasks.values()}
    frameworks = sorted({framework_of[s.task_id] for s in campaign.scores})
    cells: dict[str, list[float | None]] = {}
    for framework in frameworks:
        row_values: list[float | None] = []
        for key in config_keys:
            runs = [
                s
                for s in campaign.scores
                if framework_of[s.task_id] == framework and s.config == key
            ]
            row_values.append(assert_pct(runs) if runs else None)
        cells[framework] = row_values
    # Sort rows by descending average, the leaderboard shape.
    def avg(values):
        present = [v for v in values if v is not None]
        return sum(present) / len(present) if present else float("-inf")

    for framework in sorted(frameworks, key=lambda f: (-avg(cells[f]), f)):
        values = cells[framework]
        table.rows.append(
            [framework, *[_fmt(v) for v in values], _fmt(avg(values) if any(v is not None for v in values) else None)]
        )
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
    for agent, model in campaign.configs:
        for level in LEVELS:
            runs = campaign.by_level(level, _config_key(agent, model))
            if not runs:
                continue
            enforced = assert_pct(runs, enforced=True)
            raw = assert_pct(runs, enforced=False)
            table.rows.append(
                [agent, model, level, _fmt(enforced), _fmt(raw), _fmt(raw - enforced)]
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


# name -> builder; taxonomy's reads failure labels, the others a ScoredCampaign
TABLES = {
    "a_pct_by_level": a_pct_by_level,
    "pass_at_1_by_level": pass_at_1_by_level,
    "a_pct_by_framework": a_pct_by_framework,
    "marginal_effects": marginal_effects,
    "raw_vs_enforced": raw_vs_enforced,
    "taxonomy": taxonomy_table,
}
TABLE_NAMES = tuple(TABLES)
# what ``constraintbench metrics`` writes
METRICS_TABLES = ("a_pct_by_level", "pass_at_1_by_level", "marginal_effects", "raw_vs_enforced")


def build_report(
    results_dir,
    tables: list[str] | None = None,
    labels_path=None,
) -> dict[str, Table]:
    """Assemble the selected tables (default: all but taxonomy) from a results directory."""
    selected = list(tables) if tables else [t for t in TABLE_NAMES if t != "taxonomy"]
    unknown = [t for t in selected if t not in TABLES]
    if unknown:
        raise MetricError(f"unknown table(s): {', '.join(unknown)}")
    campaign = score_campaign(load_campaign(results_dir))
    built: dict[str, Table] = {}
    for name in selected:
        if name != "taxonomy":
            built[name] = TABLES[name](campaign)
        elif labels_path is not None:
            built[name] = taxonomy_table(labels_path)
    return built


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
