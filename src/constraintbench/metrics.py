"""Quantitative measures over scored runs.

Covers assertion pass rates (raw and verifier-enforced), the unbiased
pass@k estimator, matched-pair marginal constraint effects, rank/product
correlations, chance-corrected agreement, and per-class precision/recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .composer import TaskSpec
from .errors import MetricError

# the (agent, model) pair of a run whose labels name neither
DEFAULT_CONFIG = ("provider", "recorded")


@dataclass(frozen=True)
class RunScore:
    """One trial's scored outcome."""

    task_id: str
    trial: int
    raw_fraction: float
    compliant: bool
    full_pass: bool
    config: tuple[str, str] = DEFAULT_CONFIG  # (agent, model)

    @property
    def enforced_fraction(self) -> float:
        return self.raw_fraction if self.compliant else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def assert_pct(runs: list[RunScore], enforced: bool = True) -> float:
    """Mean assertion pass rate in percent: per-task average first, then across tasks."""
    if not runs:
        raise MetricError("assert_pct is undefined for an empty run list")
    by_task: dict[str, list[float]] = {}
    for run in runs:
        value = run.enforced_fraction if enforced else run.raw_fraction
        by_task.setdefault(run.task_id, []).append(value)
    return 100.0 * _mean(_mean(vals) for vals in by_task.values())


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k: 1 - C(n-c, k)/C(n, k), evaluated exactly in product form."""
    if not 0 <= c <= n:
        raise MetricError(f"need 0 <= c <= n, got c={c}, n={n}")
    if not 1 <= k <= n:
        raise MetricError(f"need 1 <= k <= n, got k={k}, n={n}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    ratio = Fraction(1)
    for i in range(k):
        ratio *= Fraction(n - c - i, n - i)
    return float(1 - ratio)


# constraint -> the same constraints without it, or None where it is absent
# or cannot go alone (a database that an ORM constraint still needs)
_WITHOUT = {
    "arch": lambda c: replace(c, architecture=False) if c.architecture else None,
    "sqlite": lambda c: None if c.database != "sqlite" or c.orm else replace(c, database="none"),
    "pg": lambda c: None if c.database != "postgres" or c.orm else replace(c, database="none"),
    "orm": lambda c: replace(c, orm=False) if c.orm else None,
}
_ORM_NAMES = {"sqlalchemy": "SQLAlchemy", "sequelize": "Sequelize"}


def matched_pairs(tasks: list[TaskSpec], constraint: str) -> list[tuple[str, str]]:
    """(with_id, without_id) pairs: a task with the given constraint, and the
    same framework's task with only that constraint removed."""
    orm_name = _ORM_NAMES.get(constraint)
    without = _WITHOUT.get("orm" if orm_name else constraint)
    if without is None:
        raise MetricError(f"unknown constraint axis value: {constraint}")
    ids = {(task.framework.name, task.constraints): task.id for task in tasks}
    pairs = []
    for task in tasks:
        partner = without(task.constraints)
        if partner is None or (orm_name and task.framework.orm_name != orm_name):
            continue
        partner_id = ids.get((task.framework.name, partner))
        if partner_id is not None:
            pairs.append((task.id, partner_id))
    return sorted(pairs)


def marginal_effect(
    scores: list[RunScore],
    tasks: list[TaskSpec],
    constraint: str,
) -> tuple[float, float, int]:
    """Matched-pair marginal effect of one constraint on the enforced assertion pass rate.

    Returns (mean delta in percentage points, stderr of the mean, pair count),
    pooling one delta per (config, pair) over all configurations.
    """
    pairs = matched_pairs(tasks, constraint)
    by_key: dict[tuple[tuple[str, str], str], list[RunScore]] = {}
    for score in scores:
        by_key.setdefault((score.config, score.task_id), []).append(score)
    deltas = []
    for config in sorted({s.config for s in scores}):
        for with_id, without_id in pairs:
            with_scores = by_key.get((config, with_id))
            without_scores = by_key.get((config, without_id))
            if not with_scores or not without_scores:
                continue
            deltas.append(assert_pct(with_scores) - assert_pct(without_scores))
    if not deltas:
        raise MetricError(f"no matched pairs with scores for constraint {constraint!r}")
    mean = _mean(deltas)
    if len(deltas) > 1:
        sd = math.sqrt(sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1))
        stderr = sd / math.sqrt(len(deltas))
    else:
        stderr = 0.0
    return mean, stderr, len(deltas)


def _rank_with_ties(values: list[float]) -> list[float]:
    """Average ranks (1-based); tied values share the mean of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for position in range(i, j + 1):
            ranks[order[position]] = avg
        i = j + 1
    return ranks


def _pearson(x: list[float], y: list[float]) -> float:
    mx, my = _mean(x), _mean(y)
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        raise MetricError("correlation is undefined for a constant vector")
    return cov / math.sqrt(vx * vy)


def correlations(x: list[float], y: list[float]) -> tuple[float, float]:
    """(Pearson r, Spearman rho); Spearman uses average ranks for ties."""
    if len(x) != len(y):
        raise MetricError("correlation inputs must have equal length")
    if len(x) < 3:
        raise MetricError("correlation needs at least 3 observations")
    return _pearson(list(x), list(y)), _pearson(_rank_with_ties(list(x)), _rank_with_ties(list(y)))


def cohen_kappa(labels_a: list, labels_b: list) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    if len(labels_a) != len(labels_b):
        raise MetricError("label lists must have equal length")
    if not labels_a:
        raise MetricError("kappa is undefined for empty label lists")
    n = len(labels_a)
    observed = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    categories = sorted(set(labels_a) | set(labels_b), key=str)
    expected = sum(
        (labels_a.count(c) / n) * (labels_b.count(c) / n) for c in categories
    )
    if expected == 1.0:
        raise MetricError("kappa is undefined when both raters are constant and identical")
    return (observed - expected) / (1.0 - expected)


def classification_report(truth: list, predicted: list) -> dict:
    """Per-class precision/recall/F1 in percent, plus macro averages.

    A class never predicted reports precision 0.0 with ``undefined_precision``
    flagged so callers can tell it apart from a genuine zero.
    """
    if len(truth) != len(predicted):
        raise MetricError("label lists must have equal length")
    if not truth:
        raise MetricError("classification report is undefined for empty label lists")
    classes = sorted(set(truth) | set(predicted), key=str)
    per_class = {}
    for cls in classes:
        tp = sum(t == cls and p == cls for t, p in zip(truth, predicted))
        fp = sum(t != cls and p == cls for t, p in zip(truth, predicted))
        fn = sum(t == cls and p != cls for t, p in zip(truth, predicted))
        undefined = (tp + fp) == 0
        precision = 0.0 if undefined else 100.0 * tp / (tp + fp)
        recall = 0.0 if (tp + fn) == 0 else 100.0 * tp / (tp + fn)
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        per_class[cls] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": truth.count(cls),
            "undefined_precision": undefined,
        }
    macro = {
        stat: _mean(per_class[c][stat] for c in classes)
        for stat in ("precision", "recall", "f1")
    }
    return {"classes": per_class, "macro": macro}
