"""Two-level failure taxonomy: data model, evidence assembly, aggregation.

The judge that assigns labels is an interface; only a rule-based stub ships.
Anything that can read an EvidenceBundle and return a FailureLabel plugs in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import MetricError, NotAFailureError
from .harness import OUTCOMES
from .metrics import classification_report, cohen_kappa

COARSE_CATEGORIES = (
    "logic_error",
    "server_startup_failure",
    "incomplete_implementation",
    "schema_format_error",
    "stuck_in_loop",
    "constraint_violation",
)

LOGIC_SUBCATEGORIES = (
    "framework_idiosyncrasy",
    "incorrect_query_logic",
    "database_runtime_error",
    "auth_misconfiguration",
    "business_logic_defect",
    "state_propagation_failure",
)


@dataclass
class FailureLabel:
    run_id: str
    coarse: str
    sub: str | None = None
    rationale: str = ""
    source: str = "judge"  # judge | human

    def __post_init__(self):
        if self.coarse not in COARSE_CATEGORIES:
            raise ValueError(f"unknown coarse category {self.coarse!r}")
        if (self.sub is not None) != (self.coarse == "logic_error"):
            raise ValueError("sub category present iff coarse is logic_error")
        if self.sub is not None and self.sub not in LOGIC_SUBCATEGORIES:
            raise ValueError(f"unknown logic subcategory {self.sub!r}")
        if self.source not in ("judge", "human"):
            raise ValueError(f"source must be judge or human, got {self.source!r}")

    def to_dict(self) -> dict:
        payload = {"run_id": self.run_id, "coarse": self.coarse,
                   "rationale": self.rationale, "source": self.source}
        if self.sub is not None:
            payload["sub"] = self.sub
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FailureLabel":
        return cls(
            run_id=payload["run_id"],
            coarse=payload["coarse"],
            sub=payload.get("sub"),
            rationale=payload.get("rationale", ""),
            source=payload.get("source", "judge"),
        )


def load_labels(path) -> list[FailureLabel]:
    """Read labels from a JSON-lines file."""
    labels = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                labels.append(FailureLabel.from_dict(json.loads(line)))
    return labels


def save_labels(labels: list[FailureLabel], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for label in labels:
            handle.write(json.dumps(label.to_dict(), sort_keys=True) + "\n")


@dataclass
class EvidenceBundle:
    run_digest: dict
    last_turns: list = field(default_factory=list)
    test_summary: dict = field(default_factory=dict)
    server_log_tail: str = ""
    verifier_summary: str = ""


def assemble_evidence(run, trajectory: list | None = None, n_turns: int = 20) -> EvidenceBundle:
    """Bounded evidence for one failed run; raises on a passing run.

    ``run`` is a RunRecord or its dict form; ``trajectory`` is the agent's
    turn list when one exists (recorded providers have none).
    """
    record = run.to_dict() if hasattr(run, "to_dict") else dict(run)
    if record.get("full_pass"):
        raise NotAFailureError(f"run {record.get('task_id')} passed; nothing to classify")

    suite = record.get("suite", {})
    per_folder = {
        folder: {"passed": passed, "total": total}
        for folder, (passed, total) in suite.get("folders", {}).items()
    }

    verifier_bits = []
    for report in record.get("verifier_reports", []):
        state = "compliant" if report["compliant"] else (
            f"non-compliant ({len(report['violations'])} violation(s))"
        )
        verifier_bits.append(f"{report['axis']}: {state}")

    log_lines = (record.get("logs") or "").splitlines()[-50:]
    return EvidenceBundle(
        run_digest={
            "run_id": f"{record.get('task_id')}_t{record.get('trial')}",
            "outcome": record.get("outcome"),
            "structurally_compliant": record.get("structurally_compliant"),
            "assertions_passed": suite.get("assertions_passed"),
            "assertions_total": suite.get("assertions_total"),
        },
        last_turns=list(trajectory or [])[-n_turns:],
        test_summary=per_folder,
        server_log_tail="\n".join(log_lines)[-4000:],
        verifier_summary="; ".join(verifier_bits),
    )


def rule_based_judge(evidence: EvidenceBundle) -> FailureLabel:
    """Deliberately simple stand-in for an LLM judge; enough to test plumbing."""
    digest = evidence.run_digest
    run_id = digest.get("run_id", "unknown")
    stages, _ = OUTCOMES[digest["outcome"]]
    if stages < 1:
        return FailureLabel(run_id, "incomplete_implementation", rationale="patch never applied")
    if stages < 3:
        return FailureLabel(run_id, "server_startup_failure", rationale="health check never passed")
    passed = digest.get("assertions_passed") or 0
    total = digest.get("assertions_total") or 0
    if total and passed == total and not digest.get("structurally_compliant"):
        return FailureLabel(run_id, "constraint_violation", rationale="tests pass, verifier fails")
    if passed == 0:
        return FailureLabel(run_id, "schema_format_error", rationale="no assertion passed")
    return FailureLabel(
        run_id, "logic_error", sub="business_logic_defect",
        rationale="server up but behavior deviates",
    )


def aggregate_taxonomy(labels: list[FailureLabel]) -> dict:
    """Coarse shares over all failed runs; subcategory shares over logic errors."""
    coarse: dict[str, dict] = {}
    sub: dict[str, dict] = {}
    total = len(labels)
    logic = [label for label in labels if label.coarse == "logic_error"]
    for category in COARSE_CATEGORIES:
        count = sum(label.coarse == category for label in labels)
        if count:
            coarse[category] = {"count": count, "pct": 100.0 * count / total}
    for category in LOGIC_SUBCATEGORIES:
        count = sum(label.sub == category for label in logic)
        if count:
            sub[category] = {"count": count, "pct": 100.0 * count / len(logic)}
    return {
        "failed_runs": total,
        "logic_errors": len(logic),
        "coarse": coarse,
        "sub": sub,
    }


def validate_judge(judge: list[FailureLabel], human: list[FailureLabel]):
    """(accuracy %, kappa, classification report) over aligned subcategory labels."""
    judge_ids = {label.run_id for label in judge}
    human_ids = {label.run_id for label in human}
    if judge_ids != human_ids:
        only_judge = sorted(judge_ids - human_ids)
        only_human = sorted(human_ids - judge_ids)
        raise MetricError(
            f"run_id sets differ; only in judge: {only_judge}, only in human: {only_human}"
        )
    judge_by_id = {label.run_id: label for label in judge}
    human_by_id = {label.run_id: label for label in human}
    ids = sorted(judge_ids)
    judge_values = [judge_by_id[i].sub or judge_by_id[i].coarse for i in ids]
    human_values = [human_by_id[i].sub or human_by_id[i].coarse for i in ids]
    agreement = sum(j == h for j, h in zip(judge_values, human_values))
    accuracy = 100.0 * agreement / len(ids)
    kappa = cohen_kappa(human_values, judge_values)
    report = classification_report(human_values, judge_values)
    return accuracy, kappa, report
