"""Evaluation harness for structurally constrained backend API generation.

Composes constraint-layered generation tasks against a fixed API contract,
statically verifies structural compliance of code patches, behaviorally
tests running servers, and aggregates the resulting metrics. Patch sources
are pluggable, so the whole pipeline runs without any model in the loop.
"""

__version__ = "0.1.0"

from .composer import (
    FRAMEWORKS,
    ConstraintSet,
    Framework,
    TaskSpec,
    enumerate_variants,
    load_feature_task,
    load_task,
    render_prompt,
)
from .diffs import PatchDocument, extract_imports, parse_patch
from .harness import HarnessConfig, PatchProvider, RunRecord, run_campaign
from .metrics import RunScore, assert_pct, cohen_kappa, correlations, marginal_effect, pass_at_k
from .suite import TestCollection, load_collection, poll_health, run_suite
from .verifiers import (
    LayerAliasMap,
    VerifierReport,
    classify_layer,
    structural_compliance,
    verify_architecture,
    verify_database,
    verify_orm,
)

__all__ = [
    "FRAMEWORKS",
    "ConstraintSet",
    "Framework",
    "HarnessConfig",
    "LayerAliasMap",
    "PatchDocument",
    "PatchProvider",
    "RunRecord",
    "RunScore",
    "TaskSpec",
    "TestCollection",
    "VerifierReport",
    "assert_pct",
    "classify_layer",
    "cohen_kappa",
    "correlations",
    "enumerate_variants",
    "extract_imports",
    "load_collection",
    "load_feature_task",
    "load_task",
    "marginal_effect",
    "parse_patch",
    "pass_at_k",
    "poll_health",
    "render_prompt",
    "run_campaign",
    "run_suite",
    "structural_compliance",
    "verify_architecture",
    "verify_database",
    "verify_orm",
]
