"""Static structural verifiers over a patch's added lines.

Three independent, pattern-based checks: layered-architecture compliance
(layer presence + dependency direction), database-engine evidence, and ORM
evidence. All of them read only the added lines of non-excluded files; no
code is ever executed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources

from .diffs import PatchDocument, extract_imports

LAYER_RANKS = {"models": 0, "repositories": 1, "services": 2, "routes": 3}

_SHIPPED_ALIASES = json.loads(resources.files(__package__).joinpath("assets/aliases.json").read_text())


@dataclass
class LayerAliasMap:
    """Directory-name token -> canonical layer, matched case-insensitively."""

    aliases: dict[str, str] = field(default_factory=lambda: dict(_SHIPPED_ALIASES))

    def __post_init__(self):
        self.aliases = {token.lower(): layer for token, layer in self.aliases.items()}
        for layer in self.aliases.values():
            if layer not in LAYER_RANKS:
                raise ValueError(f"unknown layer {layer!r}")

    def layer_for(self, token: str) -> str | None:
        return self.aliases.get(token.lower())

    @classmethod
    def from_file(cls, path) -> "LayerAliasMap":
        with open(path, encoding="utf-8") as handle:
            return cls(aliases=json.load(handle))


def classify_layer(path: str, aliases: LayerAliasMap) -> str | None:
    """First directory component (left to right) matching an alias wins."""
    for component in path.split("/")[:-1]:
        layer = aliases.layer_for(component)
        if layer is not None:
            return layer
    return None


def resolve_import_layer(target: str, aliases: LayerAliasMap) -> str | None:
    """Last alias-matching component of a dotted/path import target wins."""
    components = [c for c in re.split(r"[./]", target) if c and c != ".."]
    for component in reversed(components):
        layer = aliases.layer_for(component)
        if layer is not None:
            return layer
    return None


@dataclass
class VerifierReport:
    axis: str
    compliant: bool
    evidence: list[tuple[str, int, str, str]] = field(default_factory=list)
    violations: list[tuple[str, str, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "compliant": self.compliant,
            "evidence": [
                {"path": p, "line": n, "match": m, "tag": t} for p, n, m, t in self.evidence
            ],
            "violations": [
                {"description": d, "path": p, "line": n} for d, p, n in self.violations
            ],
        }


# Evidence per database engine and ORM as (tag, regex, scope, needles). Scopes:
# "any" = every scanned line (case-insensitive); "package_json" = package.json
# only, case-sensitive (npm names are); "python_dep_file" = requirements/
# pyproject/Pipfile/setup files. A needle is a literal that the regex cannot
# match without (several: one of them), written in lowercase; a row whose
# needles are all absent from a file's lowercased added text is not run on it.
_ANY = "any"
_PKG_JSON = "package_json"
_PY_DEP = "python_dep_file"


def _compiled(*patterns: tuple[str, str, str, tuple[str, ...]]):
    return [
        (tag, re.compile(regex, 0 if scope == _PKG_JSON else re.IGNORECASE), scope, needles)
        for tag, regex, scope, needles in patterns
    ]


EVIDENCE_PATTERNS = {
    "sqlite": _compiled(
        ("sqlite3-import", r"\b(?:import|from)\s+sqlite3\b", _ANY, ("sqlite3",)),
        ("aiosqlite-import", r"\b(?:import|from)\s+aiosqlite\b", _ANY, ("aiosqlite",)),
        ("sqlite-url", r"\bsqlite(?:\+\w+)?://", _ANY, ("sqlite",)),
        ("django-sqlite-backend", r"django\.db\.backends\.sqlite3", _ANY,
         ("django.db.backends.sqlite3",)),
        ("node-sqlite-require", r"""require\s*\(\s*['"](?:better-)?sqlite3['"]\s*\)""", _ANY,
         ("sqlite3",)),
        ("node-sqlite-import", r"""from\s+['"](?:better-)?sqlite3['"]""", _ANY, ("sqlite3",)),
        ("pkg-dep-sqlite", r'"(?:better-)?sqlite3"\s*:', _PKG_JSON, ('sqlite3"',)),
        ("sequelize-dialect-sqlite", r"""dialect\s*:\s*['"]sqlite['"]""", _ANY, ("dialect",)),
    ),
    "postgres": _compiled(
        ("psycopg-asyncpg-import", r"\b(?:import|from)\s+(?:psycopg2?|asyncpg)\b", _ANY,
         ("psycopg", "asyncpg")),
        ("postgres-url", r"\bpostgres(?:ql)?(?:\+\w+)?://", _ANY, ("postgres",)),
        ("sqlalchemy-pg-dialect", r"sqlalchemy\.dialects\.postgresql", _ANY,
         ("sqlalchemy.dialects.postgresql",)),
        ("django-postgres-backend", r"django\.db\.backends\.postgresql", _ANY,
         ("django.db.backends.postgresql",)),
        ("node-pg-require", r"""require\s*\(\s*['"]pg(?:-promise)?['"]\s*\)""", _ANY, ("pg",)),
        ("node-pg-import", r"""from\s+['"]pg(?:-promise)?['"]""", _ANY, ("pg",)),
        ("pkg-dep-pg", r'"pg(?:-promise)?"\s*:', _PKG_JSON, ('"pg',)),
        ("sequelize-dialect-postgres", r"""dialect\s*:\s*['"]postgres(?:ql)?['"]""", _ANY,
         ("dialect",)),
        ("postgres-host", r"@postgres\b", _ANY, ("@postgres",)),
        ("postgres-host", r"""\bhost\s*[=:]\s*['"]?postgres['"]?\b""", _ANY, ("postgres",)),
    ),
    "sqlalchemy": _compiled(
        ("sqlalchemy-import", r"^\s*import\s+sqlalchemy\b", _ANY, ("sqlalchemy",)),
        ("sqlalchemy-from-import", r"^\s*from\s+sqlalchemy(?:\.\w+)*\s+import\b", _ANY,
         ("sqlalchemy",)),
        ("dep-file-sqlalchemy", r"sqlalchemy", _PY_DEP, ("sqlalchemy",)),
    ),
    "sequelize": _compiled(
        ("sequelize-require", r"""require\s*\(\s*['"]sequelize['"]\s*\)""", _ANY, ("sequelize",)),
        ("sequelize-import", r"""import\s+.*\bfrom\s+['"]sequelize['"]""", _ANY, ("sequelize",)),
        ("sequelize-new", r"new\s+Sequelize\s*\(", _ANY, ("sequelize",)),
        ("pkg-dep-sequelize", r'"sequelize"\s*:', _PKG_JSON, ('"sequelize"',)),
    ),
}

_PY_DEP_NAMES = re.compile(r"^(requirements[\w.-]*\.txt|pyproject\.toml|Pipfile|setup\.py|setup\.cfg)$")

_DJANGO_BACKEND_TAGS = {"django-sqlite-backend", "django-postgres-backend"}


def _scope_matches(scope: str, path: str) -> bool:
    name = path.rsplit("/", 1)[-1]
    if scope == _ANY:
        return True
    if scope == _PKG_JSON:
        return name == "package.json"
    if scope == _PY_DEP:
        return bool(_PY_DEP_NAMES.match(name))
    return False


def _scan(patch: PatchDocument, patterns: list[tuple[str, re.Pattern, str, tuple[str, ...]]]):
    """Yield (path, line_number, matched_text, tag) for every pattern hit."""
    hits = []
    for change in patch.active_files():
        applicable = [row for row in patterns if _scope_matches(row[2], change.path)]
        if not applicable:
            continue
        added = "\n".join(line for _, line in change.added_lines)
        # Only on ASCII text does ``str.lower`` agree with re.IGNORECASE,
        # which also folds "ſ", "ı" and the Kelvin sign onto ASCII letters.
        if added.isascii():
            added = added.lower()
            applicable = [row for row in applicable if any(n in added for n in row[3])]
        for line_number, text in change.added_lines:
            for tag, regex, _, _ in applicable:
                match = regex.search(text)
                if match:
                    hits.append((change.path, line_number, match.group(0), tag))
    return hits


def _is_django_settings(path: str) -> bool:
    parts = path.split("/")
    name = parts[-1]
    return (name.startswith("settings") and name.endswith(".py")) or "settings" in parts[:-1]


def _forgive_django_override(expected_hits, alt_hits, expected: str):
    """Django settings files: the last DATABASES engine assignment wins.

    If the final backend-string line in a settings file names the expected
    engine, earlier alternative-backend lines in that same file are dropped.
    """
    expected_tag = f"django-{expected}-backend"
    by_file: dict[str, list[tuple[int, str]]] = {}
    for path, line, _, tag in expected_hits + alt_hits:
        if tag in _DJANGO_BACKEND_TAGS and _is_django_settings(path):
            by_file.setdefault(path, []).append((line, tag))
    forgiven_files = set()
    for path, entries in by_file.items():
        entries.sort()
        if entries[-1][1] == expected_tag:
            forgiven_files.add(path)
    return [
        hit
        for hit in alt_hits
        if not (hit[3] in _DJANGO_BACKEND_TAGS and hit[0] in forgiven_files)
    ]


def verify_database(patch: PatchDocument, expected: str) -> VerifierReport:
    """Expected-engine evidence must be present and the alternative absent."""
    if expected not in ("sqlite", "postgres"):
        raise ValueError(f"expected engine must be sqlite or postgres, got {expected!r}")
    alternative = "postgres" if expected == "sqlite" else "sqlite"
    expected_hits = _scan(patch, EVIDENCE_PATTERNS[expected])
    alt_hits = _scan(patch, EVIDENCE_PATTERNS[alternative])
    alt_hits = _forgive_django_override(expected_hits, alt_hits, expected)

    violations = [
        (f"alternative database evidence ({tag}): {match}", path, line)
        for path, line, match, tag in alt_hits
    ]
    if not expected_hits:
        violations.append((f"no {expected} evidence found in added lines", "", 0))
    return VerifierReport(
        axis="database",
        compliant=bool(expected_hits) and not alt_hits,
        evidence=expected_hits,
        violations=violations,
    )


def verify_orm(patch: PatchDocument, expected: str) -> VerifierReport:
    """At least one expected-ORM evidence hit; alternative ORMs are not penalized."""
    if expected not in ("sqlalchemy", "sequelize"):
        raise ValueError(f"expected ORM must be sqlalchemy or sequelize, got {expected!r}")
    hits = _scan(patch, EVIDENCE_PATTERNS[expected])
    violations = []
    if not hits:
        violations.append((f"no {expected} evidence found in added lines", "", 0))
    return VerifierReport(
        axis="orm", compliant=bool(hits), evidence=hits, violations=violations
    )


def verify_architecture(
    patch: PatchDocument,
    aliases: LayerAliasMap | None = None,
) -> VerifierReport:
    """Layer presence (>= 3 of 4 as directories) plus strict downward imports."""
    aliases = aliases or LayerAliasMap()
    evidence: list[tuple[str, int, str, str]] = []
    violations: list[tuple[str, str, int]] = []

    present: dict[str, str] = {}
    classified: list[tuple[str, object]] = []
    for change in patch.active_files():
        layer = classify_layer(change.path, aliases)
        if layer is None:
            continue
        classified.append((layer, change))
        if layer not in present:
            present[layer] = change.path
            token = next(
                c for c in change.path.split("/")[:-1] if aliases.layer_for(c) == layer
            )
            evidence.append((change.path, 0, token, f"layer:{layer}"))

    for layer, change in classified:
        rank = LAYER_RANKS[layer]
        for stmt in extract_imports(change):
            target_layer = resolve_import_layer(stmt.target, aliases)
            if target_layer is None:
                continue
            if rank < LAYER_RANKS[target_layer]:
                violations.append(
                    (
                        f"{layer} imports {target_layer} ({stmt.target})",
                        stmt.source_file,
                        stmt.line_number,
                    )
                )

    if len(present) < 3:
        violations.append(
            (f"only {len(present)} of 4 canonical layers present as directories (need >= 3)", "", 0)
        )
    return VerifierReport(
        axis="architecture",
        compliant=len(present) >= 3 and not violations,
        evidence=evidence,
        violations=violations,
    )


def structural_compliance(task, patch: PatchDocument, aliases: LayerAliasMap | None = None):
    """Run exactly the verifiers the task's constraints make applicable.

    Returns (overall, reports); an unconstrained task trivially complies.
    """
    reports: list[VerifierReport] = []
    constraints = task.constraints
    if constraints.architecture:
        reports.append(verify_architecture(patch, aliases))
    if constraints.database != "none":
        reports.append(verify_database(patch, constraints.database))
    if constraints.orm:
        reports.append(verify_orm(patch, task.framework.orm_name.lower()))
    return all(r.compliant for r in reports), reports
