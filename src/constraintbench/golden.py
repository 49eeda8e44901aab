"""Known-good patches built from the reference server's own sources.

Two variants, both passing the full behavioral suite:

* ``layered``: models/repositories/services/routes directories with strictly
  downward imports, sqlite and ORM evidence included; satisfies all three
  structural verifiers. The end-to-end "everything works" oracle.
* ``monolithic``: the same code flattened into one ``app.py``; behaviorally
  identical but deliberately fails the architecture verifier. The oracle for
  "tests pass, structure does not".

Patches are unified diffs from an empty tree, consumable by the recorded
patch provider and by plain ``git apply``.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

_MODULE_ORDER = ("models.py", "repository.py", "services.py", "routes.py", "server.py")

# Package-relative imports rewritten to the layered tree's namespace dirs.
_LAYERED_REWRITES = {
    "from .models import": "from models.entities import",
    "from .repository import": "from repositories.store import",
    "from .services import": "from services.logic import",
    "from .routes import": "from routes.api import",
}

_LAYERED_PLACEMENT = {
    "models.py": "models/entities.py",
    "repository.py": "repositories/store.py",
    "services.py": "services/logic.py",
    "routes.py": "routes/api.py",
    "server.py": "server.py",
}

_DATABASE_SNIPPET = '''"""SQLite connection bootstrap for the persistence layer."""

import sqlite3

DATABASE_URL = "sqlite:///conduit.db"


def connect(url=DATABASE_URL):
    # in-memory keeps runs hermetic; the URL records the configured engine
    return sqlite3.connect(":memory:")
'''

# unpinned so `pip install -r requirements.txt` is a no-op wherever any
# sqlalchemy is already present; the line itself is the ORM evidence
_REQUIREMENTS = "sqlalchemy\n"

_RUN_SH = "#!/bin/sh\nexec python3 {entry}\n"


def _module_source(name: str) -> str:
    # read as package data: importing the refserver package would load http.server
    return (resources.files("constraintbench") / "refserver" / name).read_text(encoding="utf-8")


def _rewrite_layered(source: str) -> str:
    lines = []
    for line in source.splitlines():
        for old, new in _LAYERED_REWRITES.items():
            if line.startswith(old):
                line = new + line[len(old):]
                break
        lines.append(line)
    return "\n".join(lines) + "\n"


def _strip_relative_imports(source: str) -> str:
    """Drop package-relative import statements, including parenthesized ones."""
    lines = []
    in_import = False
    for line in source.splitlines():
        if in_import:
            if ")" in line:
                in_import = False
            continue
        if line.startswith("from ."):
            if "(" in line and ")" not in line:
                in_import = True
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def layered_files() -> dict[str, tuple[str, bool]]:
    """path -> (content, executable) for the verifier-compliant variant."""
    files = {}
    for module in _MODULE_ORDER:
        files[_LAYERED_PLACEMENT[module]] = (_rewrite_layered(_module_source(module)), False)
    files["repositories/database.py"] = (_DATABASE_SNIPPET, False)
    files["requirements.txt"] = (_REQUIREMENTS, False)
    files["run.sh"] = (_RUN_SH.format(entry="server.py"), True)
    return files


def monolithic_files() -> dict[str, tuple[str, bool]]:
    """path -> (content, executable) for the single-file variant."""
    sections = [_strip_relative_imports(_module_source(m)) for m in _MODULE_ORDER[:-1]]
    sections.append(_DATABASE_SNIPPET)
    sections.append(_strip_relative_imports(_module_source("server.py")))
    files = {
        "app.py": ("\n".join(sections), False),
        "requirements.txt": (_REQUIREMENTS, False),
        "run.sh": (_RUN_SH.format(entry="app.py"), True),
    }
    return files


def files_to_diff(files: dict[str, tuple[str, bool]]) -> str:
    """Render a tree as a unified diff from the empty tree (git-applyable)."""
    chunks = []
    for path in sorted(files):
        content, executable = files[path]
        if not content.endswith("\n"):
            content += "\n"
        lines = content.split("\n")[:-1]
        mode = "100755" if executable else "100644"
        chunk = [
            f"diff --git a/{path} b/{path}",
            f"new file mode {mode}",
            "--- /dev/null",
            f"+++ b/{path}",
            f"@@ -0,0 +1,{len(lines)} @@",
        ]
        chunk.extend("+" + line for line in lines)
        chunks.append("\n".join(chunk))
    return "\n".join(chunks) + "\n"


def golden_patch(variant: str) -> str:
    if variant == "layered":
        return files_to_diff(layered_files())
    if variant == "monolithic":
        return files_to_diff(monolithic_files())
    raise ValueError(f"variant must be layered or monolithic, got {variant!r}")


def write_recorded_tree(directory, assignments: dict[str, str]) -> None:
    """Lay out a recorded-provider directory: task_id -> variant name."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    patches = {variant: golden_patch(variant) for variant in set(assignments.values())}
    for task_id, variant in assignments.items():
        (base / f"{task_id}.diff").write_text(patches[variant], encoding="utf-8")
