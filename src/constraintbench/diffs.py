"""Unified-diff parsing, artifact exclusion, and import extraction.

The verifiers only ever look at lines a patch *adds*, so the parser keeps
added lines (with their line numbers in the post-image) and file paths, and
drops deletions, context, and binary hunks.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import PatchParseError

LOCK_FILES = {
    "package-lock.json",
    "yarn.lock",
    "pnpm-lock.yaml",
    "uv.lock",
    "poetry.lock",
}

EXCLUDED_DIR_COMPONENTS = {"node_modules", "__pycache__", ".venv", "venv"}

_PY_EXTENSIONS = {".py"}
_JS_EXTENSIONS = {".js", ".mjs", ".cjs", ".ts"}

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_DIFF_GIT_RE = re.compile(r'^diff --git (?:"?a/(.*?)"?) (?:"?b/(.*?)"?)\r?$', re.M)

_PY_IMPORT_RE = re.compile(r"^\s*import\s+([A-Za-z_][\w.]*(?:\s*,\s*[A-Za-z_][\w.]*)*)")
_PY_FROM_RE = re.compile(r"^\s*from\s+([.\w]+)\s+import\b")
_JS_REQUIRE_RE = re.compile(r"""\brequire\s*\(\s*['"]([^'"]+)['"]\s*\)""")
_JS_IMPORT_FROM_RE = re.compile(r"""^\s*import\s+[\w{},*\s$]+?\sfrom\s+['"]([^'"]+)['"]""")
_JS_IMPORT_BARE_RE = re.compile(r"""^\s*import\s+['"]([^'"]+)['"]""")


@dataclass
class FileChange:
    """One file's contribution to a patch: its added lines only."""

    path: str
    added_lines: list[tuple[int, str]] = field(default_factory=list)

    @property
    def is_excluded(self) -> bool:
        return is_excluded_path(self.path)

    @property
    def language(self) -> str:
        dot = self.path.rfind(".")
        ext = self.path[dot:] if dot >= 0 else ""
        if ext in _PY_EXTENSIONS:
            return "python"
        if ext in _JS_EXTENSIONS:
            return "javascript"
        return "other"


@dataclass
class PatchDocument:
    files: list[FileChange] = field(default_factory=list)

    def active_files(self) -> list[FileChange]:
        """Files whose paths are not generated artifacts."""
        return [f for f in self.files if not f.is_excluded]

    def to_json(self) -> str:
        payload = {
            "files": [
                {
                    "path": f.path,
                    "language": f.language,
                    "is_excluded": f.is_excluded,
                    "added_lines": [[n, t] for n, t in f.added_lines],
                }
                for f in self.files
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass
class ImportStatement:
    source_file: str
    line_number: int
    target: str


def _strip_prefix(path: str) -> str:
    if path.startswith(("a/", "b/")):
        return path[2:]
    return path


_C_ESCAPE_RE = re.compile(rb'\\([0-3][0-7]{2}|[abtnvfr"\\])')
_C_ESCAPES = {
    b"a": b"\a", b"b": b"\b", b"t": b"\t", b"n": b"\n", b"v": b"\v",
    b"f": b"\f", b"r": b"\r", b'"': b'"', b"\\": b"\\",
}


def _unquote(path: str) -> str:
    """Decode a path git wrote C-quoted: ``"caf\\303\\251.py"`` is ``café.py``.

    Octal escapes are the bytes of the UTF-8 name; bytes that do not decode
    are kept as surrogates rather than raising."""
    if len(path) < 2 or not (path.startswith('"') and path.endswith('"')):
        return path

    def decode(match: re.Match) -> bytes:
        code = match.group(1)
        return bytes([int(code, 8)]) if len(code) == 3 else _C_ESCAPES[code]

    raw = _C_ESCAPE_RE.sub(decode, path[1:-1].encode("utf-8", "surrogateescape"))
    return raw.decode("utf-8", "surrogateescape")


def read_patch(path: Path) -> str:
    """A patch file's text, with no newline translated. Bytes that are not UTF-8 (a patched
    file's) stay as surrogates, as ``_unquote`` keeps them, so they write back unchanged."""
    return path.read_bytes().decode("utf-8", "surrogateescape")


def parse_patch(diff_text: str) -> PatchDocument:
    """Parse a git-compatible unified diff into a PatchDocument.

    Records each ``+`` hunk line under its file with the post-image line
    number. Binary hunks are dropped silently; a malformed ``@@`` header
    raises PatchParseError with the line number.
    """
    files: list[FileChange] = []
    by_path: dict[str, FileChange] = {}
    current: FileChange | None = None
    old_path: str | None = None
    new_line = 0
    remaining_new = 0
    remaining_old = 0
    binary_section = False

    def open_file(path: str) -> FileChange:
        if path in by_path:
            return by_path[path]
        change = FileChange(path=path)
        by_path[path] = change
        files.append(change)
        return change

    # Lines end at "\n" only, as git reads them: "\x0c", "\x85" or a lone
    # "\r" inside a line is content. One trailing "\r" goes, so CRLF parses.
    lines = diff_text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for idx, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        # While a hunk is open, interpret by prefix with line accounting: an
        # added "++ x" or deleted "-- x" line would otherwise masquerade as a
        # file header. The counters say when the hunk is really over.
        if current is not None and (remaining_new > 0 or remaining_old > 0):
            if line.startswith("\\"):
                continue  # "\ No newline at end of file"
            if line.startswith("+"):
                current.added_lines.append((new_line, line[1:]))
                new_line += 1
                remaining_new -= 1
                continue
            if line.startswith("-"):
                remaining_old -= 1
                continue
            if line.startswith(" ") or line == "":
                new_line += 1
                remaining_new -= 1
                remaining_old -= 1
                continue
            # anything else ends the hunk early; reparse the line as a header
            remaining_new = remaining_old = 0

        git_header = _DIFF_GIT_RE.match(line)
        if git_header:
            current = None
            old_path = None
            binary_section = False
            continue
        if line.startswith("Binary files ") or line.startswith("GIT binary patch"):
            binary_section = True
            continue
        if binary_section and not line.startswith(("--- ", "+++ ")):
            continue
        if line.startswith("--- "):
            old_path = line[4:].split("\t")[0].strip()
            continue
        if line.startswith("+++ "):
            raw = line[4:].split("\t")[0].strip()
            if raw == "/dev/null":
                # Deleted file: keep its identity from the old side, no added lines.
                path = _strip_prefix(_unquote(old_path or ""))
            else:
                path = _strip_prefix(_unquote(raw))
            current = open_file(path) if path else None
            binary_section = False
            continue
        if line.startswith("@@"):
            match = _HUNK_RE.match(line)
            if not match:
                raise PatchParseError(f"malformed hunk header: {line!r}", idx)
            if current is None:
                raise PatchParseError("hunk header before any file header", idx)
            remaining_old = int(match.group(2)) if match.group(2) is not None else 1
            new_line = int(match.group(3))
            remaining_new = int(match.group(4)) if match.group(4) is not None else 1

    return PatchDocument(files=files)


def is_excluded_path(path: str) -> bool:
    """Generated-artifact filter: vendored deps, bytecode, databases, lock files."""
    parts = path.split("/")
    if any(part in EXCLUDED_DIR_COMPONENTS for part in parts):
        return True
    name = parts[-1]
    if name in LOCK_FILES:
        return True
    if name.endswith((".db", ".sqlite", ".sqlite3")):
        return True
    return False


def filter_excluded_sections(diff_text: str) -> str:
    """Drop whole per-file sections for excluded paths, byte-faithfully otherwise.

    A section starts at a ``diff --git`` header at the start of a line, a line
    ending at "\n" only; with no section excluded the input comes back as is.
    Used at patch-extraction time so generated artifacts never even reach the
    stored diff; ``FileChange.is_excluded``, read from the same path rule,
    stays as a second guard for every verifier.
    """
    sections = [
        (header.start(), is_excluded_path(header.group(2)))
        for header in _DIFF_GIT_RE.finditer(diff_text)
    ]
    if not any(excluded for _, excluded in sections):
        return diff_text
    ends = [start for start, _ in sections[1:]] + [len(diff_text)]
    kept = [diff_text[: sections[0][0]]]
    kept += [diff_text[start:end] for (start, excluded), end in zip(sections, ends) if not excluded]
    return "".join(kept)


def extract_imports(change: FileChange) -> list[ImportStatement]:
    """Scan a file's added lines for single-line import constructs.

    Matches Python ``import``/``from ... import`` and JavaScript
    ``require()``/``import ... from``; anything else is ignored.
    """
    language = change.language
    if language not in ("python", "javascript"):
        return []
    found: list[ImportStatement] = []
    for line_number, text in change.added_lines:
        if language == "python":
            from_match = _PY_FROM_RE.match(text)
            if from_match:
                found.append(ImportStatement(change.path, line_number, from_match.group(1)))
                continue
            import_match = _PY_IMPORT_RE.match(text)
            if import_match:
                for target in import_match.group(1).split(","):
                    target = target.strip().split(" ")[0]
                    if target:
                        found.append(ImportStatement(change.path, line_number, target))
        else:
            for match in _JS_REQUIRE_RE.finditer(text):
                found.append(ImportStatement(change.path, line_number, match.group(1)))
            from_match = _JS_IMPORT_FROM_RE.match(text)
            if from_match:
                found.append(ImportStatement(change.path, line_number, from_match.group(1)))
            else:
                bare = _JS_IMPORT_BARE_RE.match(text)
                if bare:
                    found.append(ImportStatement(change.path, line_number, bare.group(1)))
    return found
