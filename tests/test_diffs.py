import difflib

import pytest
from hypothesis import given, strategies as st

from constraintbench.diffs import (
    FileChange,
    extract_imports,
    filter_excluded_sections,
    is_excluded_path,
    parse_patch,
)
from constraintbench.errors import PatchParseError
from constraintbench.golden import files_to_diff

from conftest import run_git, write_tree


def test_empty_diff():
    doc = parse_patch("")
    assert doc.files == []


def test_single_file_three_added_lines():
    diff = files_to_diff({"pkg/mod.py": ("one\ntwo\nthree\n", False)})
    doc = parse_patch(diff)
    assert len(doc.files) == 1
    change = doc.files[0]
    assert change.path == "pkg/mod.py"
    assert change.added_lines == [(1, "one"), (2, "two"), (3, "three")]
    assert change.language == "python"


def test_context_and_deletions_ignored():
    diff = (
        "diff --git a/x.py b/x.py\n"
        "--- a/x.py\n"
        "+++ b/x.py\n"
        "@@ -1,4 +1,4 @@\n"
        " keep\n"
        "-gone\n"
        "+fresh\n"
        " keep2\n"
        " keep3\n"
    )
    doc = parse_patch(diff)
    assert doc.files[0].added_lines == [(2, "fresh")]


def test_deleted_file_keeps_identity_no_lines():
    diff = (
        "diff --git a/dead.py b/dead.py\n"
        "deleted file mode 100644\n"
        "--- a/dead.py\n"
        "+++ /dev/null\n"
        "@@ -1,2 +0,0 @@\n"
        "-a\n"
        "-b\n"
    )
    doc = parse_patch(diff)
    assert doc.files[0].path == "dead.py"
    assert doc.files[0].added_lines == []


def test_malformed_hunk_header_raises_with_line():
    diff = "--- a/x\n+++ b/x\n@@ bogus @@\n+line\n"
    with pytest.raises(PatchParseError) as excinfo:
        parse_patch(diff)
    assert excinfo.value.line_number == 3


def test_binary_hunk_dropped_silently():
    diff = (
        "diff --git a/img.png b/img.png\n"
        "Binary files /dev/null and b/img.png differ\n"
        "diff --git a/ok.py b/ok.py\n"
        "--- /dev/null\n"
        "+++ b/ok.py\n"
        "@@ -0,0 +1,1 @@\n"
        "+x = 1\n"
    )
    doc = parse_patch(diff)
    assert [f.path for f in doc.files] == ["ok.py"]


def _difflib_insertions(old: str, new: str):
    old_lines = old.splitlines()
    new_lines = new.splitlines()
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    inserted = []
    for tag, _, _, j1, j2 in matcher.get_opcodes():
        if tag in ("insert", "replace"):
            for j in range(j1, j2):
                inserted.append((j + 1, new_lines[j]))
    return inserted


def test_git_diff_roundtrip_matches_difflib_oracle(git_repo, tmp_path):
    # All lines unique so every minimal diff identifies the same insertion set.
    base = {
        "app/a.py": "".join(f"alpha_{i} = {i}\n" for i in range(10)),
        "notes.txt": "first note\nsecond note\n",
    }
    write_tree(git_repo, base)
    run_git(["add", "-A"], git_repo)
    run_git(["commit", "-q", "-m", "base"], git_repo)

    edited = {
        "app/a.py": (
            "alpha_0 = 0\nNEW_TOP = 'inserted-1'\n"
            + "".join(f"alpha_{i} = {i}\n" for i in range(1, 7))
            + "NEW_MID = 'inserted-2'\n"
            + "".join(f"alpha_{i} = {i}\n" for i in range(7, 10))
        ),
        "notes.txt": "first note\nsecond note\nthird brand new note\n",
        "app/new_module.py": "from app.a import alpha_0\nvalue = alpha_0\n",
        # git C-quotes a non-ASCII name and tab-terminates one with a space
        "café.py": "naive = 'caf\u00e9'\n",
        "a b.py": "spaced = True\n",
    }
    write_tree(git_repo, edited)
    run_git(["config", "core.quotePath", "true"], git_repo)
    run_git(["add", "-A"], git_repo)
    diff = run_git(["diff", "--cached", "--no-color", "HEAD"], git_repo)
    assert '+++ "b/caf\\303\\251.py"' in diff
    assert "+++ b/a b.py\t" in diff

    doc = parse_patch(diff)
    assert sorted(f.path for f in doc.files) == sorted(edited)
    parsed = {f.path: f.added_lines for f in doc.files}
    for path, new_content in edited.items():
        expected = _difflib_insertions(base.get(path, ""), new_content)
        assert parsed[path] == expected, path

    # Cross-check: applying the same diff to a pristine base reproduces the tree.
    replay = tmp_path / "replay"
    replay.mkdir()
    run_git(["init", "-q"], replay)
    write_tree(replay, base)
    patch_file = tmp_path / "the.diff"
    patch_file.write_text(diff)
    run_git(["apply", str(patch_file)], replay)
    for path, new_content in edited.items():
        assert (replay / path).read_text() == new_content


def test_hunk_lines_that_look_like_headers(git_repo, tmp_path):
    """Adding a file that itself contains diff syntax must not derail parsing:
    '+++ x' as added content and '--- y' as deleted content are hunk lines,
    not file headers, while the hunk's line budget lasts."""
    base = {"notes.diff": "--- keep me\n-- old marker\nplain line\n"}
    write_tree(git_repo, base)
    run_git(["add", "-A"], git_repo)
    run_git(["commit", "-q", "-m", "base"], git_repo)

    edited = {
        "notes.diff": "--- keep me\n++ new marker\nplain line\n@@ fake hunk @@\n",
    }
    write_tree(git_repo, edited)
    run_git(["add", "-A"], git_repo)
    diff = run_git(["diff", "--cached", "--no-color", "HEAD"], git_repo)
    # sanity: the raw diff really contains the ambiguous forms
    assert "\n--- old marker" in diff or "\n--- keep me" in diff
    assert "\n+++ new marker" in diff

    doc = parse_patch(diff)
    assert [f.path for f in doc.files] == ["notes.diff"]
    added = doc.files[0].added_lines
    expected = _difflib_insertions(base["notes.diff"], edited["notes.diff"])
    assert added == expected
    assert (2, "++ new marker") in added
    assert (4, "@@ fake hunk @@") in added

    # and the whole thing still applies cleanly
    replay = tmp_path / "replay"
    replay.mkdir()
    run_git(["init", "-q"], replay)
    write_tree(replay, base)
    patch_file = tmp_path / "tricky.diff"
    patch_file.write_text(diff)
    run_git(["apply", str(patch_file)], replay)
    assert (replay / "notes.diff").read_text() == edited["notes.diff"]


def test_pure_deletion_hunk_then_next_file():
    diff = (
        "diff --git a/gone.py b/gone.py\n"
        "--- a/gone.py\n"
        "+++ b/gone.py\n"
        "@@ -1,2 +1,0 @@\n"
        "-first\n"
        "-second\n"
        "diff --git a/kept.py b/kept.py\n"
        "--- /dev/null\n"
        "+++ b/kept.py\n"
        "@@ -0,0 +1,1 @@\n"
        "+value = 1\n"
    )
    doc = parse_patch(diff)
    assert [f.path for f in doc.files] == ["gone.py", "kept.py"]
    assert doc.files[0].added_lines == []
    assert doc.files[1].added_lines == [(1, "value = 1")]


@pytest.mark.parametrize(
    "path,excluded",
    [
        ("node_modules/pg/index.js", True),
        ("api/node_modules/x.js", True),
        ("app/__pycache__/mod.cpython-312.pyc", True),
        ("package-lock.json", True),
        ("sub/dir/yarn.lock", True),
        ("pnpm-lock.yaml", True),
        ("uv.lock", True),
        ("poetry.lock", True),
        ("data/conduit.db", True),
        ("db.sqlite3", True),
        ("data/conduit.sqlite", True),
        (".venv/bin/activate", True),
        ("api/venv/lib/python3.11/site.py", True),
        ("src/routes/articles.py", False),
        ("src/venv_tools.py", False),
        ("docs/sqlite3.md", False),
        ("requirements.txt", False),
        ("package.json", False),
        ("locksmith.py", False),
        ("dbutils.py", False),
    ],
)
def test_exclusion_rules(path, excluded):
    assert is_excluded_path(path) is excluded
    assert FileChange(path=path, added_lines=[(1, "x")]).is_excluded is excluded


def test_exclusion_is_purely_path_based():
    sneaky = FileChange(path="src/ok.py", added_lines=[(1, "import sqlite3  # node_modules")])
    assert sneaky.is_excluded is False


def test_filter_excluded_sections_drops_whole_files():
    diff = files_to_diff(
        {
            "node_modules/pg/index.js": ("module.exports = {};\n", False),
            "src/app.js": ("const x = 1;\n", False),
        }
    )
    filtered = filter_excluded_sections(diff)
    assert "node_modules" not in filtered
    assert "src/app.js" in filtered
    # What survives is byte-identical to a diff never containing the excluded file.
    assert filtered == files_to_diff({"src/app.js": ("const x = 1;\n", False)})


def test_filter_finds_headers_only_at_the_start_of_a_line():
    # "\x85" ends a line for str.splitlines but not for git, so this added
    # line is content, not the header of an excluded section.
    sneaky = "s = '\x85diff --git a/node_modules/m.js b/node_modules/m.js'\nt = 2\n"
    kept = {"src/a.py": (sneaky, False), "src/b.py": ("y = 2\n", False)}
    diff = files_to_diff(kept)
    assert filter_excluded_sections(diff) is diff
    with_excluded = files_to_diff({**kept, "node_modules/pg/index.js": ("x;\n", False)})
    assert filter_excluded_sections(with_excluded) == diff


def test_crlf_diff_parses_and_filters_like_lf():
    files = {
        "src/app.py": ("import os\nx = 1\n", False),
        "package-lock.json": ("{}\n", False),
        "node_modules/m.js": ("m;\n", False),
    }
    lf = files_to_diff(files)
    crlf = lf.replace("\n", "\r\n")
    assert parse_patch(crlf).to_json() == parse_patch(lf).to_json()
    assert parse_patch(crlf).files[-1].added_lines == [(1, "import os"), (2, "x = 1")]
    kept = files_to_diff({"src/app.py": files["src/app.py"]})
    assert filter_excluded_sections(lf) == kept
    assert filter_excluded_sections(crlf) == kept.replace("\n", "\r\n")


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028", "\r", "\x1c"])
def test_lines_end_at_newline_only_as_git_applies_them(separator, git_repo, tmp_path):
    added = [f"x = 1{separator}", f"y = 2{separator}# note", "from repositories import store"]
    diff = (
        "diff --git a/app.py b/app.py\nnew file mode 100644\n--- /dev/null\n+++ b/app.py\n"
        "@@ -0,0 +1,3 @@\n" + "".join(f"+{line}\n" for line in added)
    )
    patch_file = tmp_path / "the.diff"
    patch_file.write_bytes(diff.encode("utf-8"))
    run_git(["apply", str(patch_file)], git_repo)
    written = (git_repo / "app.py").read_bytes().decode("utf-8").split("\n")[:-1]
    parsed = [text for _, text in parse_patch(diff).files[0].added_lines]
    assert written == added
    # one trailing "\r" is read as the line ending of a CRLF diff
    assert parsed == [line.removesuffix("\r") for line in written]


@pytest.mark.parametrize(
    "line,target",
    [
        ("from app.services.articles import ArticleService", "app.services.articles"),
        ("import os", "os"),
        ("import os, sys", "os"),
        ("import sqlalchemy as sa", "sqlalchemy"),
        ("from .models import User", ".models"),
        ("    from repositories.store import Store", "repositories.store"),
    ],
)
def test_python_import_extraction(line, target):
    change = FileChange(path="app/x.py", added_lines=[(1, line)])
    targets = [s.target for s in extract_imports(change)]
    assert target in targets


@pytest.mark.parametrize(
    "line,target",
    [
        ("const repo = require('../repositories/userRepo')", "../repositories/userRepo"),
        ("import { db } from './models/index.js'", "./models/index.js"),
        ('import express from "express"', "express"),
        ("import 'reflect-metadata'", "reflect-metadata"),
        ("import * as path from 'path'", "path"),
    ],
)
def test_javascript_import_extraction(line, target):
    change = FileChange(path="src/x.js", added_lines=[(1, line)])
    targets = [s.target for s in extract_imports(change)]
    assert targets == [target]


def test_non_import_lines_ignored():
    change = FileChange(
        path="src/x.py",
        added_lines=[(1, "x = 1"), (2, "# import nothing really"), (3, "print('from x import y')")],
    )
    assert extract_imports(change) == []


def test_other_language_files_not_scanned():
    change = FileChange(path="README.md", added_lines=[(1, "import everything")])
    assert extract_imports(change) == []


# content alphabet stresses the prefix-ambiguous forms on purpose
_TRICKY_LINE = st.text(alphabet="+- @al1.", max_size=12).filter(
    lambda s: "\r" not in s
)


@given(
    st.dictionaries(
        st.from_regex(r"[a-z]{1,8}(/[a-z]{1,8})?\.(py|js|txt)", fullmatch=True),
        st.lists(_TRICKY_LINE, min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    )
)
def test_generated_diff_parses_back_to_exact_content(tree):
    rendered = {
        path: ("\n".join(lines) + "\n", False) for path, lines in tree.items()
    }
    doc = parse_patch(files_to_diff(rendered))
    parsed = {f.path: f.added_lines for f in doc.files}
    assert set(parsed) == set(tree)
    for path, lines in tree.items():
        assert parsed[path] == [(i + 1, line) for i, line in enumerate(lines)], path
