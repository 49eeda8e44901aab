#!/usr/bin/env python3
"""Checks that another checkout writes the same RunRecords and report tables.

    python3 tools/same_records.py OTHER_CHECKOUT

Runs one ``workers=1`` campaign from this checkout and then the same one from
OTHER_CHECKOUT, each in its own child process. The two never run at once,
since both lease ports from the same default pool. Each child builds the
campaign with its checkout's ``bench/inputs.py``: the 80 golden tasks at
seed 1, each ``hard_boots`` defect once, and one diff that does not parse.
Then it writes the report tables of each part.

Every record is compared without ``wall_time``, and every other file (the
campaign indexes and the tables) byte for byte. When anything differs, the
tool prints each record key that differs with the number of records it
differs in, then each other file that differs, then the first difference in
detail, and exits 1. Otherwise it prints the counts and exits 0.
"""

import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

THIS_CHECKOUT = Path(__file__).resolve().parents[1]
COMPARED = ("results", "tables")

# Run by the child as ``python3 -I -B -c CAMPAIGN CHECKOUT OUT``: -I ignores
# PYTHON* variables, PYTHONDONTWRITEBYTECODE too, so -B keeps the child from
# writing __pycache__ into either checkout.
CAMPAIGN = r"""
import sys
from pathlib import Path

checkout, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]

from importlib import resources

import inputs
from constraintbench import harness, report, suite

collection = suite.load_collection(
    resources.files("constraintbench").joinpath("assets/collections/conduit.json")
    .read_text(encoding="utf-8")
)
assertions = sum(len(r.assertions) for f in collection.folders for r in f.requests)
golden = inputs.golden_campaign(1, out / "patches" / "golden", assertions)
boots = inputs.hard_boots(1, out / "patches" / "hard_boots", assertions, blocks=1)
broken = out / "patches" / "parse_error"
broken.mkdir(parents=True)
(broken / f"{boots.tasks[0].id}.diff").write_text("diff --git a/x b/x\n@@ nonsense\n")
config = harness.HarnessConfig(workers=1, pg_url=None, workspace_root=str(out / "ws"))
for name, tasks, trials, patches in (
    ("golden", golden.tasks, golden.trials, golden.patches_dir),
    ("hard_boots", boots.tasks, boots.trials, boots.patches_dir),
    ("parse_error", boots.tasks, 1, broken),
):
    results = out / "results" / name
    provider = harness.PatchProvider("recorded_directory", str(patches))
    harness.run_campaign(tasks, provider, trials, collection, config=config,
                         out_dir=results, labels=inputs.LABELS)
    report.write_tables(report.build_report(results), out / "tables" / name)
"""


def run_campaign(checkout: Path, out: Path):
    (out / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    print(f"running the campaign from {checkout}", flush=True)
    child = subprocess.run(
        [sys.executable, "-I", "-B", "-c", CAMPAIGN, str(checkout), str(out)],
        env=env, capture_output=True, text=True,
    )
    if child.returncode != 0:
        sys.exit(f"the campaign from {checkout} failed:\n{child.stderr}")


def files_under(out: Path) -> dict[str, Path]:
    return {
        str(path.relative_to(out)): path
        for part in COMPARED
        for path in sorted((out / part).rglob("*"))
        if path.is_file()
    }


def record_without_wall_time(path: Path) -> dict | None:
    """The record stored at ``path`` minus ``wall_time``; None for other files."""
    if path.suffix != ".json" or path.parts[-3] != "results":
        return None
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "wall_time" not in payload:
        return None
    del payload["wall_time"]
    return payload


def first_line_difference(name: str, ours: bytes, theirs: bytes) -> str:
    """Where two different files first differ, line by line."""
    lines = zip_longest(ours.splitlines(keepends=True), theirs.splitlines(keepends=True))
    number, (here, there) = next(
        (number, pair) for number, pair in enumerate(lines, 1) if pair[0] != pair[1]
    )
    return f"{name} differs at line {number}\n  here:  {here!r:.400}\n  there: {there!r:.400}"


def differences(ours: Path, theirs: Path) -> tuple[list[str], int, int]:
    """The lines that name every difference between two campaign outputs
    (none when they are the same), and the number of records and of other
    files compared."""
    our_files, their_files = files_under(ours), files_under(theirs)
    if set(our_files) != set(their_files):
        only_ours = sorted(set(our_files) - set(their_files))
        only_theirs = sorted(set(their_files) - set(our_files))
        return [f"files only here: {only_ours}; only there: {only_theirs}"], 0, 0
    keys: Counter[str] = Counter()
    files: list[str] = []
    first = None
    records = others = 0
    for name in sorted(our_files):
        our_record = record_without_wall_time(our_files[name])
        if our_record is None:
            others += 1
            ours_bytes, theirs_bytes = our_files[name].read_bytes(), their_files[name].read_bytes()
            if ours_bytes != theirs_bytes:
                files.append(name)
                first = first or first_line_difference(name, ours_bytes, theirs_bytes)
            continue
        records += 1
        their_record = record_without_wall_time(their_files[name]) or {}
        differing = sorted(
            key for key in set(our_record) | set(their_record)
            if our_record.get(key) != their_record.get(key)
        )
        keys.update(differing)
        if differing and first is None:
            key = differing[0]
            first = (
                f"{name}: {key!r} differs\n  here:  {json.dumps(our_record.get(key))[:400]}\n"
                f"  there: {json.dumps(their_record.get(key))[:400]}"
            )
    lines = [
        f"key {key!r} differs in {count} of {records} records"
        for key, count in sorted(keys.items())
    ]
    lines += [f"file {name} differs" for name in files]
    if first is not None:
        lines.append(f"first difference: {first}")
    return lines, records, others


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="same_records-") as scratch:
        ours, theirs = Path(scratch) / "this", Path(scratch) / "other"
        run_campaign(THIS_CHECKOUT, ours)
        run_campaign(other, theirs)
        lines, records, others = differences(ours, theirs)
    if lines:
        print("\n".join(lines))
        return 1
    print(f"same: {records} records apart from wall_time, {others} other files byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
