#!/usr/bin/env python3
"""Campaign benchmark for constraintbench.

Run from the repository root, which must hold the package sources in src/:

    python3 bench/run.py --workload golden_campaign --seed 1 --seconds 20 --trace 0

Workloads are golden_campaign and hard_boots (see bench/NOTES.md). The
inputs follow from --seed alone. --trace 0 measures
with tracing off and reports the end-to-end metrics; --trace 1 measures once
untraced and once with a span around every layer call, and reports the
per-layer metrics and the tracing overhead. Names and units of both sets
come from BENCHMARK.json.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Every
run's verdict is checked against the workload's oracle; a wrong verdict
makes ``correct`` false and is named with its cause above the JSON line.
Exit code 2 means the workload could not run as defined and nothing was
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CANNOT_RUN = 2


def _use_checkout_sources() -> str | None:
    """Import the package from this checkout's src/, never from elsewhere;
    returns why that is impossible, if it is."""
    if not (SRC / "constraintbench" / "__init__.py").is_file():
        return f"no constraintbench sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import constraintbench

    if Path(constraintbench.__file__).resolve().parent != SRC / "constraintbench":
        return f"constraintbench was imported from {constraintbench.__file__}"
    return None


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse_args(argv, [w["name"] for w in spec["workloads"]])
    unusable = _use_checkout_sources()
    if unusable:
        print(f"bench: {unusable}", file=sys.stderr)
        return CANNOT_RUN
    import workloads

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # git and the servers write temporary files too; keep them in the checkout
    tempfile.tempdir = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except workloads.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return CANNOT_RUN
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    produced = set(result.metrics)
    expected = [metric["name"] for metric in wanted]
    if produced != set(expected):
        print(f"bench: metrics {sorted(produced ^ set(expected))} do not match BENCHMARK.json",
              file=sys.stderr)
        return CANNOT_RUN

    failed = len(result.wrong)
    correct = not result.wrong and not result.problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in result.notes:
        print(f"  {note}")
    for metric in wanted:
        print(f"  {metric['name']:42s} {result.metrics[metric['name']]:14.4f} {metric['unit']}")
    print(f"  {'wrong_verdict_share':42s} {failed / result.attempted:14.4f} share "
          f"({failed} of {result.attempted})")
    for problem in result.wrong:
        print(f"  WRONG VERDICT: {problem}")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": result.metrics[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
