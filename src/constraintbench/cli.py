"""Single entry point binding every subsystem.

Exit codes: 0 success, 1 usage error, 2 task/setup error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import composer, golden, report
from .config import load_config
from .diffs import parse_patch, read_patch
from .errors import ConstraintBenchError
from .harness import HarnessConfig, PatchProvider, run_campaign
from .metrics import DEFAULT_CONFIG
from .suite import REQUEST_TIMEOUT_S, load_collection, run_suite
from .taxonomy import aggregate_taxonomy, load_labels, validate_judge
from .verifiers import LayerAliasMap, structural_compliance

USAGE_ERROR, SETUP_ERROR, INTERNAL_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _levels(raw: str) -> set[int]:
    levels = {"L" + piece.strip().lstrip("Ll") for piece in raw.split(",")}
    if not levels <= set(report.LEVELS):
        raise argparse.ArgumentTypeError(f"levels must be among {', '.join(report.LEVELS)}")
    return {report.LEVELS.index(level) for level in levels}


def _trials(raw: str) -> int:
    trials = int(raw)
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {trials}")
    return trials


def _shipped_collection() -> str:
    return (
        resources.files("constraintbench")
        .joinpath("assets/collections/conduit.json")
        .read_text(encoding="utf-8")
    )


def _load_collection_arg(path: str | None):
    if path:
        return load_collection(Path(path).read_text(encoding="utf-8"))
    return load_collection(_shipped_collection())


def _config_from_args(args) -> HarnessConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return HarnessConfig.from_env()


def cmd_compose(args) -> int:
    frameworks = None
    if args.frameworks and args.frameworks != "all":
        frameworks = composer.parse_framework_names(args.frameworks)
    tasks = composer.enumerate_variants(frameworks)
    if args.levels:
        tasks = [task for task in tasks if task.level in args.levels]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for task in tasks:
        (out / f"{task.id}.json").write_text(task.to_json(), encoding="utf-8")
    by_level: dict[int, int] = {}
    for task in tasks:
        by_level[task.level] = by_level.get(task.level, 0) + 1
    summary = ", ".join(f"L{level}: {count}" for level, count in sorted(by_level.items()))
    print(f"wrote {len(tasks)} tasks to {out} ({summary})")
    return 0


def cmd_diff_inspect(args) -> int:
    patch = parse_patch(read_patch(Path(args.patch)))
    print(patch.to_json())
    return 0


def cmd_verify(args) -> int:
    task = composer.load_task(Path(args.task).read_text(encoding="utf-8"))
    patch = parse_patch(read_patch(Path(args.patch)))
    aliases = LayerAliasMap.from_file(args.aliases) if args.aliases else None
    overall, reports = structural_compliance(task, patch, aliases)
    for rep in reports:
        print(f"{rep.axis}: {'compliant' if rep.compliant else 'NON-COMPLIANT'}")
        for description, path, line in rep.violations:
            location = f" [{path}:{line}]" if path else ""
            print(f"  - {description}{location}")
    print(f"overall: {'compliant' if overall else 'NON-COMPLIANT'}")
    if args.report:
        payload = {"overall": overall, "reports": [r.to_dict() for r in reports]}
        Path(args.report).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
    return 0


def cmd_run_suite(args) -> int:
    collection = _load_collection_arg(args.collection)
    result = run_suite(collection, args.base_url, request_timeout=args.request_timeout)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "suite_result.json").write_text(result.to_json(), encoding="utf-8")
        (out / "suite_result.csv").write_text(result.to_csv(collection), encoding="utf-8")
    print(
        f"{result.assertions_passed}/{result.assertions_total} assertions passed "
        f"({result.requests_executed} requests executed)"
    )
    return 0


def _feature_groups(raw: str) -> list[str]:
    from .refserver.server import feature_groups  # loads http.server, so only here

    return feature_groups(raw)


def cmd_reference_server(args) -> int:
    from .refserver.server import serve

    serve(args.port, disabled=args.disable, reset_token=args.reset_token or None, host=args.host)
    return 0


def cmd_evaluate(args) -> int:
    tasks_path = Path(args.tasks)
    if tasks_path.is_dir():
        task_files = sorted(tasks_path.glob("*.json"))
    else:
        task_files = [tasks_path]
    tasks = [composer.load_task(f.read_text(encoding="utf-8")) for f in task_files]
    provider = PatchProvider.parse(args.provider)
    collection = _load_collection_arg(args.collection)
    config = _config_from_args(args)
    labels = {"agent": args.agent_label, "model": args.model_label}
    records = run_campaign(
        tasks, provider, args.trials, collection,
        config=config, out_dir=args.out, labels=labels,
    )
    passed = sum(record.full_pass for record in records)
    print(f"{len(records)} runs recorded to {args.out}; {passed} full passes")
    return 0


def cmd_taxonomy(args) -> int:
    if args.taxonomy_command == "aggregate":
        summary = aggregate_taxonomy(load_labels(args.labels))
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    accuracy, kappa, class_report = validate_judge(
        load_labels(args.judge), load_labels(args.human)
    )
    print(f"accuracy: {accuracy:.1f}%")
    print(f"kappa: {kappa:.3f}")
    for name, stats in sorted(class_report["classes"].items()):
        print(
            f"{name}: precision {stats['precision']:.1f} recall {stats['recall']:.1f} "
            f"f1 {stats['f1']:.1f} (support {stats['support']})"
        )
    macro = class_report["macro"]
    print(
        f"macro avg: precision {macro['precision']:.1f} recall {macro['recall']:.1f} "
        f"f1 {macro['f1']:.1f}"
    )
    return 0


def cmd_report(args) -> int:
    tables = report.build_report(
        args.results,
        tables=args.tables.split(",") if args.tables else None,
        labels_path=args.labels,
    )
    written = report.write_tables(tables, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_golden(args) -> int:
    text = golden.golden_patch(args.variant)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="constraintbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="enumerate task variants and write task JSON files")
    p.add_argument("--frameworks", default="all", help="comma list or 'all'")
    p.add_argument("--levels", type=_levels, default=None,
                   help="optional level filter, e.g. L0,L3")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("diff", help="diff utilities")
    diff_sub = p.add_subparsers(dest="diff_command", required=True)
    inspect = diff_sub.add_parser("inspect", help="dump a parsed patch as canonical JSON")
    inspect.add_argument("patch")
    inspect.set_defaults(handler=cmd_diff_inspect)

    p = sub.add_parser("verify", help="run the structural verifiers on a patch")
    p.add_argument("--task", required=True)
    p.add_argument("--patch", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--aliases", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("run-suite", help="run the behavioral suite against a server")
    p.add_argument("--collection", default=None, help="defaults to the shipped collection")
    p.add_argument("--base-url", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--request-timeout", type=float, default=REQUEST_TIMEOUT_S)
    p.set_defaults(handler=cmd_run_suite)

    p = sub.add_parser("reference-server", help="run the in-memory reference server")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--disable", type=_feature_groups, default="")
    p.add_argument("--reset-token", default=None)
    p.set_defaults(handler=cmd_reference_server)

    p = sub.add_parser("evaluate", help="run the build/evaluate pipeline over tasks")
    p.add_argument("--tasks", required=True, help="task JSON file or directory")
    p.add_argument("--provider", required=True, help="recorded:<dir> or command:<cmdline>")
    p.add_argument("--trials", type=_trials, default=3)
    p.add_argument("--collection", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--agent-label", default=DEFAULT_CONFIG[0])
    p.add_argument("--model-label", default=DEFAULT_CONFIG[1])
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("metrics", help="compute metric tables from results")
    p.add_argument("--runs", dest="results", metavar="RUNS", required=True)
    p.add_argument("--report", dest="out", metavar="REPORT", required=True)
    p.set_defaults(handler=cmd_report, labels=None, tables=",".join(report.METRICS_TABLES))

    p = sub.add_parser("taxonomy", help="failure-label aggregation and judge validation")
    taxonomy_sub = p.add_subparsers(dest="taxonomy_command", required=True)
    aggregate = taxonomy_sub.add_parser("aggregate")
    aggregate.add_argument("--labels", required=True)
    aggregate.set_defaults(handler=cmd_taxonomy)
    validate = taxonomy_sub.add_parser("validate")
    validate.add_argument("--judge", required=True)
    validate.add_argument("--human", required=True)
    validate.set_defaults(handler=cmd_taxonomy)

    p = sub.add_parser("report", help="render all result tables")
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tables", default=None, help=f"comma list from: {', '.join(report.TABLE_NAMES)}")
    p.add_argument("--labels", default=None, help="failure-label JSONL for the taxonomy table")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("golden", help="emit a known-good patch (oracle fixture)")
    p.add_argument("--variant", choices=("layered", "monolithic"), default="layered")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.handler(args)
    except ConstraintBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SETUP_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SETUP_ERROR
    except KeyboardInterrupt:
        return INTERNAL_ERROR
    except Exception as exc:  # last resort: report, do not traceback-bomb scripts
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
