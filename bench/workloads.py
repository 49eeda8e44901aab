"""The campaign workloads: set-up, measuring passes, checks and metrics.

Everything the program does here goes through its public API: the harness
campaign entry point and the report builder. Workspaces, results and tables
live under a temporary root inside the checkout that the caller removes.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import signal
import socket
import statistics
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from constraintbench import harness, report, suite
from constraintbench.harness import HarnessConfig, PatchProvider

import inputs
from tracing import Tracer

WORKERS = 2  # the benchmark is sized for a two-core machine
# Set-up is timed before the measuring passes and again after them: at least
# SETUP_REPEATS times and SETUP_MIN_S seconds each time, at most SETUP_MAX_REPEATS.
SETUP_REPEATS = 4
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 50
# On a shared VM, CPU speed swings by up to 2x from one tenth of a second to
# the next, so the report is timed many times, spaced out, and the median taken
REPORT_REPEATS = 30
REPORT_GAP_S = 0.1
TABLES_DIR = Path(__file__).resolve().parent / "tables"

CAMPAIGN_SPANS = (
    "harness.run_one",
    "harness.build_phase",
    "harness.evaluate_phase",
    "diffs.parse_patch",
    "verifiers.structural_compliance",
    "suite.poll_health",
    "suite.run_suite",
    "harness.write_campaign",
    "harness.load_campaign",
    "report.build_report",
    "report.write_tables",
)


class BenchError(Exception):
    """The workload cannot run as defined; no result is printed."""


@dataclass
class Result:
    attempted: int
    wrong: list[str]  # runs whose verdict differs from the oracle
    problems: list[str]  # anything else that makes the result incorrect
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


@dataclass
class Pass:
    """What one measuring pass over a workload saw."""

    run_ms: list[float] = field(default_factory=list)
    completed: int = 0
    busy_s: float = 0.0  # campaign wall time
    cpu_self_ms: float = 0.0
    cpu_children_ms: float = 0.0
    record_bytes: list[int] = field(default_factory=list)
    report_s: list[float] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    units: int = 0

    @property
    def runs_per_s(self) -> float:
        return self.completed / self.busy_s


# --- measurement helpers ---------------------------------------------------

def cpu_ms() -> tuple[float, float]:
    """CPU of this process and of its reaped children, in ms."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        (own.ru_utime + own.ru_stime) * 1000.0,
        (children.ru_utime + children.ru_stime) * 1000.0,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples beyond it; below 20 samples that would not reach the median, so
    the maximum stands in."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


# --- hygiene checks ----------------------------------------------------------

def bound_ports(ports) -> list[int]:
    busy = []
    for port in ports:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("0.0.0.0", port))
            except OSError:
                busy.append(port)
    return busy


def _processes_in(root: Path) -> list[int]:
    prefix = str(root) + "/"
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cwd = os.readlink(entry / "cwd")
        except OSError:
            continue
        if cwd.startswith(prefix):
            found.append(int(entry.name))
    return found


def _kill_and_wait(pids: list[int], timeout: float = 10.0):
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = []
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            if Path(f"/proc/{pid}").exists():
                alive.append(pid)
        if not alive:
            return
        pids = alive
        time.sleep(0.05)
    raise BenchError(f"processes {pids} survived SIGKILL")


def leftovers(tmp_root: Path, workspace_root: Path, ports) -> list[str]:
    """Server processes, workspaces or bound pool ports a pass left behind.
    Stray processes are killed after being named."""
    problems = []
    pids = _processes_in(tmp_root)
    if pids:
        problems.append(f"processes left running in workspaces: {pids}")
        _kill_and_wait(pids)
    stale = sorted(path.name for path in workspace_root.glob("cb-*"))
    if stale:
        problems.append(f"workspaces left behind: {stale}")
    busy = bound_ports(ports)
    if busy:
        problems.append(f"pool ports still bound after the workload: {busy}")
    return problems


# --- campaign workloads ------------------------------------------------------

def _config(workspace_root: Path) -> HarnessConfig:
    # explicit, so a PG_URL in the caller's environment cannot turn the
    # PostgreSQL tasks into live runs; timings are the evaluate defaults
    return HarnessConfig(workers=WORKERS, pg_url=None, workspace_root=str(workspace_root))


def _collection():
    text = (
        resources.files("constraintbench")
        .joinpath("assets/collections/conduit.json")
        .read_text(encoding="utf-8")
    )
    return suite.load_collection(text)


def _assertion_count(collection) -> int:
    return sum(len(r.assertions) for folder in collection.folders for r in folder.requests)


def _binder(function):
    signature = inspect.signature(function)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _wrap_campaign(tracer: Tracer, full: bool):
    """The run stopwatch always; with ``full``, a span at every layer call."""
    bind_run = _binder(harness.evaluate_phase)

    def run_identity(args, kwargs):
        bound = bind_run(args, kwargs)
        return {"task": bound["task"].id, "trial": bound.get("trial", 0),
                "port": bound.get("port")}

    tracer.wrap(harness, "evaluate_phase", "harness.evaluate_phase", on_call=run_identity)
    if not full:
        return
    tracer.wrap(harness, "run_one", "harness.run_one")
    tracer.wrap(harness, "build_phase", "harness.build_phase")
    tracer.wrap(harness, "parse_patch", "diffs.parse_patch", on_result=lambda patch: {
        "added_lines": sum(len(change.added_lines) for change in patch.files)})
    tracer.wrap(harness, "structural_compliance", "verifiers.structural_compliance",
                on_result=lambda verdict: {"reports": len(verdict[1])})
    tracer.wrap(harness, "poll_health", "suite.poll_health",
                on_result=lambda healthy: {"ok": bool(healthy)})
    tracer.wrap(harness, "run_suite", "suite.run_suite", on_result=_suite_counts)
    bind_write = _binder(harness.write_campaign)
    tracer.wrap(harness, "write_campaign", "harness.write_campaign", on_call=lambda a, k: {
        "out": Path(bind_write(a, k)["out_dir"])})
    tracer.wrap(report, "load_campaign", "harness.load_campaign")
    tracer.wrap(report, "build_report", "report.build_report")
    tracer.wrap(report, "write_tables", "report.write_tables")


def _suite_counts(result):
    return {"requests": result.requests_executed,
            "passed": result.assertions_passed, "total": result.assertions_total}


def _compare_tables(produced: Path, kept: Path) -> list[str]:
    want = {path.name: path.read_bytes() for path in kept.iterdir()}
    got = {path.name: path.read_bytes() for path in produced.iterdir()}
    problems = [f"table {name} missing" for name in sorted(set(want) - set(got))]
    problems += [f"unexpected table {name}" for name in sorted(set(got) - set(want))]
    problems += [f"table {name} differs from {kept / name}"
                 for name in sorted(set(want) & set(got)) if want[name] != got[name]]
    return problems


class CampaignWorkload:
    """golden_campaign or hard_boots: whole campaigns through run_campaign,
    each followed by the report over its results directory."""

    def __init__(self, name, seed, tmp, blocks):
        self.name, self.seed, self.tmp, self.blocks = name, seed, tmp, blocks
        self.config = _config(tmp / "ws")
        self.ports = self.config.port_pool

    def set_up(self):
        self.collection = _collection()
        patches = self.tmp / "patches"
        assertions = _assertion_count(self.collection)
        if self.name == "golden_campaign":
            self.inputs = inputs.golden_campaign(self.seed, patches, assertions)
        else:
            self.inputs = inputs.hard_boots(self.seed, patches, assertions, self.blocks)

    def measure(self, seconds, tracer, tag) -> Pass:
        """Campaigns until another would overrun ``seconds`` (at least one)."""
        inp = self.inputs
        provider = PatchProvider("recorded_directory", str(inp.patches_dir))
        outcome = Pass()
        jobs = len(inp.tasks) * inp.trials
        while True:
            out = self.tmp / f"results-{tag}-{outcome.units}"
            first_span = len(tracer.spans)
            cpu_before = cpu_ms()
            started = time.perf_counter()
            records = harness.run_campaign(
                inp.tasks, provider, inp.trials, self.collection,
                config=self.config, out_dir=out, labels=inputs.LABELS,
            )
            wall = time.perf_counter() - started
            cpu_after = cpu_ms()
            outcome.busy_s += wall
            outcome.cpu_self_ms += cpu_after[0] - cpu_before[0]
            outcome.cpu_children_ms += cpu_after[1] - cpu_before[1]
            outcome.units += 1

            runs = [s for s in tracer.spans[first_span:] if s.name == "harness.evaluate_phase"]
            outcome.run_ms += [span.ms for span in runs]
            outcome.completed += len(records)
            if len(records) != jobs or len(runs) != jobs:
                outcome.problems.append(
                    f"{jobs} runs submitted, {len(records)} records, {len(runs)} evaluated"
                )
            outcome.wrong += self._wrong_verdicts(records, runs)
            index = json.loads((out / "campaign.json").read_text(encoding="utf-8"))
            outcome.record_bytes += [(out / run).stat().st_size for run in index["runs"]]

            tables_out = self.tmp / f"tables-{tag}-{outcome.units}"
            for _ in range(REPORT_REPEATS):
                time.sleep(REPORT_GAP_S)
                started = time.perf_counter()
                tables = report.build_report(out)
                report.write_tables(tables, tables_out)
                outcome.report_s.append(time.perf_counter() - started)
            outcome.problems += _compare_tables(tables_out, TABLES_DIR / self.name)
            if outcome.busy_s + wall > seconds:
                return outcome

    def _wrong_verdicts(self, records, runs) -> list[str]:
        """Name each run whose record disagrees with the oracle, with the port
        the harness gave it and any other run given that port meanwhile."""
        by_run = {(span.attrs["task"], span.attrs["trial"]): span for span in runs}
        wrong = []
        for record in records:
            key = (record.task_id, record.trial)
            expected, actual = self.inputs.expected[key], inputs.Verdict.of(record)
            if actual == expected:
                continue
            cause = expected.differences(actual)
            mine = by_run.get(key)
            port = mine.attrs["port"] if mine else None
            shared = [
                f"{other.attrs['task']}_t{other.attrs['trial']}" for other in runs
                if mine is not None and other is not mine and other.attrs["port"] == port
                and other.start < mine.end and mine.start < other.end
            ]
            if shared:
                cause += f"; port {port} was also assigned to {', '.join(shared)} meanwhile"
            wrong.append(f"{self.name} run {record.task_id}_t{record.trial} "
                         f"({self.inputs.kinds[key]}, port {port}): {cause}")
        return wrong


def _timed(action, times: list[float]):
    first = len(times)
    while len(times) - first < SETUP_MAX_REPEATS and (
        len(times) - first < SETUP_REPEATS or sum(times[first:]) < SETUP_MIN_S
    ):
        started = time.perf_counter()
        action()
        times.append(time.perf_counter() - started)


def _measure(workload, seconds, full, tag) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    _wrap_campaign(tracer, full)
    try:
        return workload.measure(seconds, tracer, tag), tracer
    finally:
        tracer.unwrap_all()


def _run_notes(outcome: Pass, prefix: str = "") -> list[str]:
    _, percentile = tail(outcome.run_ms)
    return [
        f"{prefix}{outcome.completed} completed in {outcome.busy_s:.2f} s busy "
        f"({outcome.units} campaign(s))",
        f"{prefix}run_tail_ms is p{percentile:.1f} of {len(outcome.run_ms)} runs",
    ]


def run(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> Result:
    """Set up, measure untraced (and traced), check, and compute the metrics.

    Set-up is timed before measuring and again after, so its median does not
    hang on one moment's machine speed. A traced run measures twice, so each
    of its passes gets half the time (hard_boots: half the blocks)."""
    (tmp / "ws").mkdir(parents=True, exist_ok=True)
    blocks = inputs.HARD_BOOTS_BLOCKS // 2 if trace else inputs.HARD_BOOTS_BLOCKS
    workload = CampaignWorkload(name, seed, tmp, blocks)
    busy = bound_ports(workload.ports)
    if busy:
        raise BenchError(f"ports {busy} are already bound before {name}")
    seconds = seconds / 2 if trace else seconds
    setup_times: list[float] = []
    _timed(workload.set_up, setup_times)
    plain, _ = _measure(workload, seconds, False, "plain")
    notes = _run_notes(plain)
    if trace:
        traced, tracer = _measure(workload, seconds, True, "traced")
        _require_spans(name, tracer)
        notes += _run_notes(traced, "traced ")
    else:
        _timed(workload.set_up, setup_times)
    problems = [f"{name}: {problem}" for problem in plain.problems]
    problems += [f"{name}: {problem}" for problem in
                 leftovers(tmp, tmp / "ws", workload.ports)]
    if trace:
        problems += [f"{name}: {problem}" for problem in traced.problems]
        return Result(plain.completed + traced.completed, plain.wrong + traced.wrong,
                      problems, layer_metrics(tracer, traced, plain), notes)
    # CPU-bound figures drift with a shared host's speed by more than the largest
    # bound allowed, so they are printed but not gated
    cpu_per_run = (plain.cpu_self_ms + plain.cpu_children_ms) / plain.completed
    notes += [f"cpu_ms_per_run {cpu_per_run:.4f} ms (not gated)",
              f"report_s {statistics.median(plain.report_s):.4f} s (not gated)"]
    return Result(plain.completed, plain.wrong, problems, {
        "setup_s": statistics.median(setup_times),
        "runs_per_s": plain.runs_per_s,
        "run_p50_ms": statistics.median(plain.run_ms),
        "run_tail_ms": tail(plain.run_ms)[0],
        "peak_rss_mb": peak_rss_mb(),
        "record_kb": statistics.mean(plain.record_bytes) / 1024.0,
    }, notes)


def _require_spans(name, tracer):
    """Fail when a wrap point stopped firing: per-layer numbers would then
    read as a speed-up that is really a bypass."""
    fired = {span.name for span in tracer.spans}
    missing = [span for span in CAMPAIGN_SPANS if span not in fired]
    if missing:
        raise BenchError(f"{name}: spans {missing} never fired; the program no longer "
                         "calls these layers through their wrap points")
    runs = {span.id for span in tracer.named("harness.run_one")}
    for span in tracer.spans:
        if span.name in ("harness.evaluate_phase", "suite.poll_health", "diffs.parse_patch") \
                and span.root not in runs:
            raise BenchError(f"{name}: a {span.name} span is not inside a harness.run_one span")


def layer_metrics(tracer: Tracer, traced: Pass, plain: Pass) -> dict[str, float]:
    """Per-layer numbers from the traced pass (every span has fired)."""

    def p50(name):
        return statistics.median(span.ms for span in tracer.named(name))

    def total(name, attr):
        return float(sum(span.attrs[attr] for span in tracer.named(name)))

    polls = tracer.named("suite.poll_health")
    suites = tracer.named("suite.run_suite")
    evaluate_self = tracer.self_ms("harness.evaluate_phase")
    requests = total("suite.run_suite", "requests")
    return {
        "suite.poll_health.p50_ms": p50("suite.poll_health"),
        "suite.poll_health.tail_ms": tail([span.ms for span in polls])[0],
        "suite.poll_health.ok_ratio": total("suite.poll_health", "ok") / len(polls),
        "harness.evaluate_phase.p50_ms": p50("harness.evaluate_phase"),
        "harness.evaluate_phase.self_p50_ms": statistics.median(evaluate_self),
        "harness.evaluate_phase.self_tail_ms": tail(evaluate_self)[0],
        "harness.build_phase.p50_ms": p50("harness.build_phase"),
        "suite.run_suite.p50_ms": p50("suite.run_suite"),
        "suite.run_suite.requests": requests,
        "suite.run_suite.ms_per_request": sum(span.ms for span in suites) / requests,
        "suite.run_suite.pass_ratio": (total("suite.run_suite", "passed")
                                       / total("suite.run_suite", "total")),
        "verifiers.structural_compliance.p50_ms": p50("verifiers.structural_compliance"),
        "verifiers.structural_compliance.reports": total("verifiers.structural_compliance",
                                                         "reports"),
        "diffs.parse_patch.p50_ms": p50("diffs.parse_patch"),
        "diffs.parse_patch.added_lines": total("diffs.parse_patch", "added_lines"),
        "harness.write_campaign.ms": p50("harness.write_campaign"),
        "harness.write_campaign.bytes": float(statistics.median([
            sum(path.stat().st_size for path in span.attrs["out"].iterdir())
            for span in tracer.named("harness.write_campaign")])),
        "harness.load_campaign.ms": p50("harness.load_campaign"),
        "report.build_report.ms": p50("report.build_report"),
        "report.write_tables.ms": p50("report.write_tables"),
        "cpu.harness_ms_per_run": traced.cpu_self_ms / traced.completed,
        "cpu.children_ms_per_run": traced.cpu_children_ms / traced.completed,
        "trace.runs_per_s_untraced": plain.runs_per_s,
        "trace.runs_per_s_traced": traced.runs_per_s,
        "trace.overhead_pct": 100.0 * (plain.runs_per_s - traced.runs_per_s) / plain.runs_per_s,
    }
