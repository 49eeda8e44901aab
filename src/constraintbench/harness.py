"""Two-phase build/evaluate pipeline over throwaway workspaces.

Each run gets a fresh plain directory, a port from a configured pool, and a
child-process server; Docker is deliberately absent. Evaluation applies the
patch with one ``git apply`` and keeps no git history. Patch sources are
pluggable: recorded diffs on disk, or an arbitrary command run inside the
prepared workspace (the hook where a live agent would sit); only that
command's workspace records a git tree, to diff the command's changes
against, in a repository beside the tree rather than in it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import queue
import re
import shutil
import signal
import socket
import subprocess
import tempfile
import time
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .composer import TaskSpec
from .diffs import EXCLUDED_DIR_COMPONENTS, PatchDocument, filter_excluded_sections
from .diffs import parse_patch, read_patch
from .errors import PatchParseError, TaskSetupError
from .suite import (
    REQUEST_TIMEOUT_S, SuiteResult, TestCollection, poll_health, run_suite, unreachable_result,
)
from .verifiers import LayerAliasMap, structural_compliance

logger = logging.getLogger(__name__)

GROUP_EXIT_POLL_S = 0.005  # teardown's check for killed group members to be gone
PORT_PROBE_TIMEOUT_S = 0.5  # the pre-launch check that a leased port is free
LEASABLE_PORTS = range(1, 65536)  # the ports a port_pool may hold
LOG_TAIL_BYTES = 20000  # the most of one command's output a record keeps


@dataclass
class HarnessConfig:
    port_pool: list[int] = field(default_factory=lambda: list(range(8080, 8100)))
    workers: int = 1
    request_timeout: float = REQUEST_TIMEOUT_S
    health_timeout: float = 9.5
    setup_timeout: float = 180.0
    provider_timeout: float = 600.0
    shutdown_grace: float = 5.0
    pg_url: str | None = None
    workspace_root: str | None = None
    aliases: LayerAliasMap | None = None

    @classmethod
    def from_env(cls, **overrides) -> "HarnessConfig":
        config = cls(**overrides)
        if config.pg_url is None:
            config.pg_url = os.environ.get("PG_URL") or None
        return config

    def check(self) -> None:
        """Raise ValueError unless a run could use this config: every number
        field (a count of workers or a number of seconds) is finite and
        positive, and the port pool holds at least one port, none twice and
        each in 1-65535."""
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if type(spec.default) in (int, float) and not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{spec.name} must be positive and finite, not {value}")
        if not self.port_pool:
            raise ValueError("port_pool must hold at least one port")
        for port, count in Counter(self.port_pool).items():
            if count > 1:
                raise ValueError(f"port_pool names port {port} more than once")
            if port not in LEASABLE_PORTS:
                raise ValueError(f"port_pool names port {port}, outside 1-65535")


@dataclass
class PatchProvider:
    """Where patches come from: a directory of recorded diffs, or a command."""

    kind: str  # recorded_directory | external_command
    location: str

    @classmethod
    def parse(cls, spec: str) -> "PatchProvider":
        prefix, _, rest = spec.partition(":")
        if prefix == "recorded" and rest:
            return cls("recorded_directory", rest)
        if prefix == "command" and rest:
            return cls("external_command", rest)
        raise ValueError(f"provider must be recorded:<dir> or command:<cmdline>, got {spec!r}")

    def recorded_diff_path(self, task_id: str, trial: int) -> Path:
        base = Path(self.location)
        per_trial = base / task_id / f"trial{trial}.diff"
        if per_trial.exists():
            return per_trial
        flat = base / f"{task_id}.diff"
        if flat.exists():
            return flat
        raise TaskSetupError(f"no recorded diff for task {task_id!r} trial {trial}")


@dataclass
class Workspace:
    root: Path
    meta: Path
    port: int


@dataclass
class BuildResult:
    diff_text: str
    logs: str  # the provider command's exit code and output
    token_usage: dict | None = None


# How a run ended -> (how many stages it passed: patch applied, server
# started, health answered; the detail its assertions fail with unless "ok").
OUTCOMES: dict[str, tuple[int, str | None]] = {
    "ok": (3, None),
    "server_exited": (2, "server unreachable"),
    "health_timeout": (2, "server unreachable"),
    "no_run_sh": (1, "server unreachable"),
    "port_in_use": (1, "task setup error"),
    "apply_failed": (0, "patch failed to apply"),
    "setup_error": (0, "task setup error"),
    "env_skipped": (0, "environment-skipped: no PostgreSQL target configured (set PG_URL)"),
    "internal_error": (0, "internal error"),
}


@dataclass
class RunRecord:
    task_id: str
    trial: int
    diff: str  # the evaluated diff minus excluded sections; verdicts re-derive from it
    suite: SuiteResult
    verifier_reports: list
    structurally_compliant: bool
    outcome: str = "ok"  # a key of OUTCOMES
    logs: str = ""
    token_usage: dict | None = None
    wall_time: float = 0.0
    task_summary: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)

    @classmethod
    def of(
        cls,
        task: TaskSpec,
        trial: int,
        outcome: str,
        logs: str,
        collection: TestCollection,
        *,
        suite: SuiteResult | None = None,
        diff: str = "",
        verdict: tuple[bool, list] | None = None,
        labels: dict | None = None,
        **fields,
    ) -> "RunRecord":
        """The record of one run of ``task`` that ended with ``outcome``.
        ``suite`` is the suite it ran, if any; ``verdict`` is
        ``structural_compliance``'s answer, when the patch got that far."""
        compliant, reports = verdict or (False, [])
        return cls(
            task_id=task.id,
            trial=trial,
            diff=diff,
            suite=suite or unreachable_result(collection, OUTCOMES[outcome][1]),
            verifier_reports=reports,
            structurally_compliant=compliant,
            outcome=outcome,
            logs=logs,
            task_summary=task.summary(),
            labels=dict(labels or {}),
            **fields,
        )

    # stage flags derived from ``outcome`` for the bench's verdicts; not stored
    patch_applied = property(lambda self: OUTCOMES[self.outcome][0] >= 1)
    health_ok = property(lambda self: OUTCOMES[self.outcome][0] >= 3)
    setup_error = property(lambda self: self.outcome in ("setup_error", "port_in_use"))
    environment_skipped = property(lambda self: self.outcome == "env_skipped")

    @property
    def raw_fraction(self) -> float:
        total = self.suite.assertions_total
        return self.suite.assertions_passed / total if total else 0.0

    @property
    def full_pass(self) -> bool:
        total = self.suite.assertions_total
        return (
            total > 0
            and self.suite.assertions_passed == total
            and self.structurally_compliant
        )

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "trial": self.trial,
            "diff": self.diff,
            "suite": self.suite.to_dict(),
            "verifier_reports": [r.to_dict() for r in self.verifier_reports],
            "structurally_compliant": self.structurally_compliant,
            "full_pass": self.full_pass,
            "logs": self.logs,
            "token_usage": self.token_usage,
            "wall_time": self.wall_time,
            "task": self.task_summary,
            "labels": self.labels,
            "outcome": self.outcome,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _start_git(args: list[str], cwd: Path) -> subprocess.Popen:
    """Start ``git args`` in ``cwd`` with its output piped as bytes."""
    # No GIT_* variable of the host's and no global or system config, so a
    # host's repository, hooks or autocrlf cannot change a verdict. The ceiling
    # keeps git from finding a repository above the run's directory, where
    # ``git apply`` skips paths outside its cwd and still exits 0.
    return subprocess.Popen(
        ["git", *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={
            **{name: value for name, value in os.environ.items() if not name.startswith("GIT_")},
            "GIT_CONFIG_GLOBAL": os.devnull,
            "GIT_CONFIG_NOSYSTEM": "1",
            "GIT_TERMINAL_PROMPT": "0",
            "GIT_CEILING_DIRECTORIES": str(Path(cwd).resolve().parent),
        },
    )


def _git(args: list[str], cwd: Path, check: bool = True) -> subprocess.CompletedProcess:
    """Run ``git args`` to its end, its output decoded with each ``\\r`` and non-UTF-8 byte kept."""
    with _start_git(args, cwd) as process:
        stdout, stderr = (out.decode("utf-8", "surrogateescape") for out in process.communicate())
    if check and process.returncode != 0:
        raise TaskSetupError(f"git {' '.join(args)} failed: {stderr.strip()}")
    return subprocess.CompletedProcess(process.args, process.returncode, stdout, stderr)


@contextlib.contextmanager
def _make_workspace(task: TaskSpec, port: int, config: HarnessConfig) -> Iterator[Workspace]:
    """Pristine per-run directory: repo/ (the code tree) + meta/ (logs,
    prompts), removed on exit, or when preparing it fails."""
    # resolved, since git runs in the tree and is handed paths under this root
    workspace_root = Path(config.workspace_root or tempfile.gettempdir()).resolve()
    workspace_root.mkdir(parents=True, exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"cb-{task.id[:40]}-", dir=workspace_root))
    try:
        root = base / "repo"
        meta = base / "meta"
        root.mkdir()
        meta.mkdir()
        if task.kind == "feature":
            clone = _git(["clone", "-q", task.repo_ref["url"], str(root)], base, check=False)
            if clone.returncode != 0:
                raise TaskSetupError(f"clone failed: {clone.stderr.strip()}")
            _git(["checkout", "-q", task.repo_ref["commit"]], root)
            patch_file = meta / "ablation.diff"
            patch_file.write_text(task.ablation_patch, encoding="utf-8")
            applied = _git(["apply", "--whitespace=nowarn", str(patch_file)], root, check=False)
            if applied.returncode != 0:
                raise TaskSetupError(f"ablation patch failed to apply: {applied.stderr.strip()}")
            shutil.rmtree(root / ".git", ignore_errors=True)
        yield Workspace(root=root, meta=meta, port=port)
    finally:
        shutil.rmtree(base, ignore_errors=True)


# git's repository is git/, beside the tree repo/, so nothing in the tree is git's
_BESIDE = ["--git-dir=../git", "--work-tree=."]
# every file, ignored or not, bar the excluded directories, which git never reads
_STAGE_ALL = [*_BESIDE, "add", "-A", "--force", "--", ".",
              *(f":(exclude,glob)**/{name}/**" for name in sorted(EXCLUDED_DIR_COMPONENTS))]
_AS_IS = "* !diff !text !crlf !eol !ident !filter !working-tree-encoding\n"


def _baseline_tree(workspace: Workspace) -> str:
    """Record the workspace tree as it stands as a git tree object, and
    return its id: no commit, so no identity, signing or hooks."""
    _git([*_BESIDE, "init", "-q"], workspace.root)
    # outranks the tree's and the host's .gitattributes, so git takes each file as it is
    (workspace.root.parent / "git" / "info").mkdir(exist_ok=True)
    (workspace.root.parent / "git" / "info" / "attributes").write_text(_AS_IS)
    _git(_STAGE_ALL, workspace.root)
    return _git([*_BESIDE, "write-tree"], workspace.root).stdout.strip()


def _port_in_use(port: int) -> bool:
    """Whether something already accepts connections on ``port``."""
    try:
        socket.create_connection(("127.0.0.1", port), timeout=PORT_PROBE_TIMEOUT_S).close()
    except OSError:
        return False
    return True


def _run_env(workspace: Workspace, config: HarnessConfig) -> dict:
    env = dict(os.environ)
    env["PORT"] = str(workspace.port)
    if config.pg_url:
        env["PG_URL"] = config.pg_url
    return env


def _extract_diff(workspace: Workspace, baseline: str) -> str:
    """The workspace's changes since the tree ``baseline``, binary files too, as a diff."""
    for parent, dirs, _ in os.walk(workspace.root):
        dirs[:] = [name for name in dirs if name not in EXCLUDED_DIR_COMPONENTS | {".git"}]
        nested = Path(parent, ".git")  # removed, so a nested repository's files are plain files
        if nested.is_dir() and not nested.is_symlink():
            shutil.rmtree(nested)
        nested.unlink(missing_ok=True)
    _git(_STAGE_ALL, workspace.root)
    diff = _git([*_BESIDE, "diff", "--cached", "--binary", baseline], workspace.root)
    return filter_excluded_sections(diff.stdout)


def build_phase(
    task: TaskSpec,
    provider: PatchProvider,
    trial: int = 0,
    config: HarnessConfig | None = None,
    port: int | None = None,
) -> BuildResult:
    """Produce the diff for one (task, trial): replay a recorded file, or run
    the provider command in a prepared workspace and capture its changes."""
    config = config or HarnessConfig.from_env()

    if provider.kind == "recorded_directory":
        diff_path = provider.recorded_diff_path(task.id, trial)
        tokens_path = diff_path.with_suffix(diff_path.suffix + ".tokens.json")
        token_usage = None
        if tokens_path.exists():
            token_usage = json.loads(tokens_path.read_text())
        return BuildResult(diff_text=read_patch(diff_path), logs="", token_usage=token_usage)

    with _make_workspace(task, port=port or config.port_pool[0], config=config) as workspace:
        baseline = _baseline_tree(workspace)
        (workspace.meta / "task.json").write_text(task.to_json(), encoding="utf-8")
        (workspace.meta / "prompt.txt").write_text(task.prompt, encoding="utf-8")
        env = _run_env(workspace, config)
        env["TASK_ID"] = task.id
        env["TASK_FILE"] = str(workspace.meta / "task.json")
        env["TASK_PROMPT_FILE"] = str(workspace.meta / "prompt.txt")
        log = workspace.meta / "provider.log"
        ended = _run_command(provider.location, workspace.root, env, log,
                             config.provider_timeout, config.shutdown_grace)
        logs = f"provider {ended}\n{_tail(log)}"
        return BuildResult(diff_text=_extract_diff(workspace, baseline), logs=logs)


def _group_alive(process: subprocess.Popen) -> bool:
    """True while any process of run.sh's process group is left.

    ``run.sh`` is reaped first, so it does not count once it has exited; a
    server it put in the background keeps the group alive without it. An
    orphan that has exited but waits to be reaped by PID 1 is a zombie and
    does not count either, where ``/proc`` can tell.
    """
    process.poll()
    try:
        os.killpg(process.pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return process.returncode is None or _group_has_live_member(process.pid)


def _group_has_live_member(pgid: int) -> bool:
    """Whether ``/proc`` shows a process of group ``pgid`` that is not a
    zombie; True when ``/proc`` is missing or belongs to another PID
    namespace, since it cannot tell then."""
    try:
        with open("/proc/self/stat", "rb") as handle:
            if int(handle.read().split()[0]) != os.getpid():
                return True
        pids = [name for name in os.listdir("/proc") if name.isdigit()]
    except (OSError, ValueError):
        return True
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited meanwhile
        # "pid (comm) state ppid pgrp ...": comm may hold spaces and ")"
        state, _, pgrp = stat[stat.rindex(b")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != b"Z":
            return True
    return False


def _signal_group(process: subprocess.Popen, signum: int):
    try:
        os.killpg(process.pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def _terminate(process: subprocess.Popen, grace: float):
    """SIGTERM the whole group, give run.sh ``grace`` seconds to exit, then
    SIGKILL whatever is left, including children that outlived run.sh, and
    wait (up to ``grace`` again) until they are gone: they are not run.sh's
    children to reap, and a dying server may still hold the port."""
    _signal_group(process, signal.SIGTERM)
    try:
        process.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    if _group_alive(process):
        _signal_group(process, signal.SIGKILL)
        process.wait()
        deadline = time.monotonic() + grace
        while _group_alive(process) and time.monotonic() < deadline:
            time.sleep(GROUP_EXIT_POLL_S)


@contextlib.contextmanager
def _launch(argv: list[str], cwd: Path, env: dict, log: Path, grace: float
            ) -> Iterator[subprocess.Popen]:
    """Start ``argv`` in a process group of its own, with its stdout and stderr
    written together, in order, to the file ``log``; on exit, ``_terminate``
    stops the group, whatever it left in the background too."""
    with open(log, "wb") as handle:
        process = subprocess.Popen(argv, cwd=cwd, env=env, stdout=handle,
                                   stderr=subprocess.STDOUT, start_new_session=True)
    try:
        yield process
    finally:
        _terminate(process, grace)


def _tail(log: Path) -> str:
    """At most the last ``LOG_TAIL_BYTES`` bytes of ``log``, from a whole character on, as
    text with ``\\r\\n`` and ``\\r`` read as ``\\n``, after a line counting the bytes left out."""
    with open(log, "rb") as handle:
        dropped = max(handle.seek(0, os.SEEK_END) - LOG_TAIL_BYTES, 0)
        handle.seek(max(dropped - 1, 0))  # with the byte before the cut, if any
        data = handle.read()
    if dropped:
        skip = re.match(rb"(?:\r\n|.)[\x80-\xbf]{0,3}", data, re.DOTALL).end()
        data, dropped = data[skip:], dropped + skip - 1
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    return f"[{dropped} earlier bytes dropped]\n{text}" if dropped else text


def _run_command(command: str, cwd: Path, env: dict, log: Path, timeout: float, grace: float):
    """Run ``command`` through ``/bin/sh -c`` under ``_launch``, and say how
    it ended: ``exit=N`` or ``timed out``."""
    with _launch(["/bin/sh", "-c", command], cwd, env, log, grace) as process:
        try:
            return f"exit={process.wait(timeout)}"
        except subprocess.TimeoutExpired:
            return "timed out"


def evaluate_phase(
    task: TaskSpec,
    diff_text: str,
    collection: TestCollection,
    config: HarnessConfig | None = None,
    trial: int = 0,
    token_usage: dict | None = None,
    labels: dict | None = None,
    port: int | None = None,
) -> RunRecord:
    """Apply the patch to a pristine workspace, run the server, test, verify."""
    config = config or HarnessConfig.from_env()
    started_at = time.monotonic()
    log_parts: list[str] = []
    diff = filter_excluded_sections(diff_text)

    @functools.cache
    def verify() -> tuple[tuple[bool, list], str | None]:
        """``structural_compliance``'s verdict, and the parse error if any.
        The parsed patch is not kept: the verdicts re-derive from ``diff``."""
        try:
            patch_doc, error = parse_patch(diff), None
        except PatchParseError as exc:
            patch_doc, error = PatchDocument(), f"patch parse error: {exc}"
        return structural_compliance(task, patch_doc, config.aliases), error

    # _run_stages verifies while `git apply` runs; a run that never gets
    # that far is verified here, once it has ended
    outcome, suite = _run_stages(task, diff, collection, config, port, log_parts, verify)
    verdict, parse_error = verify()
    if parse_error:
        log_parts.insert(0, parse_error)
    return RunRecord.of(
        task, trial, outcome, "\n".join(log_parts), collection, suite=suite, diff=diff,
        verdict=verdict, labels=labels, token_usage=token_usage,
        wall_time=time.monotonic() - started_at,
    )


def _run_stages(
    task: TaskSpec, diff: str, collection: TestCollection, config: HarnessConfig,
    port: int | None, log_parts: list[str], verify: Callable[[], object],
) -> tuple[str, SuiteResult | None]:
    """The stages of one evaluation, in order: env check, workspace, apply,
    setup, port probe, launch, health, suite. The first stage that ends the
    run gives its outcome; only ``"ok"`` comes with the suite's result.
    ``verify`` is called while ``git apply`` runs, if it runs. However the
    run ends, ``teardown`` undoes the stages last-first: the server's group
    is stopped, its log tail read, then the workspace removed."""
    if task.constraints.database == "postgres" and not config.pg_url:
        log_parts.append("environment-skipped: postgres task without PG_URL")
        return "env_skipped", None

    with contextlib.ExitStack() as teardown:
        try:
            workspace = teardown.enter_context(
                _make_workspace(task, port=port or config.port_pool[0], config=config))
        except TaskSetupError as exc:
            log_parts.append(f"task setup error: {exc}")
            return "setup_error", None

        if diff.strip():
            patch_file = workspace.meta / "changes.diff"
            patch_file.write_text(diff, encoding="utf-8", errors="surrogateescape")
            with _start_git(
                ["apply", "--whitespace=nowarn", str(patch_file)], workspace.root
            ) as applying:
                try:
                    verify()
                finally:
                    _, stderr = applying.communicate()
            if applying.returncode != 0:
                log_parts.append(f"git apply failed: {stderr.decode(errors='replace').strip()}")
                return "apply_failed", None
        else:
            log_parts.append("empty diff: nothing to apply")

        env = _run_env(workspace, config)
        for index, command in enumerate(task.setup_commands):
            log = workspace.meta / f"setup-{index}.log"
            ended = _run_command(command, workspace.root, env, log,
                                 config.setup_timeout, config.shutdown_grace)
            log_parts.append(f"setup `{command}` {ended}\n{_tail(log)}")

        if not (workspace.root / "run.sh").exists():
            log_parts.append("no run.sh in patched tree; server not started")
            return "no_run_sh", None
        if _port_in_use(workspace.port):
            # whatever answers there is not this run's server
            log_parts.append(f"task setup error: port {workspace.port} already in use")
            return "port_in_use", None

        server_log = workspace.meta / "server.log"
        teardown.callback(lambda: log_parts.extend(["--- server log ---", _tail(server_log)]))
        process = teardown.enter_context(
            _launch(["bash", "run.sh"], workspace.root, env, server_log, config.shutdown_grace))

        base_url = f"http://127.0.0.1:{workspace.port}/api"
        if not poll_health(base_url, config.health_timeout, alive=lambda: _group_alive(process)):
            if _group_alive(process):
                return "health_timeout", None
            log_parts.append(
                f"server exited with code {process.returncode} before answering health-check"
            )
            return "server_exited", None

        return "ok", run_suite(collection, base_url, request_timeout=config.request_timeout)


def run_one(
    task: TaskSpec,
    provider: PatchProvider,
    collection: TestCollection,
    trial: int,
    config: HarnessConfig,
    labels: dict | None = None,
    port: int | None = None,
) -> RunRecord:
    """build_phase + evaluate_phase with per-run error containment.

    The record's ``wall_time`` runs from before ``build_phase``, so it holds
    the provider's time as well as the evaluation's."""
    started_at = time.monotonic()
    try:
        build = build_phase(task, provider, trial=trial, config=config, port=port)
    except TaskSetupError as exc:
        record = RunRecord.of(
            task, trial, "setup_error", f"task setup error: {exc}", collection,
            verdict=structural_compliance(task, PatchDocument(), config.aliases), labels=labels,
        )
    else:
        record = evaluate_phase(
            task,
            build.diff_text,
            collection,
            config=config,
            trial=trial,
            token_usage=build.token_usage,
            labels=labels,
            port=port,
        )
        if build.logs:
            record.logs = "\n".join(filter(None, [record.logs, "--- provider ---", build.logs]))
    record.wall_time = time.monotonic() - started_at
    return record


def run_campaign(
    tasks: list[TaskSpec],
    provider: PatchProvider,
    trials: int,
    collection: TestCollection,
    config: HarnessConfig | None = None,
    out_dir: str | Path | None = None,
    labels: dict | None = None,
) -> list[RunRecord]:
    """trials x |tasks| isolated runs in deterministic order.

    Individual run errors never abort the campaign; each failure is folded
    into its RunRecord instead.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = config or HarnessConfig.from_env()
    config.check()
    # each run leases a port for its whole duration, so no two runs share one
    ports: queue.Queue[int] = queue.Queue()
    for port in config.port_pool:
        ports.put(port)

    def execute(job: tuple[TaskSpec, int]) -> RunRecord:
        task, trial = job
        port = ports.get()
        started_at = time.monotonic()
        try:
            return run_one(task, provider, collection, trial, config, labels=labels, port=port)
        except Exception as exc:  # run containment: campaign must survive anything
            logger.exception("run crashed: %s trial %s", task.id, trial)
            return RunRecord.of(
                task, trial, "internal_error", f"internal error: {exc!r}", collection,
                labels=labels, wall_time=time.monotonic() - started_at,
            )
        finally:
            ports.put(port)

    jobs = [(task, trial) for task in tasks for trial in range(trials)]
    with ThreadPoolExecutor(max_workers=min(config.workers, len(config.port_pool))) as pool:
        records = list(pool.map(execute, jobs))

    if out_dir is not None:
        write_campaign(records, out_dir, trials=trials, labels=labels)
    return records


def write_campaign(records: list[RunRecord], out_dir, trials: int, labels: dict | None = None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for record in records:
        name = f"{record.task_id}_t{record.trial}.json"
        (out / name).write_text(record.to_json(), encoding="utf-8")
        files.append(name)
    index = {
        "trials": trials,
        "labels": dict(labels or {}),
        "tasks": sorted({r.task_id for r in records}),
        "runs": files,
    }
    (out / "campaign.json").write_text(json.dumps(index, indent=2, sort_keys=True), encoding="utf-8")


def load_campaign(results_dir) -> Iterator[dict]:
    """Raw RunRecord dicts from a results directory, in its index's order.

    The index is read, and a missing one raises, when this is called; each
    record file is read and parsed only as the iterator reaches it, so a
    reader that keeps what it needs from each holds one record at a time.
    """
    results = Path(results_dir)
    index_file = results / "campaign.json"
    if not index_file.exists():
        raise TaskSetupError(f"no campaign index at {index_file}")
    index = json.loads(index_file.read_text())
    return (json.loads((results / name).read_text()) for name in index["runs"])
