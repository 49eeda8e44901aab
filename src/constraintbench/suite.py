"""Declarative, stateful HTTP behavioral testing.

A collection is an ordered list of folders of requests. Requests are
templated with ``{{var}}`` placeholders, fed by captures from earlier
responses, and carry assertions of four kinds: property presence, type
validation, status codes, and state transitions against captured prior
values. Nothing in a collection is executable code, so results are portable
and the whole suite can be validated statically.
"""

from __future__ import annotations

import csv
import http.client
import io
import json
import re
import time
import urllib.error
import urllib.request
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import CollectionSchemaError

_PLACEHOLDER_RE = re.compile(r"\{\{(\w+)\}\}")
_MISSING = object()

ASSERTION_KINDS = ("property_presence", "type_validation", "status_code", "state_transition")
TRANSITIONS = ("became", "changed", "unchanged", "increased_by", "decreased_by")
_HTTP_METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS")
# poll_health probes again, while the port refuses the connection, after
# 1/CONNECT_GAP_DIVISOR of the time waited so far, clamped to
# [CONNECT_GAP_MIN_S, REPROBE_CAP_S]; once it accepts, after REPROBE_FIRST_S,
# then at gaps doubling up to REPROBE_CAP_S. A probe may take PROBE_TIMEOUT_S,
# or the time left to give up if that is shorter, but at least PROBE_FLOOR_S.
CONNECT_GAP_DIVISOR = 20
CONNECT_GAP_MIN_S = 0.001
REPROBE_FIRST_S = 0.01
REPROBE_CAP_S = 0.05
PROBE_TIMEOUT_S = 5.0
PROBE_FLOOR_S = 0.01

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}


@dataclass
class Assertion:
    kind: str
    target: str | None = None
    expect: object = None  # status code, type name, or transition name
    value: object = None   # expected new value for `became`
    delta: object = None   # step for increased_by / decreased_by
    prior: str | None = None  # variable holding the captured prior value


@dataclass
class RequestSpec:
    name: str
    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: object = None
    assertions: list[Assertion] = field(default_factory=list)
    captures: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Folder:
    name: str
    requests: list[RequestSpec] = field(default_factory=list)


@dataclass
class TestCollection:
    name: str
    folders: list[Folder] = field(default_factory=list)
    global_defaults: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class AssertionOutcome:
    folder: str
    request: str
    index: int
    kind: str
    detail: str


@dataclass
class SuiteResult:
    """A suite's outcome in its stored form: counts, per-folder tallies
    (``{folder: [passed, total]}``) and the failing outcomes in collection
    order. A suite none of whose requests got a response, and whose
    assertions all failed with one detail, holds that detail as ``not_run``
    and no rows."""

    name: str
    requests_executed: int = 0
    assertions_total: int = 0
    assertions_passed: int = 0
    folders: dict[str, list[int]] = field(default_factory=dict)
    failures: list[AssertionOutcome] = field(default_factory=list)
    not_run: str | None = None

    def _count(self, folder: str, request: str, index: int, kind: str, passed: bool,
               detail: str | None):
        tally = self.folders.setdefault(folder, [0, 0])
        tally[0] += passed
        tally[1] += 1
        self.assertions_passed += passed
        self.assertions_total += 1
        if not passed:
            self.failures.append(AssertionOutcome(folder, request, index, kind, detail))

    def _settle(self) -> "SuiteResult":
        """Applies the ``not_run`` rule once every outcome is counted."""
        details = {o.detail for o in self.failures}
        if self.requests_executed == 0 and self.assertions_passed == 0 and len(details) == 1:
            self.not_run, self.failures = details.pop(), []
        return self

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "requests_executed": self.requests_executed,
            "assertions_total": self.assertions_total,
            "assertions_passed": self.assertions_passed,
            "folders": {folder: list(tally) for folder, tally in self.folders.items()},
        }
        if self.not_run is not None:
            payload["not_run"] = self.not_run
        else:
            payload["failed"] = [
                {"folder": o.folder, "request": o.request, "index": o.index,
                 "kind": o.kind, "detail": o.detail}
                for o in self.failures
            ]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self, collection: TestCollection) -> str:
        """One row per assertion of ``collection``, the collection this suite ran."""
        failed = {(o.folder, o.request, o.index): o.detail for o in self.failures}
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["folder", "request", "index", "kind", "passed", "detail"])
        for key in _assertion_keys(collection):
            detail = self.not_run if self.not_run is not None else failed.get(key[:3])
            writer.writerow([*key, detail is None, "ok" if detail is None else detail])
        return buffer.getvalue()

    @classmethod
    def from_record(cls, payload: dict, collection: TestCollection) -> "SuiteResult":
        """Read the ``to_dict`` form of a run of ``collection``; raises
        ValueError when the two do not match."""
        keys = [(f.name, r.name) for f in collection.folders for r in f.requests]
        if len(set(keys)) != len(keys):
            raise ValueError("collection repeats a request name within a folder")
        not_run = payload.get("not_run")
        failed = {
            (row["folder"], row["request"], row["index"]): row["detail"]
            for row in payload.get("failed", [])
        }
        result = cls(name=payload["name"], requests_executed=payload["requests_executed"])
        for key in _assertion_keys(collection):
            detail = not_run if not_run is not None else failed.pop(key[:3], None)
            result._count(*key, detail is None, detail)
        if (
            failed
            or result.assertions_total != payload["assertions_total"]
            or result.assertions_passed != payload["assertions_passed"]
            or result.folders != payload["folders"]
        ):
            raise ValueError(f"suite record does not match collection {collection.name!r}")
        return result._settle()


def _assertion_keys(collection: TestCollection):
    """(folder, request, index, kind) of every assertion, in collection order."""
    for folder in collection.folders:
        for request in folder.requests:
            for index, assertion in enumerate(request.assertions):
                yield folder.name, request.name, index, assertion.kind


def _placeholders(value) -> set[str]:
    names: set[str] = set()
    if isinstance(value, str):
        names.update(_PLACEHOLDER_RE.findall(value))
    elif isinstance(value, dict):
        for v in value.values():
            names.update(_placeholders(v))
    elif isinstance(value, list):
        for v in value:
            names.update(_placeholders(v))
    return names


def _parse_assertion(raw: dict, where: str) -> Assertion:
    kind = raw.get("kind")
    if kind not in ASSERTION_KINDS:
        raise CollectionSchemaError(f"{where}: unknown assertion kind {kind!r}")
    assertion = Assertion(
        kind=kind,
        target=raw.get("target"),
        expect=raw.get("expect"),
        value=raw.get("value"),
        delta=raw.get("delta"),
        prior=raw.get("prior"),
    )
    if kind == "status_code":
        if not isinstance(assertion.expect, int):
            raise CollectionSchemaError(f"{where}: status_code needs an integer 'expect'")
    elif kind == "property_presence":
        if not assertion.target:
            raise CollectionSchemaError(f"{where}: property_presence needs a 'target' path")
    elif kind == "type_validation":
        if not assertion.target or assertion.expect not in _TYPE_CHECKS:
            raise CollectionSchemaError(
                f"{where}: type_validation needs 'target' and a valid 'expect' type"
            )
    else:  # state_transition
        if not assertion.target or assertion.expect not in TRANSITIONS:
            raise CollectionSchemaError(
                f"{where}: state_transition needs 'target' and a transition 'expect'"
            )
        if not assertion.prior:
            raise CollectionSchemaError(f"{where}: state_transition needs a 'prior' variable")
        if assertion.expect == "became" and "value" not in raw:
            raise CollectionSchemaError(f"{where}: transition 'became' needs a 'value'")
        if assertion.expect in ("increased_by", "decreased_by") and not isinstance(
            assertion.delta, (int, float)
        ):
            raise CollectionSchemaError(f"{where}: transition {assertion.expect} needs a 'delta'")
    return assertion


def load_collection(document: str) -> TestCollection:
    """Parse and statically validate a collection JSON document.

    Validation guarantees every referenced placeholder is defined by a prior
    capture or a declared global before it is used.
    """
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CollectionSchemaError(f"collection is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "folders" not in payload:
        raise CollectionSchemaError("collection must be an object with a 'folders' list")

    collection = TestCollection(
        name=payload.get("name", "collection"),
        global_defaults=dict(payload.get("global_defaults", {})),
    )
    defined = set(payload.get("globals", [])) | set(collection.global_defaults)
    for folder_raw in payload["folders"]:
        if "name" not in folder_raw or "requests" not in folder_raw:
            raise CollectionSchemaError("each folder needs 'name' and 'requests'")
        folder = Folder(name=folder_raw["name"])
        for request_raw in folder_raw["requests"]:
            where = f"{folder.name}/{request_raw.get('name', '?')}"
            for required in ("name", "method", "path"):
                if required not in request_raw:
                    raise CollectionSchemaError(f"{where}: missing request field {required!r}")
            method = request_raw["method"].upper()
            if method not in _HTTP_METHODS:
                raise CollectionSchemaError(f"{where}: unknown method {method!r}")
            request = RequestSpec(
                name=request_raw["name"],
                method=method,
                path=request_raw["path"],
                headers=dict(request_raw.get("headers", {})),
                body=request_raw.get("body"),
            )
            referenced = (
                _placeholders(request.path)
                | _placeholders(request.headers)
                | _placeholders(request.body)
            )
            for index, raw_assertion in enumerate(request_raw.get("assertions", [])):
                assertion = _parse_assertion(raw_assertion, f"{where}#{index}")
                if assertion.prior:
                    referenced.add(assertion.prior)
                referenced |= _placeholders(assertion.value)
                request.assertions.append(assertion)
            undefined = referenced - defined
            if undefined:
                raise CollectionSchemaError(
                    f"{where}: placeholder(s) used before definition: {sorted(undefined)}"
                )
            for capture_raw in request_raw.get("captures", []):
                if "var" not in capture_raw or "path" not in capture_raw:
                    raise CollectionSchemaError(f"{where}: capture needs 'var' and 'path'")
                request.captures.append((capture_raw["var"], capture_raw["path"]))
                defined.add(capture_raw["var"])
            folder.requests.append(request)
        collection.folders.append(folder)
    return collection


def resolve_path(data, path: str):
    """Resolve a dot-path (with integer list indices) or return the MISSING sentinel."""
    current = data
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return _MISSING
            current = current[segment]
        elif isinstance(current, list):
            try:
                index = int(segment)
            except ValueError:
                return _MISSING
            if not -len(current) <= index < len(current):
                return _MISSING
            current = current[index]
        else:
            return _MISSING
    return current


def _render(text: str, variables: dict) -> str:
    """Substitute {{name}}; an undefined name stays as literal text, so a
    request whose upstream capture failed still goes out (and fails loudly)."""

    def replace(match):
        name = match.group(1)
        if name not in variables:
            return match.group(0)
        value = variables[name]
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    return _PLACEHOLDER_RE.sub(replace, text)


def _render_value(value, variables):
    if isinstance(value, str):
        return _render(value, variables)
    if isinstance(value, dict):
        return {k: _render_value(v, variables) for k, v in value.items()}
    if isinstance(value, list):
        return [_render_value(v, variables) for v in value]
    return value


def evaluate_assertion(assertion: Assertion, status: int, body, variables: dict):
    """Returns (passed, detail) for one assertion against one response."""
    if assertion.kind == "status_code":
        if status == assertion.expect:
            return True, "ok"
        return False, f"expected status {assertion.expect}, got {status}"

    if not isinstance(body, (dict, list)):
        return False, "response is not JSON"
    found = resolve_path(body, assertion.target)

    if assertion.kind == "property_presence":
        if found is _MISSING:
            return False, f"property {assertion.target} missing"
        return True, "ok"

    if assertion.kind == "type_validation":
        if found is _MISSING:
            return False, f"property {assertion.target} missing"
        if _TYPE_CHECKS[assertion.expect](found):
            return True, "ok"
        return False, f"{assertion.target} is {type(found).__name__}, expected {assertion.expect}"

    # state_transition
    if found is _MISSING:
        return False, f"property {assertion.target} missing"
    if assertion.prior not in variables:
        return False, f"prior value {assertion.prior!r} was never captured"
    prior = variables[assertion.prior]
    expect = assertion.expect
    if expect == "became":
        expected_value = _render_value(assertion.value, variables)
        if prior == expected_value:
            return False, f"{assertion.target} already had the expected value before"
        if found == expected_value:
            return True, "ok"
        return False, f"{assertion.target} is {found!r}, expected {expected_value!r}"
    if expect == "changed":
        return (found != prior), ("ok" if found != prior else f"{assertion.target} did not change")
    if expect == "unchanged":
        return (found == prior), ("ok" if found == prior else f"{assertion.target} changed")
    if not isinstance(prior, (int, float)) or not isinstance(found, (int, float)):
        return False, f"{assertion.target} transition needs numeric values"
    expected = prior + assertion.delta if expect == "increased_by" else prior - assertion.delta
    if found == expected:
        return True, "ok"
    return False, f"{assertion.target} is {found!r}, expected {expected!r} (prior {prior!r})"


# Every probe and suite request goes to the run's own server, never through a
# proxy: urlopen's default opener would read http_proxy / HTTP_PROXY, and a
# no_proxy of localhost does not cover 127.0.0.1.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _http_request(url: str, method: str, headers: dict, body_bytes, timeout: float):
    request = urllib.request.Request(url, data=body_bytes, method=method)
    for key, value in headers.items():
        request.add_header(key, value)
    if body_bytes is not None and "Content-Type" not in headers:
        request.add_header("Content-Type", "application/json")
    try:
        with _OPENER.open(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def run_suite(
    collection: TestCollection,
    base_url: str,
    request_timeout: float = 10.0,
) -> SuiteResult:
    """Execute the collection strictly in order against a server.

    No failure is fatal: an unreachable server fails that request's
    assertions and execution moves on; a placeholder whose capture never
    happened goes out as literal text and fails its assertions the same way.
    """
    base = base_url.rstrip("/")
    variables = dict(collection.global_defaults)
    result = SuiteResult(name=collection.name)

    for folder in collection.folders:
        for request in folder.requests:
            def record_all(passed: bool, detail: str):
                for index, assertion in enumerate(request.assertions):
                    result._count(folder.name, request.name, index, assertion.kind, passed, detail)

            path = _render(request.path, variables)
            headers = {k: _render(v, variables) for k, v in request.headers.items()}
            body_bytes = None
            if request.body is not None:
                body_bytes = json.dumps(_render_value(request.body, variables)).encode()

            try:
                status, raw = _http_request(
                    base + path, request.method, headers, body_bytes, request_timeout
                )
            except OSError as exc:
                reason = getattr(exc, "reason", exc)
                record_all(False, f"connection failed: {reason}")
                continue
            except http.client.HTTPException as exc:  # not an HTTP reply, or a cut-off one
                record_all(False, f"malformed response: {exc!r}")
                continue

            result.requests_executed += 1
            try:
                body = json.loads(raw.decode("utf-8")) if raw else None
            except ValueError:
                body = None

            for index, assertion in enumerate(request.assertions):
                passed, detail = evaluate_assertion(assertion, status, body, variables)
                result._count(folder.name, request.name, index, assertion.kind, passed, detail)
            if isinstance(body, (dict, list)):
                for var, capture_path in request.captures:
                    value = resolve_path(body, capture_path)
                    if value is not _MISSING:
                        variables[var] = value
    return result._settle()


def unreachable_result(collection: TestCollection, detail: str) -> SuiteResult:
    """A zero-pass result with every assertion failed with ``detail``; used
    when the server never came up and the suite was not worth running."""
    result = SuiteResult(name=collection.name)
    for folder, *_ in _assertion_keys(collection):
        result.folders.setdefault(folder, [0, 0])[1] += 1
        result.assertions_total += 1
    if result.assertions_total:  # with nothing to fail, it stores as no failed rows
        result.not_run = detail
    return result


def poll_health(
    base_url: str, timeout: float, alive: Callable[[], bool] | None = None
) -> bool:
    """True iff GET {base_url}/health-check answers 200 within ``timeout`` seconds.

    The wait gives up ``timeout`` seconds after it starts, even while a server
    holds a probe unanswered. A probe is one GET. Between probes it sleeps by
    one of two gap rules, each capped by the time left: while the port
    refuses the connection, a twentieth of the time waited; after any other
    failure, ``REPROBE_FIRST_S``, doubling up to ``REPROBE_CAP_S``.
    ``alive``, when given, is asked before every probe; once it answers
    False the wait ends with no further probe, since whatever answers then
    is not the server being waited for.
    """
    if not timeout > 0:
        raise ValueError("timeout must be positive")
    url = base_url.rstrip("/") + "/health-check"
    started = time.monotonic()
    deadline = started + timeout
    http_gap = REPROBE_FIRST_S
    while alive is None or alive():
        probe_timeout = min(PROBE_TIMEOUT_S, max(deadline - time.monotonic(), PROBE_FLOOR_S))
        refused = False
        try:
            status, _ = _http_request(url, "GET", {}, None, probe_timeout)
            if status == 200:
                return True
        except (OSError, http.client.HTTPException) as exc:
            refused = isinstance(getattr(exc, "reason", exc), ConnectionRefusedError)
        now = time.monotonic()
        if now >= deadline:
            return False
        if refused:  # not listening yet
            gap = min(max((now - started) / CONNECT_GAP_DIVISOR, CONNECT_GAP_MIN_S), REPROBE_CAP_S)
        else:
            gap, http_gap = http_gap, min(2 * http_gap, REPROBE_CAP_S)
        time.sleep(min(gap, deadline - now))
    return False
