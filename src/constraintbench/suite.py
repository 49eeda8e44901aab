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
import io
import json
import re
import socket
import string
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from urllib.parse import quote, urljoin, urlsplit

from .errors import CollectionSchemaError, URLSchemeError

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
REQUEST_TIMEOUT_S = 10.0  # a suite request's timeout, unless a config or option sets another

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


# Every probe and suite request goes to the run's own server on a socket of
# its own: no proxy, no TLS, and redirects only within the same origin.
_REDIRECTS = (301, 302, 303, 307, 308)
_MAX_REDIRECTS = 10
_MAX_LINE = 65536  # http.client's limit
_MAX_PIECE = 1 << 20  # a body is read this much at most at a time
_MAX_BODY = 4 << 20  # the longest body a reply may send; no golden reply reaches 1 KiB
_MAX_HEADERS = 100  # http.client's limit
_USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]


class _MalformedResponse(Exception):
    """A reply that is not HTTP or is cut off, named as http.client names it."""


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _DeadlineReader(io.RawIOBase):
    """A socket's bytes, each ``recv`` given only the time left until
    ``deadline``: a buffered read of ``n`` bytes may ``recv`` many times."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock, self._deadline = sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_time_left(self._deadline))
        return self._sock.recv_into(buffer)


def _line(reader, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _MalformedResponse(f"LineTooLong('got more than {_MAX_LINE} bytes when reading {what}')")
    return line


def _read_body(reader, length: int, room: int = _MAX_BODY) -> bytes:
    """Up to ``length`` bytes, or to EOF when ``length`` is negative, read in
    bounded pieces: a reply costs the memory of what it sends, not of the
    length it claims. Sending more than ``room`` bytes makes it malformed."""
    pieces = []
    while length:
        piece = reader.read(_MAX_PIECE if length < 0 else min(length, _MAX_PIECE))
        if not piece:
            break
        room -= len(piece)
        if room < 0:
            raise _MalformedResponse(f"got more than {_MAX_BODY} bytes of body")
        pieces.append(piece)
        length -= len(piece)  # a negative length stays negative
    return b"".join(pieces)


def _send_request(sock, method: str, target: str, host: str, headers: dict, body_bytes):
    """Writes the request urllib would send, with ``Connection: close``."""
    fields = {"Host": host, "User-Agent": _USER_AGENT, "Accept-Encoding": "identity"}
    fields.update((name.title(), value) for name, value in headers.items())
    if body_bytes is not None and "Content-Type" not in headers:
        fields["Content-Type"] = "application/json"
    if body_bytes is not None or method in ("POST", "PUT", "PATCH"):
        fields.setdefault("Content-Length", str(len(body_bytes or b"")))
    fields["Connection"] = "close"
    head = "".join(f"{name}: {value}\r\n" for name, value in fields.items())
    sock.sendall(f"{method} {target} HTTP/1.1\r\n{head}\r\n".encode("latin-1") + (body_bytes or b""))


def _read_response(reader, method: str):
    """(status, Location, body) of the reply, read as http.client reads it."""
    status = 100
    while status < 200:  # an interim 1xx reply is skipped
        line = _line(reader, "status line").decode("iso-8859-1")
        if not line:
            raise ConnectionResetError("Remote end closed connection without response")
        try:
            version, status = line.split(None, 2)[:2]
            status = int(status)
        except ValueError:
            version = ""
        if not version.startswith("HTTP/") or not 100 <= status <= 999:
            raise _MalformedResponse(f"BadStatusLine({line!r})")
        fields, count = {}, 0
        while (field := _line(reader, "header line")) not in (b"\r\n", b"\n", b""):
            count += 1
            if count > _MAX_HEADERS:
                raise _MalformedResponse(f"HTTPException('got more than {_MAX_HEADERS} headers')")
            name, _, value = field.decode("iso-8859-1").partition(":")
            fields.setdefault(name.strip().lower(), value.strip())
    if version not in ("HTTP/1.0", "HTTP/0.9") and not version.startswith("HTTP/1."):
        raise _MalformedResponse(f"UnknownProtocol({version!r})")
    chunked = fields.get("transfer-encoding", "").lower() == "chunked"
    if method == "HEAD" or status in (204, 304) and not chunked:
        return status, fields.get("location"), b""
    if chunked:
        return status, fields.get("location"), _read_chunked(reader)
    try:
        length = int(fields.get("content-length", ""))
    except ValueError:
        length = -1  # like any negative length: read to EOF
    body = _read_body(reader, length)
    if len(body) < length:
        raise _MalformedResponse(
            f"IncompleteRead({len(body)} bytes read, {length - len(body)} more expected)")
    return status, fields.get("location"), body


def _read_chunked(reader) -> bytes:
    chunks, room = [], _MAX_BODY
    while True:
        try:
            size = int(_line(reader, "chunk size").split(b";", 1)[0], 16)
        except ValueError:
            size = -1
        if size == 0:
            break
        chunk = _read_body(reader, max(size, 0), room)
        room -= len(chunk)
        if len(chunk) == size:
            chunks.append(chunk)
        if len(chunk) != size or len(reader.read(2)) < 2:
            raise _MalformedResponse(f"IncompleteRead({sum(map(len, chunks))} bytes read)")
    while _line(reader, "trailer line") not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def _split_url(url: str):
    parts = urlsplit(url)
    if parts.scheme != "http":
        raise URLSchemeError(f"only http:// URLs can be requested, got {url!r}")
    return parts


def _http_request(url: str, method: str, headers: dict, body_bytes, timeout: float):
    """(status, body) of one request, which each hop writes only once its
    own connection is open. The request, every redirect hop included, ends
    ``timeout`` seconds after it starts. Raises OSError when a connection
    fails or the time is up, and _MalformedResponse on a reply that is not
    HTTP."""
    deadline = time.monotonic() + timeout
    parts = _split_url(url)
    origin = (parts.hostname, parts.port or 80)
    for hop in range(_MAX_REDIRECTS + 1):
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        with socket.create_connection(origin, _time_left(deadline)) as sock:
            sock.settimeout(_time_left(deadline))
            _send_request(sock, method, target, parts.netloc, headers, body_bytes)
            with io.BufferedReader(_DeadlineReader(sock, deadline)) as reader:
                status, location, body = _read_response(reader, method)
        follow = method in ("GET", "HEAD") or (method == "POST" and status in (301, 302, 303))
        if status not in _REDIRECTS or location is None or not follow or hop == _MAX_REDIRECTS:
            return status, body
        url = urljoin(url, quote(location, encoding="iso-8859-1", safe=string.punctuation))
        parts = urlsplit(url)
        if parts.scheme != "http" or (parts.hostname, parts.port or 80) != origin:
            return status, body
        method, body_bytes = ("HEAD" if method == "HEAD" else "GET"), None
        headers = {name: value for name, value in headers.items()
                   if name.lower() not in ("content-length", "content-type")}


def run_suite(
    collection: TestCollection,
    base_url: str,
    request_timeout: float = REQUEST_TIMEOUT_S,
) -> SuiteResult:
    """Execute the collection strictly in order against a server.

    No failure is fatal: an unreachable server fails that request's
    assertions and execution moves on; a placeholder whose capture never
    happened goes out as literal text and fails its assertions the same way.
    """
    _split_url(base_url)
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
                record_all(False, f"connection failed: {exc}")
                continue
            except _MalformedResponse as exc:
                record_all(False, f"malformed response: {exc}")
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
    for key in _assertion_keys(collection):
        result._count(*key, False, detail)
    return result._settle()


def poll_health(
    base_url: str, timeout: float, alive: Callable[[], bool] | None = None
) -> bool:
    """True iff GET {base_url}/health-check answers 200 within ``timeout`` seconds.

    The wait gives up ``timeout`` seconds after it starts, even while a server
    holds a probe unanswered. A probe connects first, and sends its one GET
    only on the connection it opened. Between probes it sleeps by
    one of two gap rules, each capped by the time left: while the port
    refuses the connection, a twentieth of the time waited; after any other
    failure, ``REPROBE_FIRST_S``, doubling up to ``REPROBE_CAP_S``.
    ``alive``, when given, is asked before every probe; once it answers
    False the wait ends with no further probe, since whatever answers then
    is not the server being waited for.
    """
    if not timeout > 0:
        raise ValueError("timeout must be positive")
    _split_url(base_url)
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
        except (OSError, _MalformedResponse) as exc:
            refused = isinstance(exc, ConnectionRefusedError)
        now = time.monotonic()
        if now >= deadline:
            return False
        if refused:  # not listening yet
            gap = min(max((now - started) / CONNECT_GAP_DIVISOR, CONNECT_GAP_MIN_S), REPROBE_CAP_S)
        else:
            gap, http_gap = http_gap, min(2 * http_gap, REPROBE_CAP_S)
        time.sleep(min(gap, deadline - now))
    return False
