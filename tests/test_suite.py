import contextlib
import dataclasses
import hashlib
import importlib.util
import json
import socket
import socketserver
import threading
import time
import tracemalloc
import urllib.request
from importlib import resources
from pathlib import Path

import pytest

from constraintbench import suite
from constraintbench.errors import CollectionSchemaError
from constraintbench.refserver import ServerHandle
from constraintbench.suite import (
    Assertion,
    SuiteResult,
    evaluate_assertion,
    load_collection,
    poll_health,
    resolve_path,
    run_suite,
    unreachable_result,
)

TABLE_COUNTS = {
    "Auth": (5, 30),
    "Articles": (4, 20),
    "Articles, Favorites, Comments": (18, 212),
    "Profiles": (4, 26),
    "Tags": (1, 3),
}


def test_shipped_collection_static_counts(conduit_collection):
    per_folder = {
        f.name: (len(f.requests), sum(len(r.assertions) for r in f.requests))
        for f in conduit_collection.folders
    }
    assert sum(requests for requests, _ in per_folder.values()) == 32
    assert sum(assertions for _, assertions in per_folder.values()) == 291
    assert per_folder == TABLE_COUNTS


def test_shipped_collection_is_what_the_build_tool_writes():
    tool = Path(__file__).resolve().parents[1] / "tools" / "build_collection.py"
    spec = importlib.util.spec_from_file_location("build_collection", tool)
    build_collection = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(build_collection)
    shipped = resources.files("constraintbench").joinpath("assets/collections/conduit.json")
    built = json.dumps(build_collection.build(), indent=2) + "\n"
    assert built.encode("utf-8") == shipped.read_bytes()


def test_empty_collection_is_valid():
    collection = load_collection('{"name": "empty", "folders": []}')
    assert collection.folders == []


def test_collection_must_be_json():
    with pytest.raises(CollectionSchemaError, match="not valid JSON"):
        load_collection("{oops")


def test_schema_error_names_location():
    doc = {
        "name": "broken",
        "folders": [
            {"name": "F", "requests": [{"name": "R", "method": "YOINK", "path": "/x"}]}
        ],
    }
    with pytest.raises(CollectionSchemaError, match="F/R"):
        load_collection(json.dumps(doc))


def test_placeholder_before_definition_rejected():
    doc = {
        "name": "c",
        "folders": [
            {
                "name": "F",
                "requests": [
                    {"name": "uses", "method": "GET", "path": "/items/{{item_id}}",
                     "assertions": [{"kind": "status_code", "expect": 200}]},
                ],
            }
        ],
    }
    with pytest.raises(CollectionSchemaError, match="item_id"):
        load_collection(json.dumps(doc))


def test_placeholder_defined_by_prior_capture_accepted():
    doc = {
        "name": "c",
        "folders": [
            {
                "name": "F",
                "requests": [
                    {"name": "makes", "method": "POST", "path": "/items",
                     "assertions": [], "captures": [{"var": "item_id", "path": "item.id"}]},
                    {"name": "uses", "method": "GET", "path": "/items/{{item_id}}",
                     "assertions": []},
                ],
            }
        ],
    }
    collection = load_collection(json.dumps(doc))
    assert collection.folders[0].requests[1].path == "/items/{{item_id}}"


def test_transition_prior_counts_as_reference():
    doc = {
        "name": "c",
        "folders": [
            {
                "name": "F",
                "requests": [
                    {"name": "r", "method": "GET", "path": "/x",
                     "assertions": [{"kind": "state_transition", "target": "a.b",
                                     "expect": "changed", "prior": "ghost"}]},
                ],
            }
        ],
    }
    with pytest.raises(CollectionSchemaError, match="ghost"):
        load_collection(json.dumps(doc))


@pytest.mark.parametrize(
    "path,expected",
    [
        ("user.token", "tok"),
        ("articles.0.slug", "first"),
        ("articles.1.slug", "second"),
        ("articles.2.slug", None),
        ("missing.key", None),
        ("user.token.deeper", None),
    ],
)
def test_resolve_path(path, expected):
    data = {"user": {"token": "tok"}, "articles": [{"slug": "first"}, {"slug": "second"}]}
    value = resolve_path(data, path)
    if expected is None:
        assert type(value).__name__ == "object"  # the MISSING sentinel
    else:
        assert value == expected


def test_assertion_kinds():
    body = {"article": {"favorited": True, "favoritesCount": 3, "tagList": ["a"]}}
    checks = [
        (Assertion("status_code", expect=200), 200, True),
        (Assertion("status_code", expect=200), 404, False),
        (Assertion("property_presence", target="article.favorited"), 200, True),
        (Assertion("property_presence", target="article.nope"), 200, False),
        (Assertion("type_validation", target="article.tagList", expect="array"), 200, True),
        (Assertion("type_validation", target="article.favoritesCount", expect="boolean"), 200, False),
    ]
    for assertion, status, should_pass in checks:
        passed, _ = evaluate_assertion(assertion, status, body, {})
        assert passed is should_pass, assertion


def test_boolean_is_not_integer():
    body = {"flag": True}
    passed, _ = evaluate_assertion(
        Assertion("type_validation", target="flag", expect="integer"), 200, body, {}
    )
    assert passed is False


def test_state_transitions():
    body = {"a": {"count": 4, "flag": True}}
    variables = {"prior_count": 3, "prior_flag": False, "same": 4}
    cases = [
        (Assertion("state_transition", target="a.count", expect="increased_by",
                   prior="prior_count", delta=1), True),
        (Assertion("state_transition", target="a.count", expect="decreased_by",
                   prior="prior_count", delta=1), False),
        (Assertion("state_transition", target="a.flag", expect="became",
                   prior="prior_flag", value=True), True),
        (Assertion("state_transition", target="a.count", expect="unchanged",
                   prior="same"), True),
        (Assertion("state_transition", target="a.count", expect="changed",
                   prior="prior_count"), True),
    ]
    for assertion, should_pass in cases:
        passed, detail = evaluate_assertion(assertion, 200, body, variables)
        assert passed is should_pass, (assertion, detail)


def test_became_requires_actual_flip():
    body = {"flag": True}
    assertion = Assertion("state_transition", target="flag", expect="became",
                          prior="p", value=True)
    passed, detail = evaluate_assertion(assertion, 200, body, {"p": True})
    assert passed is False and "already" in detail


def test_transition_with_missing_prior_fails():
    assertion = Assertion("state_transition", target="flag", expect="changed", prior="nope")
    passed, detail = evaluate_assertion(assertion, 200, {"flag": 1}, {})
    assert passed is False and "never captured" in detail


def test_full_suite_against_reference_server(conduit_collection):
    with ServerHandle(port=0) as server:
        result = run_suite(conduit_collection, server.base_url)
    assert result.assertions_passed == 291
    assert result.assertions_total == 291
    assert result.requests_executed == 32


def test_a_proxy_setting_never_diverts_the_harness(monkeypatch, conduit_collection):
    dead_proxy = "http://127.0.0.1:9"
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, dead_proxy)
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    # urlopen builds its default opener, which reads the proxy variables, on first use
    monkeypatch.setattr(urllib.request, "_opener", None)
    with ServerHandle(port=0) as server:
        result = run_suite(conduit_collection, server.base_url)
        healthy = poll_health(server.base_url, timeout=2.0)
    assert (result.assertions_passed, result.assertions_total) == (291, 291)
    assert healthy is True


def test_suite_deterministic_across_fresh_servers(conduit_collection):
    with ServerHandle(port=0) as server:
        first = run_suite(conduit_collection, server.base_url)
    with ServerHandle(port=0) as server:
        second = run_suite(conduit_collection, server.base_url)
    assert first.to_json() == second.to_json()


def test_closed_port_fails_everything(conduit_collection):
    result = run_suite(conduit_collection, "http://127.0.0.1:1/api", request_timeout=2)
    assert result.assertions_passed == 0
    assert result.assertions_total == 291
    assert result.requests_executed == 0
    assert result.not_run.startswith("connection failed")
    assert result.failures == []


COMMENT_REQUESTS = {
    "Create Comment": 11,
    "All Comments for Article": 10,
    "Delete Comment": 1,
    "All Comments after Delete": 4,
}


def test_comments_disabled_fails_exactly_the_comment_assertions(conduit_collection):
    with ServerHandle(port=0, disabled=["comments"]) as server:
        result = run_suite(conduit_collection, server.base_url)
    failed = result.failures
    assert result.assertions_passed == 291 - sum(COMMENT_REQUESTS.values())
    per_request = {}
    for outcome in failed:
        per_request[outcome.request] = per_request.get(outcome.request, 0) + 1
    assert per_request == COMMENT_REQUESTS


# Hand counts for the other feature toggles:
# favorites off: Favorite Article 404s (18), Unfavorite 404s (18);
#   Single after Favorite keeps its 16 core checks but loses both transitions
#   (favorited stays false, count stays 0) -> 2; Single after Unfavorite loses
#   only `became false` because the prior it captured is already false -> 1;
#   the favorited-by listing is empty so its five articles.0.* checks fail -> 5.
FAVORITES_OFF = {
    "Favorite Article": 18,
    "Unfavorite Article": 18,
    "Single Article after Favorite": 2,
    "Single Article after Unfavorite": 1,
    "Articles Favorited With Data": 5,
}
# profiles off: all three profile requests 404 wholesale (Register Celeb is
# a /users route and stays up).
PROFILES_OFF = {"Profile": 6, "Follow Profile": 7, "Unfollow Profile": 7}


@pytest.mark.parametrize(
    "group,expected",
    [("favorites", FAVORITES_OFF), ("profiles", PROFILES_OFF)],
)
def test_other_feature_toggles_hand_counts(conduit_collection, group, expected):
    with ServerHandle(port=0, disabled=[group]) as server:
        result = run_suite(conduit_collection, server.base_url)
    per_request = {}
    for outcome in result.failures:
        per_request[outcome.request] = per_request.get(outcome.request, 0) + 1
    assert per_request == expected
    assert result.assertions_passed == 291 - sum(expected.values())


def test_feature_removal_monotone(conduit_collection):
    with ServerHandle(port=0) as server:
        full = run_suite(conduit_collection, server.base_url).assertions_passed
    for group in ("comments", "favorites", "profiles"):
        with ServerHandle(port=0, disabled=[group]) as server:
            partial = run_suite(conduit_collection, server.base_url).assertions_passed
        assert partial < full


THREE_ASSERTIONS = load_collection(json.dumps({"name": "three", "folders": [
    {"name": "H", "requests": [
        {"name": "a", "method": "GET", "path": "/a", "assertions": [
            {"kind": "status_code", "expect": 200}, {"kind": "status_code", "expect": 201}]},
        {"name": "b", "method": "GET", "path": "/b", "assertions": [
            {"kind": "status_code", "expect": 200}]}]},
    {"name": "Empty", "requests": []}]}))
NO_ASSERTIONS = load_collection(json.dumps({"name": "none", "folders": [
    {"name": "A", "requests": [{"name": "r", "method": "GET", "path": "/x"}]}]}))


def _three_failed(details, requests_executed):
    keys = [("a", 0), ("a", 1), ("b", 0)]
    return {
        "name": "three", "requests_executed": requests_executed,
        "assertions_total": 3, "assertions_passed": 0, "folders": {"H": [0, 3]},
        "failed": [{"folder": "H", "request": request, "index": index,
                    "kind": "status_code", "detail": detail}
                   for (request, index), detail in zip(keys, details)],
    }


def test_stored_form_round_trips_every_outcome(conduit_collection):
    with ServerHandle(port=0, disabled=["profiles"]) as server:
        result = run_suite(conduit_collection, server.base_url)
    stored = json.loads(result.to_json())
    assert "per_assertion" not in stored
    assert len(stored["failed"]) == sum(PROFILES_OFF.values())
    assert stored["folders"]["Profiles"] == [26 - sum(PROFILES_OFF.values()), 26]
    assert SuiteResult.from_record(stored, conduit_collection) == result

    # not_run: no request answered and every failure has the same detail
    for details, executed, not_run in [
        (["x", "x", "x"], 0, "x"),
        (["x", "y", "x"], 0, None),
        (["x", "x", "x"], 2, None),
    ]:
        payload = _three_failed(details, executed)
        result = SuiteResult.from_record(payload, THREE_ASSERTIONS)
        assert result.not_run == not_run
        assert len(result.failures) == (0 if not_run else 3)
        if not_run:
            del payload["failed"]
            payload["not_run"] = not_run
        assert result.to_dict() == payload
        assert SuiteResult.from_record(result.to_dict(), THREE_ASSERTIONS) == result


def test_unreachable_result_stored_as_not_run(conduit_collection):
    result = unreachable_result(conduit_collection, "server unreachable")
    stored = result.to_dict()
    assert stored["not_run"] == "server unreachable"
    assert "failed" not in stored
    assert stored["assertions_total"] == 291
    assert SuiteResult.from_record(stored, conduit_collection) == result

    # with no assertion to fail, nothing is stored as not run
    for result in (
        unreachable_result(NO_ASSERTIONS, "server unreachable"),
        run_suite(NO_ASSERTIONS, "http://127.0.0.1:1/api", request_timeout=2),
    ):
        stored = result.to_dict()
        assert stored == {"name": "none", "requests_executed": 0, "assertions_total": 0,
                          "assertions_passed": 0, "folders": {}, "failed": []}
        assert SuiteResult.from_record(stored, NO_ASSERTIONS) == result


def test_from_record_rejects_another_collection(conduit_collection):
    mini = load_collection(json.dumps({"name": "mini", "folders": [{"name": "Auth", "requests": [
        {"name": "Login", "method": "GET", "path": "/x",
         "assertions": [{"kind": "status_code", "expect": 200}]}]}]}))
    stored = unreachable_result(conduit_collection, "server unreachable").to_dict()
    with pytest.raises(ValueError):
        SuiteResult.from_record(stored, mini)


@pytest.mark.parametrize(
    "mismatch", ["repeated request", "unknown row", "total", "passed", "folders"]
)
def test_from_record_rejects_a_record_that_does_not_fit(mismatch):
    payload, collection = _three_failed("xyz", 1), THREE_ASSERTIONS
    SuiteResult.from_record(payload, collection)  # fits as it is
    if mismatch == "repeated request":
        collection = load_collection(json.dumps({"name": "three", "folders": [
            {"name": "H", "requests": [
                {"name": "a", "method": "GET", "path": path,
                 "assertions": [{"kind": "status_code", "expect": 200}]}
                for path in ("/a", "/b", "/c")]}]}))
    elif mismatch == "unknown row":
        payload["failed"][2]["request"] = "c"
    elif mismatch == "total":
        payload["assertions_total"] = 4
    elif mismatch == "folders":
        payload["folders"] = {"H": [1, 3]}
    else:
        payload["assertions_passed"] = 1
    with pytest.raises(ValueError):
        SuiteResult.from_record(payload, collection)


def test_unreachable_result_shape(conduit_collection):
    result = unreachable_result(conduit_collection, "server unreachable")
    assert result.assertions_total == 291
    assert result.assertions_passed == 0
    assert result.requests_executed == 0


def test_outcomes_are_immutable():
    [outcome, *_] = SuiteResult.from_record(_three_failed("xyx", 0), THREE_ASSERTIONS).failures
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.detail = "ok"


def test_many_suites_hold_one_set_of_outcomes(conduit_collection):
    passing = unreachable_result(conduit_collection, "server unreachable").to_dict()
    del passing["not_run"]
    passing.update(failed=[], assertions_passed=291, requests_executed=32,
                   folders={folder: [total, total] for folder, (_, total)
                            in passing["folders"].items()})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [unreachable_result(conduit_collection, "server exited") for _ in range(100)]
        held += [SuiteResult.from_record(passing, conduit_collection) for _ in range(100)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(r.assertions_passed for r in held) == 100 * 291
    # 200 suites' counts and folder tallies take about 0.15 MB; a list of 291
    # outcome references per suite would add 0.5 MB
    assert retained < 300_000
    assert all(r.failures == [] for r in held)


def test_suite_csv_row_count(conduit_collection):
    with ServerHandle(port=0) as server:
        result = run_suite(conduit_collection, server.base_url)
    lines = result.to_csv(conduit_collection).strip().splitlines()
    assert lines[0] == "folder,request,index,kind,passed,detail"
    assert len(lines) == 292


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_suite_csv_has_a_row_for_every_assertion(conduit_collection):
    # digests of what the earlier, one-outcome-per-assertion form wrote
    with ServerHandle(port=0, disabled=["comments"]) as server:
        partial = run_suite(conduit_collection, server.base_url)
    assert _sha256(partial.to_csv(conduit_collection)) == (
        "b648e08fc1160bc8aacaccd728365fbae2a1097f61d49c8cfa0ff410847c1188"
    )
    not_run = unreachable_result(conduit_collection, "server unreachable")
    assert _sha256(not_run.to_csv(conduit_collection)) == (
        "c38c3428e0dafa7cb61a67f207ae15e55c9beff0ff10f080956eef10fa044f88"
    )
    assert SuiteResult.from_record(_three_failed("xxx", 0), THREE_ASSERTIONS).to_csv(
        THREE_ASSERTIONS
    ) == (
        "folder,request,index,kind,passed,detail\n"
        "H,a,0,status_code,False,x\nH,a,1,status_code,False,x\nH,b,0,status_code,False,x\n"
    )


def test_poll_health_immediate(conduit_collection):
    with ServerHandle(port=0) as server:
        assert poll_health(server.base_url, timeout=0.2)


def test_poll_health_never_starts_respects_bounds():
    start = time.monotonic()
    ok = poll_health("http://127.0.0.1:1/api", timeout=0.8)
    elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed < 5


def test_poll_health_gives_up_on_a_server_that_never_answers():
    # the kernel completes connections to a listening socket nobody accepts
    # from, so each probe waits for a reply that never comes
    with socket.socket() as silent:
        silent.bind(("127.0.0.1", 0))
        silent.listen(8)
        port = silent.getsockname()[1]
        start = time.monotonic()
        ok = poll_health(f"http://127.0.0.1:{port}/api", timeout=0.8)
        elapsed = time.monotonic() - start
    assert ok is False
    # give-up point: 0.8 s after the start, however long a probe may wait
    assert 0.8 <= elapsed < 1.2


# replies that are not HTTP (BadStatusLine) or end before their body (IncompleteRead)
MALFORMED_REPLIES = {
    "BadStatusLine": b"garbage\r\n\r\n",
    "IncompleteRead": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
}


class _MalformedReply(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.recv(65536)
        self.request.sendall(self.server.reply)


@contextlib.contextmanager
def malformed_server(reply: bytes):
    """A base URL whose server answers every request with ``reply`` and hangs up."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _MalformedReply)
    server.reply = reply
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/api"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def health_only():
    """A collection of one request, GET /health-check, expecting 200."""
    request = {"name": "health", "method": "GET", "path": "/health-check",
               "assertions": [{"kind": "status_code", "expect": 200}]}
    return load_collection(
        json.dumps({"name": "one", "folders": [{"name": "Health", "requests": [request]}]})
    )


@pytest.mark.parametrize("error", sorted(MALFORMED_REPLIES))
def test_run_suite_fails_the_requests_a_malformed_reply_answers(error):
    with malformed_server(MALFORMED_REPLIES[error]) as base_url:
        result = run_suite(health_only(), base_url, request_timeout=2)
    assert (result.assertions_passed, result.assertions_total) == (0, 1)
    assert result.not_run.startswith(f"malformed response: {error}(")


@pytest.mark.parametrize("error", sorted(MALFORMED_REPLIES))
def test_poll_health_treats_a_malformed_reply_as_not_healthy(error):
    with malformed_server(MALFORMED_REPLIES[error]) as base_url:
        start = time.monotonic()
        ok = poll_health(base_url, timeout=0.2)
        elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed < 1.0


# replies that claim a body of 10^12 bytes, by length or by chunk size, and send five
HUGE_CLAIMS = {
    "length": (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\nshort",
               "IncompleteRead(5 bytes read, 999999999995 more expected)"),
    "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nE8D4A51000\r\nshort",
                "IncompleteRead(0 bytes read)"),
}


@pytest.mark.parametrize("claim", sorted(HUGE_CLAIMS))
def test_run_suite_fails_a_request_whose_reply_claims_a_huge_body(claim):
    reply, error = HUGE_CLAIMS[claim]
    with malformed_server(reply) as base_url:
        result = run_suite(health_only(), base_url, request_timeout=2)
    assert result.not_run == f"malformed response: {error}"


@pytest.mark.parametrize("claim", sorted(HUGE_CLAIMS))
def test_poll_health_treats_a_huge_body_claim_as_not_healthy(claim):
    with malformed_server(HUGE_CLAIMS[claim][0]) as base_url:
        start = time.monotonic()
        ok = poll_health(base_url, timeout=0.2)
        elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed < 1.0


BODY_CAP = 4 << 20


def _reply(size: int, framing: str, headers: int = 1) -> bytes:
    """A 200 reply that sends a ``size``-byte body by ``framing`` and has
    ``headers`` headers."""
    body = b"x" * size
    head = [b"X-Filler: 1"] * (headers - 1)
    if framing == "length":
        head.append(b"Content-Length: %d" % len(body))
    elif framing == "chunked":  # in two chunks, each under the cap
        half = len(body) // 2
        head.append(b"Transfer-Encoding: chunked")
        body = b"".join(b"%x\r\n%s\r\n" % (len(part), part) for part in (body[:half], body[half:]))
        body += b"0\r\n\r\n"
    else:
        head.append(b"X-Framing: close")
    return b"HTTP/1.1 200 OK\r\n" + b"".join(line + b"\r\n" for line in head) + b"\r\n" + body


# replies over a cap, as _reply's arguments: a body longer than 4 MiB however
# it is framed, and 101 headers
TOO_LONG = f"got more than {BODY_CAP} bytes of body"
OVER_CAP = {
    "close": ((BODY_CAP + 1, "close"), TOO_LONG),
    "length": ((BODY_CAP + 1, "length"), TOO_LONG),
    "chunked": ((BODY_CAP + 1, "chunked"), TOO_LONG),
    "headers": ((0, "length", 101), "HTTPException('got more than 100 headers')"),
}


@pytest.mark.parametrize("case", sorted(OVER_CAP))
def test_run_suite_fails_a_reply_over_a_cap(case):
    reply, error = OVER_CAP[case]
    with malformed_server(_reply(*reply)) as base_url:
        result = run_suite(health_only(), base_url, request_timeout=2)
    assert result.not_run == f"malformed response: {error}"


@pytest.mark.parametrize("case", sorted(OVER_CAP))
def test_poll_health_treats_a_reply_over_a_cap_as_not_healthy(case):
    with malformed_server(_reply(*OVER_CAP[case][0])) as base_url:
        start = time.monotonic()
        ok = poll_health(base_url, timeout=0.2)
        elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed < 1.0


@pytest.mark.parametrize("reply", [
    (BODY_CAP, "close"), (BODY_CAP, "chunked"), (0, "length", 100),
], ids=["close", "chunked", "headers"])
def test_a_reply_at_each_cap_is_read(reply):
    with malformed_server(_reply(*reply)) as base_url:
        result = run_suite(health_only(), base_url, request_timeout=2)
        assert poll_health(base_url, timeout=1.0) is True
    assert (result.assertions_passed, result.assertions_total) == (1, 1)


@contextlib.contextmanager
def trickling_server(pieces: list[bytes], gap: float):
    """A base URL whose server, one thread, takes each connection in turn,
    reads its request and sends ``pieces`` one at a time, ``gap`` seconds
    apart, until they are sent, the client hangs up or the test ends."""
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.01)

    def serve():
        while not stop.is_set():
            try:
                connection, _ = listener.accept()
            except TimeoutError:
                continue
            with connection:
                connection.recv(65536)
                for piece in pieces:
                    if stop.wait(gap):
                        break
                    try:
                        connection.sendall(piece)
                    except OSError:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/api"
    finally:
        stop.set()
        thread.join()
        listener.close()


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
# replies that each take about 3 s in all, though no gap between two sends
# reaches a request's 0.5 s
SLOW_REPLIES = {
    "body": ([b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n"] + [b"x"] * 12, 0.25),
    "head": ([OK_REPLY[i:i + 1] for i in range(len(OK_REPLY))], 0.08),
    "close": ([b"HTTP/1.1 200 OK\r\n\r\n"] + [b"x" * 10] * 30, 0.1),
    "chunked": ([b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"]
                + [b"a\r\nxxxxxxxxxx\r\n"] * 30, 0.1),
    "interim": ([b"HTTP/1.1 100 Continue\r\n\r\n"] * 30 + [OK_REPLY], 0.1),
    "redirects": ([b"HTTP/1.1 302 Found\r\nLocation: /api/health-check\r\n"
                   b"Content-Length: 0\r\n\r\n"], 0.25),
}


@pytest.mark.parametrize("reply", sorted(SLOW_REPLIES))
def test_a_request_ends_at_its_timeout_however_the_reply_trickles(reply):
    with trickling_server(*SLOW_REPLIES[reply]) as base_url:
        start = time.monotonic()
        result = run_suite(health_only(), base_url, request_timeout=0.5)
        elapsed = time.monotonic() - start
    assert result.not_run == "connection failed: timed out"
    assert elapsed < 0.5 + 0.3


@pytest.mark.parametrize("reply", sorted(SLOW_REPLIES))
def test_poll_health_ends_at_its_timeout_however_the_reply_trickles(reply):
    with trickling_server(*SLOW_REPLIES[reply]) as base_url:
        start = time.monotonic()
        ok = poll_health(base_url, timeout=0.5)
        elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed < 0.5 + 0.3


def test_poll_health_server_starts_late():
    handle = ServerHandle(port=0)
    port = handle.port

    def delayed_start():
        time.sleep(0.6)
        handle._thread.start()

    thread = threading.Thread(target=delayed_start)
    thread.start()
    try:
        ok = poll_health(f"http://127.0.0.1:{port}/api", timeout=5.8)
        assert ok is True
    finally:
        thread.join()
        handle.stop()


def test_poll_health_timeout_must_be_positive():
    with pytest.raises(ValueError):
        poll_health("http://127.0.0.1:1/api", timeout=0)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_poll_health_finds_late_server_between_scheduled_probes():
    port = _free_port()
    handles = []

    def delayed_start():
        time.sleep(0.2)
        handles.append(ServerHandle(port=port).start())

    thread = threading.Thread(target=delayed_start)
    start = time.monotonic()
    thread.start()
    try:
        ok = poll_health(f"http://127.0.0.1:{port}/api", timeout=8.0)
        elapsed = time.monotonic() - start
    finally:
        thread.join(timeout=5)
        for handle in handles:
            handle.stop()
    assert ok is True
    # probes every 2 s would find it only at 2 s
    assert elapsed < 1.0


def test_poll_health_alive_keeps_full_give_up_schedule():
    asked = []

    def alive():
        asked.append(time.monotonic())
        return True

    start = time.monotonic()
    ok = poll_health("http://127.0.0.1:1/api", timeout=0.6, alive=alive)
    elapsed = time.monotonic() - start
    assert ok is False
    assert elapsed >= 0.6
    assert len(asked) > 4  # asked before each of the many probes, not only a few


def test_poll_health_stops_soon_after_alive_turns_false():
    dies_at = time.monotonic() + 0.3
    ok = poll_health(
        "http://127.0.0.1:1/api", timeout=9.5, alive=lambda: time.monotonic() < dies_at
    )
    assert ok is False
    assert time.monotonic() - dies_at < 0.2


def test_poll_health_never_probes_once_not_alive():
    # whatever answers on the port is not the server being waited for
    with ServerHandle(port=0) as server:
        assert poll_health(server.base_url, timeout=0.2, alive=lambda: False) is False


class FakeClock:
    """Stands in for ``suite.time``: time moves only when poll_health sleeps."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []  # (when, how long)

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append((self.now, seconds))
        self.now += seconds


def test_poll_health_connects_again_after_a_twentieth_of_the_time_waited(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(suite, "time", clock)
    ok = poll_health("http://127.0.0.1:1/api", timeout=0.8)
    assert ok is False
    assert clock.now == pytest.approx(0.8)
    assert clock.sleeps[0] == (0.0, 0.001)
    for when, slept in clock.sleeps:
        assert slept == pytest.approx(min(max(when / 20, 0.001), 0.05, 0.8 - when))


class _CountingHandler(socketserver.BaseRequestHandler):
    """Counts the requests each connection carries; answers 503 to the
    first ``server.unready`` of them and 200 after."""

    def setup(self):
        self.requests = 0

    def handle(self):
        received = b""
        try:
            while chunk := self.request.recv(65536):
                received += chunk
                while received.count(b"\r\n\r\n") > self.requests:
                    self.requests += 1
                    with self.server.lock:
                        self.server.answered += 1
                        ready = self.server.answered > self.server.unready
                    status = b"200 OK" if ready else b"503 Service Unavailable"
                    self.request.sendall(b"HTTP/1.1 " + status
                                         + b"\r\nContent-Length: 2\r\n\r\n{}")
        finally:
            self.server.per_connection.append(self.requests)


def test_poll_health_sends_one_request_on_each_connection_it_opens(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(suite, "time", clock)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CountingHandler)
    server.lock, server.answered, server.unready, server.per_connection = (
        threading.Lock(), 0, 3, [])
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        ok = poll_health(f"http://127.0.0.1:{server.server_address[1]}/api", timeout=9.5)
    finally:
        server.shutdown()
        server.server_close()  # waits for the handler threads
        thread.join(timeout=5)
    assert ok is True
    assert server.per_connection == [1, 1, 1, 1]
    # a port that accepts but does not answer 200 keeps the HTTP schedule
    assert [slept for _, slept in clock.sleeps] == [0.01, 0.02, 0.04]


def test_poll_health_writes_no_request_while_the_port_refuses(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(suite, "time", clock)
    written = []
    monkeypatch.setattr(suite, "_send_request", lambda *args: written.append(args))
    assert poll_health("http://127.0.0.1:1/api", timeout=0.8) is False
    assert clock.now == pytest.approx(0.8)
    assert len(clock.sleeps) > 20
    assert written == []


ONE_HEALTH_REQUEST = load_collection(json.dumps({"name": "one", "folders": [{
    "name": "Health",
    "requests": [{"name": "health", "method": "GET", "path": "/health-check",
                  "assertions": [{"kind": "status_code", "expect": 200}]}],
}]}))


@contextlib.contextmanager
def redirect_to_another_server():
    """A base URL whose server answers every request with a 302 to the
    health check of another, healthy server on another port."""
    with ServerHandle(port=0) as other:
        moved = (f"HTTP/1.1 302 Found\r\nLocation: {other.base_url}/health-check\r\n"
                 "Content-Length: 5\r\n\r\nmoved").encode()
        with malformed_server(moved) as base_url:
            yield base_url


def test_run_suite_never_follows_a_redirect_to_another_port():
    with redirect_to_another_server() as base_url:
        result = run_suite(ONE_HEALTH_REQUEST, base_url, request_timeout=2)
    assert (result.requests_executed, result.assertions_passed) == (1, 0)
    assert [o.detail for o in result.failures] == ["expected status 200, got 302"]


def test_poll_health_never_follows_a_redirect_to_another_port():
    with redirect_to_another_server() as base_url:
        assert poll_health(base_url, timeout=0.3) is False


@pytest.mark.parametrize("url", ["https://127.0.0.1:1/api", "ftp://127.0.0.1:1/api", "127.0.0.1:1"])
def test_only_http_urls_are_requested(url):
    with pytest.raises(ValueError, match="only http://"):
        run_suite(ONE_HEALTH_REQUEST, url)
    with pytest.raises(ValueError, match="only http://"):
        poll_health(url, timeout=0.1, alive=lambda: False)
