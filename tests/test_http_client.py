"""The harness's own HTTP client against urllib, which it replaced.

A canned-reply server answers both clients. The urllib opener built here,
with no proxy handler, is the oracle: each reply must give the same
``(status, body)``, or the same failure detail, through both.
"""

import contextlib
import http.client
import socket
import socketserver
import sys
import threading
import urllib.error
import urllib.request

import pytest

from constraintbench import suite
from constraintbench.suite import run_suite

ORACLE = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def urllib_request(url, method, headers, body_bytes, timeout):
    """What ``suite._http_request`` did with urllib."""
    request = urllib.request.Request(url, data=body_bytes, method=method)
    for key, value in headers.items():
        request.add_header(key, value)
    if body_bytes is not None and "Content-Type" not in headers:
        request.add_header("Content-Type", "application/json")
    try:
        with ORACLE.open(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def urllib_outcome(url, method, body):
    try:
        return urllib_request(url, method, {}, body, 5)
    except OSError as exc:
        return f"connection failed: {getattr(exc, 'reason', exc)}"
    except http.client.HTTPException as exc:
        return f"malformed response: {exc!r}"


def client_outcome(url, method, body):
    try:
        return suite._http_request(url, method, {}, body, 5)
    except OSError as exc:
        return f"connection failed: {exc}"
    except suite._MalformedResponse as exc:
        return f"malformed response: {exc}"


CANNED = {
    "/length": b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world",
    "/chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b"5;name=value\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: yes\r\n\r\n"),
    "/close": b"HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\r\nto the end",
    "/no-content": b"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\n",
    "/continue": (b"HTTP/1.1 100 Continue\r\n\r\n"
                  b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"),
    "/garbage": b"garbage\r\n\r\n",
    "/short-length": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
    "/short-chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                       b"5\r\nhello\r\n10\r\nshort"),
    "/empty": b"",
}


def reply_to(method, path, headers, body):
    if path in CANNED:
        return CANNED[path]
    if path.startswith("/moved/"):  # /moved/<status>: a redirect to /echo
        status = path.rsplit("/", 1)[1]
        return (f"HTTP/1.1 {status} Moved\r\nLocation: /echo\r\n"
                f"Content-Length: 5\r\n\r\nmoved").encode()
    if path.startswith("/hop/"):  # /hop/<n>: a redirect to /hop/<n + 1>
        hop = int(path.rsplit("/", 1)[1])
        return (f"HTTP/1.1 302 Found\r\nLocation: /hop/{hop + 1}\r\n"
                f"Content-Length: {len(str(hop))}\r\n\r\n{hop}").encode()
    # /echo and anything else: what arrived, as the body of a 200
    fields = {name: value for name, value in headers if name.startswith("content-")}
    echo = f"{method} {path} {sorted(fields.items())} ".encode() + body
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(echo) + echo


class _CannedReplies(socketserver.StreamRequestHandler):
    def handle(self):
        request_line = self.rfile.readline().decode("latin-1")
        headers = []
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers.append((name.strip().lower(), value.strip()))
        body = self.rfile.read(int(dict(headers).get("content-length", 0)))
        self.server.seen.append((request_line, sorted(headers), body))
        method, path, _ = request_line.split(" ")
        self.wfile.write(reply_to(method, path, headers, body))


@contextlib.contextmanager
def canned_server():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CannedReplies)
    server.daemon_threads = True
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


MOVED = [
    pytest.param(f"/moved/{status}", method, id=f"{status}-{method}",
                 marks=[pytest.mark.skipif(sys.version_info < (3, 11) and status == 308,
                                           reason="urllib follows 308 from Python 3.11")])
    for status in (301, 302, 303, 307, 308)
    for method in ("GET", "POST", "PUT")
]


@pytest.mark.parametrize("path, method", [
    ("/length", "GET"),
    ("/chunked", "GET"),
    ("/close", "GET"),
    ("/no-content", "GET"),
    ("/length", "HEAD"),
    ("/continue", "GET"),
    ("/echo", "POST"),
    *MOVED,
    ("/hop/0", "GET"),
    ("/garbage", "GET"),
    ("/short-length", "GET"),
    ("/short-chunked", "GET"),
    ("/empty", "GET"),
])
def test_each_reply_reads_as_urllib_reads_it(path, method):
    body = b'{"a": 1}' if method in ("POST", "PUT") else None
    with canned_server() as server:
        url = f"http://127.0.0.1:{server.server_address[1]}{path}"
        assert client_outcome(url, method, body) == urllib_outcome(url, method, body)


def test_a_refused_connection_reads_as_urllib_reads_it():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}/api"
    outcome = client_outcome(url, "GET", None)
    assert outcome == urllib_outcome(url, "GET", None)
    assert outcome == "connection failed: [Errno 111] Connection refused"


def test_a_redirect_chain_stops_after_ten_hops():
    with canned_server() as server:
        status, body = suite._http_request(
            f"http://127.0.0.1:{server.server_address[1]}/hop/0", "GET", {}, None, 5)
    assert (status, body) == (302, b"10")
    assert len(server.seen) == 11


def test_every_request_of_the_collection_goes_out_as_urllib_sent_it(
    monkeypatch, conduit_collection
):
    with canned_server() as server:
        base_url = f"http://127.0.0.1:{server.server_address[1]}/api"
        run_suite(conduit_collection, base_url)
        sent = list(server.seen)
        server.seen.clear()
        monkeypatch.setattr(suite, "_http_request", urllib_request)
        run_suite(conduit_collection, base_url)
        oracle = list(server.seen)
    assert len(sent) == 32
    assert sent == oracle
