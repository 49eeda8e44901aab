"""HTTP wiring over the stdlib server, plus an in-process handle for tests.

Requests are handled strictly one at a time; the behavioral suite is
sequential, so correctness beats throughput.
"""

import argparse
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

from .repository import Store
from .routes import FEATURE_GROUPS, dispatch

HANDLE_POLL_S = 0.01  # how often a ServerHandle's thread looks for stop()


def build_server(port, disabled=(), reset_token=None, host="127.0.0.1"):
    store = Store()
    disabled = frozenset(disabled)

    class ApiHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _handle(self):
            length = int(self.headers.get("Content-Length") or 0)
            body_text = self.rfile.read(length).decode("utf-8") if length else ""
            path, _, query_string = self.path.partition("?")
            status, body = dispatch(
                store,
                self.command,
                path,
                query_string,
                self.headers,
                body_text,
                disabled=disabled,
                reset_token=reset_token,
            )
            payload = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST = do_PUT = do_DELETE = _handle

        def log_message(self, format, *args):
            pass  # keep run logs small; the harness captures stdout anyway

    HTTPServer.allow_reuse_address = True
    server = HTTPServer((host, port), ApiHandler)
    server.store = store
    return server


class ServerHandle:
    """Runs the server on a background thread; for tests and fixtures."""

    def __init__(self, port, disabled=(), reset_token=None, host="127.0.0.1"):
        self.server = build_server(port, disabled=disabled, reset_token=reset_token, host=host)
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever, args=(HANDLE_POLL_S,), daemon=True
        )

    @property
    def base_url(self):
        return "http://127.0.0.1:%d/api" % self.port

    @property
    def store(self):
        return self.server.store

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self.server.shutdown()
        self.server.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()


def feature_groups(raw):
    """argparse type of ``--disable``: a comma list of FEATURE_GROUPS."""
    groups = [g.strip() for g in raw.split(",") if g.strip()]
    unknown = [g for g in groups if g not in FEATURE_GROUPS]
    if unknown:
        raise argparse.ArgumentTypeError("unknown feature group(s): %s" % ", ".join(unknown))
    return groups


def serve(port, disabled=(), reset_token=None, host="0.0.0.0"):
    """Run until interrupted. Returns only on shutdown."""
    server = build_server(port, disabled=disabled, reset_token=reset_token, host=host)
    print("listening on port %d" % server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def main(argv=None):
    parser = argparse.ArgumentParser(description="In-memory Conduit-style API server")
    parser.add_argument("--port", type=int, default=int(os.environ.get("PORT", "8080")))
    parser.add_argument("--host", default="0.0.0.0")
    parser.add_argument(
        "--disable",
        type=feature_groups,
        default="",
        help="comma-separated feature groups to disable: " + ",".join(FEATURE_GROUPS),
    )
    parser.add_argument("--reset-token", default=None)
    args = parser.parse_args(argv)
    serve(args.port, disabled=args.disable, reset_token=args.reset_token, host=args.host)


if __name__ == "__main__":
    main()
