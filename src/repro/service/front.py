"""The one HTTP/1.1 JSON front under every repro server.

The estimation service, the cluster router and the worker pool's control
port are each a route table on :class:`Front`: ``(method, path)``, query
string split off, maps to a function that takes the request view
(``.params``, ``.tier``, ``.read_json()``, ``.read_body()``) and returns
``(status, body, headers)`` with a JSON dict or Prometheus text body.
The front owns the rest:

* one body reader: a ``Content-Length`` that is not a decimal number or
  exceeds :data:`MAX_BODY_BYTES` is ``400 bad_request`` before any route
  runs, a body stalled past the read deadline is ``408 read_timeout``
  (both close the connection), and a body left unread is drained so a
  keep-alive connection stays framed;
* one error mapping: :class:`RequestError` → its status, kind and
  ``Retry-After``; a :class:`~repro.errors.ReproError` → ``500`` with its
  kind; anything else → ``500 internal``; the stdlib's request-line and
  header rejections keep their status with a ``bad_request`` JSON body;
* one reply path: status line, headers and body leave in one write;
* one lifecycle: bind (optionally ``SO_REUSEPORT``), ``start`` /
  ``serve_forever``, ``close`` (the :meth:`Front.on_close` hook first),
  context-manager use.

``read_deadline_s`` is a socket timeout on every connection: a client
that stalls on its request line or idles past it between requests is
closed silently, one that stalls inside its body gets the 408.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, error_kind

__all__ = ["MAX_BODY_BYTES", "PROM_CONTENT_TYPE", "Front", "RequestError", "Route", "error_body"]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest ``Content-Length`` any server accepts: the stdlib reader
#: allocates the declared length up front.
MAX_BODY_BYTES = 1 << 30

Body = Union[Dict[str, Any], str]
Route = Callable[["_Handler"], Tuple[int, Body, Optional[Dict[str, str]]]]


class RequestError(ValueError):
    """A client-side request problem, mapped to an HTTP status.

    ``kind`` is the stable machine-readable slug carried in the response's
    ``error.kind`` field (the human-readable message may change between
    releases; the kind will not).  ``retry_after_s``, when set, is emitted
    as a ``Retry-After`` header.
    """

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "bad_request",
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after_s = retry_after_s


def error_body(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The wire shape of every error response: ``{"error": {kind, message}}``.

    ``extra`` keys (``tier``, ``reason``, ...) are additive fields inside
    the error object; ``None`` values are dropped.
    """
    error: Dict[str, Any] = {"kind": kind, "message": message}
    for key, value in extra.items():
        if value is not None:
            error[key] = value
    return {"error": error}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Sub-millisecond replies must not sit behind Nagle waiting for the
    # client's delayed ACK.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = self.server.read_deadline_s  # applied by super().setup()
        self.server_version = self.server.name
        super().setup()

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging would swamp pytest output

    def _content_length(self) -> int:
        value = (self.headers.get("Content-Length") or "0").strip()
        try:
            length = int(value) if value.isdecimal() else -1
        except ValueError:  # more digits than int() accepts
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True  # the body's end is unknown
            raise RequestError(400, "invalid Content-Length %r" % value)
        return length

    def read_body(self) -> bytes:
        length, self._unread = self._unread, 0
        try:
            return self.rfile.read(length) if length else b""
        except socket.timeout:
            self.close_connection = True  # the unread rest breaks framing
            raise RequestError(
                408,
                "timed out reading request body (read deadline %gs)" % (self.timeout or 0.0),
                "read_timeout",
            )

    def read_json(self) -> Any:
        raw = self.read_body()
        if not raw:
            raise RequestError(400, "empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(400, "invalid JSON body: %s" % error)

    def _dispatch(self) -> None:
        self._unread = 0
        self.params: Dict[str, list] = {}
        self.tier = self.headers.get("X-Repro-Tier")
        headers: Optional[Dict[str, str]] = None
        try:
            self._unread = self._content_length()
            try:
                parts = urlsplit(self.path)
            except ValueError as error:  # e.g. a malformed IPv6 authority
                raise RequestError(400, "bad request target: %s" % error)
            if parts.query:
                self.params = parse_qs(parts.query)
            route = self.server.routes.get((self.command, parts.path))
            if route is None:
                raise RequestError(404, "no such endpoint %r" % self.path, "not_found")
            status, body, headers = route(self)
        except RequestError as error:
            status, body = error.status, error_body(error.kind, str(error))
            if error.retry_after_s is not None:
                headers = {"Retry-After": "%g" % error.retry_after_s}
        except ReproError as error:
            status, body = 500, error_body(error_kind(error), str(error))
        except Exception as error:
            status, body = 500, error_body("internal", "internal error: %s" % error)
        if self._unread:  # leftover bytes would be misparsed as the next request
            try:
                self.read_body()
            except RequestError:
                pass  # read_body closed the connection
        self._send(status, body, headers)

    do_GET = do_POST = _dispatch

    def send_error(self, code, message=None, explain=None) -> None:
        """The stdlib's request-line and header rejections, as typed JSON."""
        self.close_connection = True
        message = message or self.responses.get(code, ("error",))[0]
        self._send(code, error_body("bad_request", message), {"Connection": "close"})

    def _send(self, status: int, body: Body, headers: Optional[Dict[str, str]] = None) -> None:
        if isinstance(body, str):
            data, content_type = body.encode("utf-8"), PROM_CONTENT_TYPE
        else:
            data, content_type = json.dumps(body).encode("utf-8"), "application/json"
        if self.request_version != "HTTP/0.9":  # HTTP/0.9 replies have no head
            lines = [
                "%s %d %s" % (self.protocol_version, status, self.responses.get(status, ("",))[0]),
                "Server: " + self.version_string(),
                "Date: " + self.date_time_string(),
                "Content-Type: " + content_type,
                "Content-Length: %d" % len(data),
            ]
            lines.extend("%s: %s" % item for item in (headers or {}).items())
            data = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data
        self.wfile.write(data)  # one sendall: wfile is unbuffered


class Front:
    """A bound, not yet serving, threaded HTTP server over one route table.

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    ``reuse_port`` sets ``SO_REUSEPORT`` before binding, so the pre-fork
    worker pool can bind N processes to one ``(host, port)`` and let the
    kernel balance accepted connections across them.
    """

    def __init__(
        self,
        routes: Dict[Tuple[str, str], Route],
        host: str,
        port: int,
        *,
        name: str,
        reuse_port: bool = False,
        read_deadline_s: Optional[float] = None,
    ):
        httpd = self._httpd = ThreadingHTTPServer((host, port), _Handler, bind_and_activate=False)
        httpd.daemon_threads = True
        httpd.routes, httpd.name, httpd.read_deadline_s = routes, name, read_deadline_s
        try:
            if reuse_port:
                httpd.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            httpd.server_bind()
            httpd.server_activate()
        except BaseException:
            httpd.server_close()
            raise
        self.host, self.port = httpd.server_address[:2]
        self._serving = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self):
        """Serve in a background daemon thread (tests, benchmarks)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self._httpd.name, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry points)."""
        self._serving = True
        self._httpd.serve_forever()

    def on_close(self, drain_timeout_s: float) -> None:
        """Hook run first by :meth:`close`, while the listener still
        accepts: the service drains its admission gate, the router closes
        its backend connections."""

    def close(self, drain_timeout_s: float = 5.0) -> None:
        """Run the close hook, stop accepting and release the socket."""
        self.on_close(drain_timeout_s)
        if self._serving:  # shutdown() would wait forever on a loop never run
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
