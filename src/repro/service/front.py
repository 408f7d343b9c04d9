"""The one HTTP/1.1 JSON front under every repro server.

The estimation service, the cluster router and the worker pool's control
port are each a route table on :class:`Front`: ``(method, path)``, query
string split off, maps to a function that takes the request view
(``.params``, ``.tier``, ``.read_json()``, ``.read_body()``) and returns
``(status, body, headers)`` with a JSON dict or Prometheus text body.
The front owns the rest:

* one request parser: the stdlib's request-line rules (400 on a bad
  line or version, 505 on HTTP/2+, HTTP/0.9, ``//`` collapse, 414 on a
  line over 64 KiB) and its header limits (431 on a header line over
  64 KiB or more than 100 lines), but the header block is read into a
  plain dict of the few names the front uses (``Content-Length``,
  ``Connection``, ``X-Repro-Tier``, ``Expect``; first value wins, as
  with the stdlib's message object) instead of the stdlib's full
  message parser.  ``Expect: 100-continue`` gets its interim ``100``;
  a malformed header line is ``400``;
* one body reader: a ``Content-Length`` that is not a decimal number or
  exceeds :data:`MAX_BODY_BYTES` is ``400 bad_request`` before any route
  runs, as are differing duplicate ``Content-Length`` headers; any
  ``Transfer-Encoding`` is ``501`` (kind ``bad_request``), since the
  front does not decode chunked bodies; a body stalled past the read
  deadline is ``408 read_timeout`` (all of these close the connection),
  and a body left unread is drained so a keep-alive connection stays
  framed;
* one error mapping: :class:`RequestError` → its status, kind and
  ``Retry-After``; a :class:`~repro.errors.ReproError` → ``500`` with its
  kind; anything else → ``500 internal``; the request-line and header
  rejections keep their status with a ``bad_request`` JSON body;
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
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, error_kind

__all__ = ["MAX_BODY_BYTES", "PROM_CONTENT_TYPE", "Front", "RequestError", "Route", "error_body"]

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest ``Content-Length`` any server accepts: the stdlib reader
#: allocates the declared length up front.
MAX_BODY_BYTES = 1 << 30

#: The stdlib's request-header limits (``http.client``): longest header
#: line, and most lines in a header block, its blank end line included.
MAX_HEADER_LINE = 65536
MAX_HEADER_LINES = 100

#: The request headers the front reads; every other header is skipped.
#: ``Transfer-Encoding`` is read only to be refused.
_USED_HEADERS = frozenset(
    ("content-length", "connection", "x-repro-tier", "expect", "transfer-encoding")
)
#: A header line's name and colon: visible ASCII but ``:`` (the set
#: the stdlib's message parser accepts as a header line).
_FIELD_NAME = re.compile(rb"[!-9;-~]+:")

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

    def parse_request(self) -> bool:
        """Parse the request line and the used headers; on failure the
        error reply has been sent and the connection will close."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _http_version(version)
            if number is None:
                self.send_error(400, "Bad request version (%r)" % version)
                return False
            if number >= (2, 0):
                self.send_error(505, "Invalid HTTP version (%s)" % version[5:])
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(400, "Bad HTTP/0.9 request type (%r)" % command)
                return False
        if path.startswith("//"):  # no open redirect through a scheme-less URI
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        if not self._read_headers():
            return False
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            self.handle_expect_100()
        return True

    def _read_headers(self) -> bool:
        """Read the header block into ``self.headers``: lower-cased used
        name → its first value, obs-fold continuation lines kept as sent
        (the stdlib's ``HTTPMessage.get(name)`` gives the same strings).
        Refuses what the front cannot frame a body by."""
        values: Dict[str, List[str]] = {}
        current: Optional[List[str]] = None  # the used header a fold continues
        for count in range(1, MAX_HEADER_LINES + 2):
            line = self.rfile.readline(MAX_HEADER_LINE + 1)
            if len(line) > MAX_HEADER_LINE:
                self.send_error(431, "Line too long")
                return False
            if count > MAX_HEADER_LINES:
                self.send_error(431, "Too many headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if line[:1] in (b" ", b"\t"):
                if current is not None:
                    current[-1] += line.decode("iso-8859-1")
                continue
            field = _FIELD_NAME.match(line)
            if field is None:
                self.send_error(400, "Bad header line (%r)" % line[:64])
                return False
            name = line[: field.end() - 1].decode("ascii").lower()
            if name in _USED_HEADERS:
                current = values.setdefault(name, [])
                current.append(line[field.end():].decode("iso-8859-1").lstrip(" \t"))
            else:
                current = None
        self.headers = {name: found[0].rstrip("\r\n") for name, found in values.items()}
        lengths = {value.strip() for value in values.get("content-length", ())}
        if len(lengths) > 1:
            self.send_error(400, "conflicting Content-Length values %s" % sorted(lengths))
            return False
        if "transfer-encoding" in values:
            self.send_error(501, "Transfer-Encoding is not supported; send a Content-Length")
            return False
        return True

    def _content_length(self) -> int:
        value = (self.headers.get("content-length") or "0").strip()
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
        self.tier = self.headers.get("x-repro-tier")
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
        """Request-line and header rejections, as typed JSON."""
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


def _http_version(word: str) -> Optional[Tuple[int, int]]:
    """``HTTP/<major>.<minor>`` as a pair, None if malformed (the stdlib's
    rules: one dot, decimal parts of at most 10 digits)."""
    if not word.startswith("HTTP/"):
        return None
    parts = word[5:].split(".")
    if len(parts) != 2 or not all(part.isdecimal() and len(part) <= 10 for part in parts):
        return None
    return int(parts[0]), int(parts[1])


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
