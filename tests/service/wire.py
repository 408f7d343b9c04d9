"""Helpers for the HTTP front tests: a started front of each kind, and
raw-socket exchanges that send exact bytes, read every reply off the
wire, or stall a request body on purpose."""

from __future__ import annotations

import contextlib
import json
import socket
import time
from typing import Any, Iterator, List, Optional, Tuple

import pytest

from repro.cluster.router import ClusterRouter, RouterConfig, RouterServer
from repro.service import EstimationService, ServerConfig, ServiceServer, SynopsisRegistry

Reply = Tuple[int, dict, Any]  # (status, lower-cased headers, body)

FRONT_KINDS = ("service", "router", "control")

#: The POST endpoint of each kind that takes a body.
POST_PATH = {"service": "/estimate", "router": "/estimate", "control": "/reload"}


@contextlib.contextmanager
def open_front(
    kind: str, snapshot_dir, read_deadline_s: Optional[float] = None
) -> Iterator[Any]:
    """A started front of ``kind`` over ``snapshot_dir``.  The router
    routes to one service backend; the control server fronts a pool that
    is never started (its ``/reload`` is a typed ``worker_pool`` 500)."""
    registry = SynopsisRegistry(str(snapshot_dir))
    registry.scan()
    deadline = {} if read_deadline_s is None else {"read_deadline_s": read_deadline_s}
    fronts = [ServiceServer(EstimationService(registry), port=0, **deadline).start()]
    try:
        if kind == "router":
            router = ClusterRouter(
                ["127.0.0.1:%d" % fronts[0].port], config=RouterConfig(replication=1)
            )
            fronts.append(
                RouterServer(router, host="127.0.0.1", port=0, **deadline).start()
            )
        elif kind == "control":
            from repro.shm import ControlServer, WorkerPool, pool_supported

            if not pool_supported():
                pytest.skip("needs os.fork and SO_REUSEPORT")
            pool = WorkerPool(str(snapshot_dir), workers=1, config=ServerConfig(port=0))
            fronts.append(ControlServer(pool, port=0, **deadline).start())
        yield fronts[-1]
    finally:
        for front in reversed(fronts):
            front.close()


def read_to_close(sock: socket.socket) -> bytes:
    """Every byte the server sends until it closes (or the socket's own
    timeout fires: a server that never answers reads as ``b""``)."""
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except (ConnectionResetError, socket.timeout):
        pass
    return b"".join(chunks)


def exchange(
    port: int, data: bytes, timeout_s: float = 5.0, half_close: bool = True
) -> bytes:
    """Send ``data``, half-close (unless told not to: then the server
    alone decides when the exchange ends), and read until it closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        try:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server may reject and close before reading it all
        return read_to_close(sock)


def parse_replies(raw: bytes) -> List[Reply]:
    """Split a byte stream into ``(status, headers, body)`` replies; a
    JSON body is decoded.  Bytes that do not start a status line end the
    list (an HTTP/0.9 reply has none)."""
    replies = []
    while raw.startswith(b"HTTP/"):
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = 0 if status < 200 else int(headers.get("content-length", len(rest)))
        body: Any = rest[:length]
        if headers.get("content-type") == "application/json":
            body = json.loads(body)
        replies.append((status, headers, body))
        raw = rest[length:]
    return replies


def request_bytes(
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[List[Tuple[str, str]]] = None,
) -> bytes:
    if headers is None:
        headers = [("Content-Length", str(len(body)))]
    head = "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n" % (method, path)
    head += "".join("%s: %s\r\n" % item for item in headers)
    return (head + "\r\n").encode("latin-1") + body


def stalled_body_reply(port: int, path: str = "/estimate", stall_s: float = 0.8) -> bytes:
    """POST half a JSON body, stall ``stall_s`` (past the server's read
    deadline), then read what the server answered."""
    body = json.dumps({"synopsis": "SSPlays", "query": "//PLAY"}).encode()
    data = request_bytes(
        "POST", path, body[: len(body) // 2], [("Content-Length", str(len(body)))]
    )
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(data)
        time.sleep(stall_s)
        return read_to_close(sock)
