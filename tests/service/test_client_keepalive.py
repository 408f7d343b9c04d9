"""Client connection reuse: ``connects_total`` observability.

The throughput benches report ``connects_total`` to prove client-side
connection churn is not what they measure; these tests pin the counter's
semantics — one connection across any number of keep-alive requests,
one per request without keep-alive, and exactly one extra after the
server drops a kept connection.
"""

from __future__ import annotations

import socket
import threading

from repro.service import EndpointClient


class TestKeepAliveReuse:
    def test_many_requests_one_connection(self, running_server):
        with EndpointClient(port=running_server.port) as client:
            for _ in range(10):
                client.healthz()
            assert client.connects_total == 1

    def test_estimates_share_the_connection(self, running_server):
        with EndpointClient(port=running_server.port) as client:
            client.estimate("fig1", "//A/B")
            client.estimate_batch("fig1", ["//A", "//A/B"])
            client.metrics()
            assert client.connects_total == 1

    def test_no_keep_alive_connects_per_request(self, running_server):
        with EndpointClient(port=running_server.port, keep_alive=False) as client:
            for _ in range(5):
                client.healthz()
            assert client.connects_total == 5

    def test_explicit_close_reconnects(self, running_server):
        with EndpointClient(port=running_server.port) as client:
            client.healthz()
            client.close()
            client.healthz()
            assert client.connects_total == 2


class _DroppingServer(threading.Thread):
    """Serves one HTTP response per TCP connection, then closes it —
    deterministically exercising the client's reconnect-once path."""

    def __init__(self):
        super().__init__(daemon=True)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._stop = threading.Event()

    def run(self):
        body = b'{"status": "ok"}'
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n"
            b"Connection: keep-alive\r\n\r\n%s" % (len(body), body)
        )
        while not self._stop.is_set():
            try:
                connection, _ = self.sock.accept()
            except OSError:
                return
            with connection:
                connection.settimeout(5.0)
                try:
                    while b"\r\n\r\n" not in connection.recv(65536):
                        pass
                    connection.sendall(response)
                except OSError:
                    pass
            # Connection closed here despite the keep-alive header.

    def close(self):
        self._stop.set()
        self.sock.close()


class TestServerDropsConnection:
    def test_reconnects_once_and_succeeds(self):
        server = _DroppingServer()
        server.start()
        try:
            with EndpointClient(port=server.port) as client:
                assert client.healthz()["status"] == "ok"
                assert client.connects_total == 1
                # The kept connection is dead; the client must notice,
                # reopen exactly one connection and complete the call.
                assert client.healthz()["status"] == "ok"
                assert client.connects_total == 2
        finally:
            server.close()
