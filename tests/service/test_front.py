"""The one HTTP front under the service, the router and the pool control
server: request framing, typed errors, dispatch and one write per reply."""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from tests.service.wire import (
    FRONT_KINDS,
    POST_PATH,
    exchange,
    open_front,
    parse_replies,
    request_bytes,
    stalled_body_reply,
)

BODY = json.dumps({"synopsis": "SSPlays", "query": "//PLAY"}).encode()


@pytest.fixture(params=FRONT_KINDS)
def kind(request):
    return request.param


@pytest.fixture()
def front(kind, snapshot_dir):
    with open_front(kind, snapshot_dir) as front:
        yield front


def only_reply(raw):
    replies = parse_replies(raw)
    assert len(replies) == 1, raw
    return replies[0]


class TestContentLength:
    @pytest.mark.parametrize(
        "value", ["abc", "-1", "1e3", "0x10", "99999999999999999999"]
    )
    def test_malformed_length_is_a_typed_400(self, kind, front, value):
        # No half-close: a server that waits for the body it was promised
        # never answers, and the exchange reads as empty.
        raw = exchange(
            front.port,
            request_bytes(
                "POST", POST_PATH[kind], BODY, [("Content-Length", value)]
            ),
            half_close=False,
        )
        status, _, body = only_reply(raw)
        assert status == 400
        assert body["error"]["kind"] == "bad_request"
        assert "Content-Length" in body["error"]["message"]


class TestFraming:
    """Request framings the front cannot honour are refused and the
    connection closed, so no body byte is read as a next request."""

    def test_differing_content_lengths_are_a_typed_400(self, kind, front):
        raw = exchange(
            front.port,
            request_bytes(
                "POST", POST_PATH[kind], BODY,
                [("Content-Length", "5"), ("Content-Length", str(len(BODY)))],
            ),
        )
        status, headers, body = only_reply(raw)
        assert status == 400
        assert headers["connection"] == "close"
        assert body["error"]["kind"] == "bad_request"
        assert "Content-Length" in body["error"]["message"]

    def test_identical_duplicate_content_lengths_are_accepted(self, front):
        length = str(len(BODY))
        raw = exchange(
            front.port,
            request_bytes(
                "POST", "/nowhere", BODY,
                [("Content-Length", length), ("content-length", " %s " % length)],
            ),
        )
        status, _, body = only_reply(raw)
        assert status == 404  # framed and dispatched, not refused
        assert body["error"]["kind"] == "not_found"

    def test_transfer_encoding_is_a_typed_501(self, kind, front):
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(BODY), BODY)
        raw = exchange(
            front.port,
            request_bytes(
                "POST", POST_PATH[kind], chunked, [("Transfer-Encoding", "chunked")]
            ),
        )
        status, headers, body = only_reply(raw)
        assert status == 501
        assert headers["connection"] == "close"
        assert body["error"]["kind"] == "bad_request"


class TestReadDeadline:
    @pytest.mark.parametrize("kind", ["router", "control"])
    def test_stalled_body_gets_408(self, kind, snapshot_dir):
        with open_front(kind, snapshot_dir, read_deadline_s=0.3) as front:
            status, _, body = only_reply(stalled_body_reply(front.port, POST_PATH[kind]))
        assert status == 408
        assert body["error"]["kind"] == "read_timeout"


class TestStdlibRejections:
    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"PUT /estimate HTTP/1.1\r\n\r\n", 501),
            (b"GET / HTTP/1.1\r\n" + b"X-Filler: 1\r\n" * 101 + b"\r\n", 431),
            (b"GET /a b HTTP/1.1\r\n\r\n", 400),
        ],
        ids=["unsupported-method", "too-many-headers", "bad-request-line"],
    )
    def test_rejections_carry_typed_json(self, front, raw, status):
        got, headers, body = only_reply(exchange(front.port, raw))
        assert got == status
        assert headers["content-type"] == "application/json"
        assert body["error"]["kind"] == "bad_request"


class TestDispatch:
    @pytest.mark.parametrize("kind", ["router"])  # the others always split
    def test_query_string_does_not_hide_an_endpoint(self, front):
        status, _, body = only_reply(
            exchange(front.port, request_bytes("GET", "/healthz?probe=1"))
        )
        assert status == 200
        assert "status" in body

    def test_unknown_endpoint_is_404_and_keeps_the_connection(self, kind, front):
        connection = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10)
        try:
            connection.request("POST", "/nowhere", body=BODY)
            response = connection.getresponse()
            assert response.status == 404
            assert json.loads(response.read())["error"]["kind"] == "not_found"
            # The unread body was drained: the same connection still works.
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
        finally:
            connection.close()


class TestOneWrite:
    def test_each_reply_leaves_in_one_write(self, kind, front, monkeypatch):
        writes = []
        real_sendall, real_send = socket.socket.sendall, socket.socket.send

        def record(sock, data):
            if sock.getsockname()[1] == front.port:  # the accepted socket
                nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                writes.append((len(data), bool(nodelay)))

        def sendall(sock, data, *args):
            record(sock, data)
            return real_sendall(sock, data, *args)

        def send(sock, data, *args):
            record(sock, data)
            return real_send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", sendall)
        monkeypatch.setattr(socket.socket, "send", send)
        connection = http.client.HTTPConnection("127.0.0.1", front.port, timeout=10)
        body_lengths = []
        try:
            for method, path in [
                ("GET", "/healthz"),
                ("GET", "/metrics?format=prom"),
                ("GET", "/metrics"),
                ("GET", "/nowhere"),
                ("POST", POST_PATH[kind]),
            ]:
                connection.request(method, path, body=BODY if method == "POST" else None)
                body_lengths.append(len(connection.getresponse().read()))
        finally:
            connection.close()
        assert len(writes) == len(body_lengths), writes
        for (written, nodelay), body_length in zip(writes, body_lengths):
            assert written > body_length  # the head rode along with the body
            assert nodelay
