"""The front's header reader against the stdlib's message parser.

The front keeps only the headers it uses.  For each of them, on any
header block of the shapes clients send (mixed-case names, duplicates,
obs-fold continuation lines, surrounding whitespace, empty values), it
must read the same value as ``http.client.parse_headers(...).get(name)``
— except that differing duplicate ``Content-Length`` values are refused.
The stdlib's limits (431) and the interim ``100 Continue`` are pinned too.
"""

from __future__ import annotations

import http.client
import io
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.front import MAX_HEADER_LINE, MAX_HEADER_LINES, _Handler
from tests.service.wire import open_front, parse_replies, read_to_close

USED = ("Content-Length", "Connection", "X-Repro-Tier", "Expect")


def lean_read(block: bytes):
    """Run the front's header reader over ``block``; returns
    ``(accepted, handler)`` — the handler carries ``.headers`` and, on a
    refusal, the reply in ``.wfile``."""
    handler = _Handler.__new__(_Handler)
    handler.rfile, handler.wfile = io.BytesIO(block), io.BytesIO()
    handler.request_version = handler.protocol_version
    handler.server_version = "test"
    return handler._read_headers(), handler


def mixed_case(name):
    return st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c.lower() for c, u in zip(name, upper))
    )


NAMES = st.sampled_from(USED).flatmap(mixed_case) | st.sampled_from(
    ["Host", "Accept", "Content-Type", "X-Other", "Content-Length2"]
)
SPACE = st.text(alphabet=" \t", max_size=3)
TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF, blacklist_categories=["Cc"]),
    max_size=12,
)
VALUES = st.sampled_from(["5", "7", "close", "keep-alive", "100-continue", "bulk", ""]) | TEXT
FOLDS = st.lists(st.tuples(st.sampled_from([" ", "\t"]), TEXT), max_size=2)
EOL = st.sampled_from(["\r\n", "\n"])
HEADERS = st.lists(st.tuples(NAMES, SPACE, VALUES, SPACE, FOLDS, EOL), max_size=8)


def block_of(headers) -> bytes:
    lines = []
    for name, lead, value, trail, folds, eol in headers:
        lines.append("%s:%s%s%s%s" % (name, lead, value, trail, eol))
        lines.extend("%s%s%s" % (space, text, eol) for space, text in folds)
    return ("".join(lines) + "\r\n").encode("latin-1")


@settings(max_examples=300, deadline=None)
@given(headers=HEADERS)
def test_used_headers_read_as_the_stdlib_reads_them(headers):
    block = block_of(headers)
    message = http.client.parse_headers(io.BytesIO(block))
    accepted, handler = lean_read(block)
    lengths = {value.strip() for value in message.get_all("Content-Length") or ()}
    if len(lengths) > 1:
        assert not accepted
        assert handler.wfile.getvalue().startswith(b"HTTP/1.1 400 ")
        return
    assert accepted
    for name in USED:
        assert handler.headers.get(name.lower()) == message.get(name), name


@pytest.mark.parametrize("count", [MAX_HEADER_LINES - 1, MAX_HEADER_LINES])
def test_header_count_limit_matches_the_stdlib(count):
    # The limit counts the blank line that ends the block: 99 headers
    # pass, 100 are a 431, in the stdlib and here alike.
    block = b"X-Filler: 1\r\n" * count + b"\r\n"
    try:
        http.client.parse_headers(io.BytesIO(block))
        stdlib_accepts = True
    except http.client.HTTPException:
        stdlib_accepts = False
    accepted, handler = lean_read(block)
    assert accepted == stdlib_accepts == (count < MAX_HEADER_LINES)
    if not accepted:
        assert handler.wfile.getvalue().startswith(b"HTTP/1.1 431 ")


@pytest.mark.parametrize("length", [MAX_HEADER_LINE, MAX_HEADER_LINE + 1])
def test_header_line_limit_matches_the_stdlib(length):
    line = b"X-Filler: " + b"a" * (length - len(b"X-Filler: \r\n")) + b"\r\n"
    assert len(line) == length
    block = line + b"\r\n"
    try:
        http.client.parse_headers(io.BytesIO(block))
        stdlib_accepts = True
    except http.client.LineTooLong:
        stdlib_accepts = False
    accepted, handler = lean_read(block)
    assert accepted == stdlib_accepts == (length <= MAX_HEADER_LINE)
    if not accepted:
        assert handler.wfile.getvalue().startswith(b"HTTP/1.1 431 ")


def test_malformed_header_line_is_a_typed_400():
    accepted, handler = lean_read(b"Content-Length : 5\r\n\r\n")
    assert not accepted
    status, headers, body = parse_replies(handler.wfile.getvalue())[0]
    assert status == 400
    assert headers["connection"] == "close"
    assert body["error"]["kind"] == "bad_request"


def test_expect_100_continue_gets_the_interim_reply(snapshot_dir):
    body = json.dumps({"synopsis": "SSPlays", "query": "//PLAY"}).encode()
    head = (
        "POST /estimate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n"
        "Expect: 100-continue\r\n\r\n" % len(body)
    ).encode("latin-1")
    with open_front("service", snapshot_dir) as front:
        with socket.create_connection(("127.0.0.1", front.port), timeout=5.0) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            sock.shutdown(socket.SHUT_WR)
            (status, _, reply), = parse_replies(read_to_close(sock))
    assert status == 200
    assert reply["result"]["value"] > 0
