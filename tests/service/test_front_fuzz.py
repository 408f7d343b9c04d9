"""Wire fuzzer over the one HTTP front, with a fixed example budget.

Each example sends one generated request (request line, method, header
set with odd ``Content-Length`` / ``X-Repro-Tier`` values, JSON or
non-JSON body for ``/estimate`` and ``/delta``) to a live front of each
kind, then checks that no reply is a ``500 internal``, that every error
reply with a status line carries a JSON ``error.kind``, and that the
server still answers ``GET /healthz``.  A request that is not HTTP/1.x
may be closed without a reply (HTTP/0.9 replies carry no status line).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import persist
from repro.errors import TRANSPORT_WIRE_KINDS, WIRE_KINDS
from tests.service.wire import FRONT_KINDS, exchange, open_front, parse_replies, request_bytes

KNOWN_KINDS = set(TRANSPORT_WIRE_KINDS) | set(WIRE_KINDS)

TOKEN = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=10
)
VALUE = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24)

METHODS = st.sampled_from(["GET", "POST", "POST", "PUT", "HEAD", "get"]) | TOKEN
PATHS = (
    st.sampled_from([
        "/estimate", "/estimate", "/delta", "/healthz", "/synopses", "/cluster",
        "/metrics?format=prom", "/debug/slowlog?limit=x", "/reload", "/estimate?q=1",
        "*", "http://[bad/", "//estimate", "/%ff",
    ])
    | TOKEN
)
VERSIONS = st.sampled_from(
    ["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.x", "HTTP/0.9", "FOO/1", ""]
)
LENGTHS = (
    st.sampled_from(["", "abc", "-1", " 7 ", "1e3", "0x10", "+5", "99999999999999999999"])
    | st.integers(0, 1 << 31).map(str)
)
TIERS = st.sampled_from(["interactive", "standard", "bulk", "", "gold", "BULK"]) | VALUE
HEADERS = st.lists(
    st.one_of(
        st.tuples(st.just("Content-Length"), LENGTHS),
        st.tuples(st.just("X-Repro-Tier"), TIERS),
        st.tuples(st.sampled_from(["Connection", "Content-Type", "Transfer-Encoding"]), VALUE),
        st.tuples(TOKEN.filter(lambda name: ":" not in name), VALUE),
    ),
    max_size=5,
)
SCALARS = (
    st.none() | st.booleans() | st.integers(-5, 10**6) | st.floats() | VALUE
    | st.sampled_from(["SSPlays", "fig1", "//PLAY", "//PLAY/ACT/$SCENE", "//A/$B"])
)
FIELDS = st.sampled_from([
    "synopsis", "query", "queries", "trace", "explain", "execute", "actual",
    "actuals", "tier", "partial", "force_refresh",
])
PAYLOADS = st.dictionaries(
    FIELDS, SCALARS | st.lists(SCALARS, max_size=4) | st.dictionaries(VALUE, SCALARS, max_size=3),
    max_size=5,
)
BODIES = PAYLOADS.map(lambda payload: json.dumps(payload).encode()) | st.binary(max_size=48)


@st.composite
def requests(draw):
    line = " ".join(part for part in (draw(METHODS), draw(PATHS), draw(VERSIONS)) if part)
    body = draw(BODIES)
    headers = draw(HEADERS)
    if draw(st.booleans()):
        headers.append(("Content-Length", str(len(body))))
    head = line + "\r\n" + "".join("%s: %s\r\n" % item for item in headers)
    return (head + "\r\n").encode("latin-1") + body


@pytest.fixture(scope="module", params=FRONT_KINDS)
def front(request, tmp_path_factory, ssplays_system):
    directory = tmp_path_factory.mktemp("fuzz-%s" % request.param)
    persist.save(ssplays_system, str(directory / "SSPlays.json"))
    with open_front(request.param, directory, read_deadline_s=0.5) as front:
        yield front


@settings(max_examples=120, deadline=None)
@given(data=requests())
def test_every_reply_is_typed_and_the_server_survives(front, data):
    for status, headers, body in parse_replies(exchange(front.port, data)):
        if 100 <= status < 200:
            continue
        if status >= 400:
            assert headers["content-type"] == "application/json", (status, body)
            assert body["error"]["kind"] in KNOWN_KINDS, body
            assert not (status == 500 and body["error"]["kind"] == "internal"), body
    (status, _, _), = parse_replies(exchange(front.port, request_bytes("GET", "/healthz")))
    assert status == 200
