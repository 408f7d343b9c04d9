"""Estimate response wire format v3: the versioned ``result`` object is
the only answer.

A reply carries ``synopsis``, ``generation`` and ``result`` (plus
``tier``/``brownout`` when set) and nothing else: no flat mirror of the
estimate beside it, no ``cached`` boolean inside it (``cache["plan"]``
says the same), and no request field that switches between shapes.
Every client reads ``result`` and must return the in-process value.
"""

from __future__ import annotations

import pytest

import repro
from repro import build_synopsis, persist
from repro.core.result import RESULT_FORMAT_VERSION, EstimateResult
from repro.service import EstimationService, ServiceServer, SynopsisRegistry
from repro.service.client import EndpointClient
from repro.service.config import ServerConfig

DOC = "<Root>" + "<A><B/><C/></A>" * 6 + "</Root>"
QUERIES = ["//A/$B", "//A/$C", "/Root/$A", "//A/$B"]
SINGLE = {"synopsis": "demo", "query": "//A/$B"}


@pytest.fixture()
def registry(tmp_path):
    persist.save(build_synopsis(DOC), str(tmp_path / "demo.json"))
    registry = SynopsisRegistry(str(tmp_path))
    registry.scan()
    return registry


@pytest.fixture()
def reference():
    return build_synopsis(DOC)


class TestReplyShape:
    def test_single_reply_has_exactly_the_v3_keys(self, registry):
        body = EstimationService(registry).handle_estimate(SINGLE)
        assert set(body) == {"synopsis", "generation", "result"}
        result = body["result"]
        assert result["version"] == RESULT_FORMAT_VERSION == 3
        assert "cached" not in result
        assert set(result["cache"]) == {"plan", "result"}

    def test_tier_joins_the_keys_when_set(self, registry):
        body = EstimationService(registry).handle_estimate(SINGLE, tier="interactive")
        assert set(body) == {"synopsis", "generation", "result", "tier"}
        assert body["result"]["tier"] == "interactive"

    def test_batch_items_carry_only_result(self, registry):
        service = EstimationService(registry)
        body = service.handle_estimate({"synopsis": "demo", "queries": QUERIES})
        assert set(body) == {"synopsis", "generation", "results", "count"}
        assert all(set(item) == {"result"} for item in body["results"])

    def test_result_parses_into_estimate_result(self, registry, reference):
        body = EstimationService(registry).handle_estimate(SINGLE)
        result = EstimateResult.from_dict(body["result"])
        assert result.value == reference.estimate("//A/$B")
        assert result.kernel is not None
        assert not hasattr(result, "cached")

    def test_server_config_has_no_wire_shape_knob(self):
        assert "compat_fields" not in ServerConfig().as_dict()


class TestCompatFieldIsUnknown:
    """``"compat"`` no longer means anything: the service answers it the
    way it answers any other field it does not know."""

    @pytest.mark.parametrize("value", [True, False, "yes"])
    def test_compat_is_answered_like_any_unknown_field(self, registry, value):
        service = EstimationService(registry)
        with_compat = service.handle_estimate(dict(SINGLE, compat=value))
        with_unknown = service.handle_estimate(dict(SINGLE, not_a_field=value))
        assert set(with_compat) == set(with_unknown)
        assert set(with_compat) == {"synopsis", "generation", "result"}
        assert with_compat["result"]["value"] == with_unknown["result"]["value"]


class TestClientsReadResult:
    def test_endpoint_client_single_and_batch(self, registry, reference):
        with ServiceServer(EstimationService(registry), port=0) as server:
            with EndpointClient(server.host, port=server.port) as client:
                assert client.estimate("demo", "//A/$B") == reference.estimate("//A/$B")
                values = client.estimate_batch("demo", QUERIES)
                assert values == reference.estimate(QUERIES)

    def test_connect_single_and_batch(self, registry, reference):
        with ServiceServer(EstimationService(registry), port=0) as server:
            with repro.connect("%s:%d" % (server.host, server.port)) as client:
                single = client.estimate("demo", "//A/$B")
                assert single.value == reference.estimate("//A/$B")
                batch = client.estimate_batch("demo", QUERIES)
                assert [result.value for result in batch] == reference.estimate(QUERIES)
                assert [result.query for result in batch] == QUERIES

    def test_wire_body_over_http_is_result_only(self, registry):
        with ServiceServer(EstimationService(registry), port=0) as server:
            with EndpointClient(server.host, port=server.port) as client:
                body = client.estimate_detail("demo", "//A/$B")
        assert set(body) == {"synopsis", "generation", "result"}
        assert body["result"]["version"] == 3
