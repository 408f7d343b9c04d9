"""Wire format of the ``cache`` attribution object (satellite of the
semantic result cache).

``result.cache = {"plan": bool, "result": bool}`` is the only cache
attribution on the wire: whether the compiled-plan cache hit and whether
the semantic result cache (or the within-batch memo) served the value.
"""

from __future__ import annotations

import pytest

from repro import EstimationSystem
from repro.core.result import EstimateResult
from repro.service import EstimationService, SynopsisRegistry


class TestResultRoundTrip:
    def test_cache_object_survives_as_dict_from_dict(self):
        result = EstimateResult(
            value=2.5,
            query="//A/$B",
            route="no_order",
            elapsed_ms=0.2,
            kernel=True,
            cache={"plan": True, "result": False},
        )
        payload = result.as_dict()
        assert payload["cache"] == {"plan": True, "result": False}
        restored = EstimateResult.from_dict(payload)
        assert restored.cache == {"plan": True, "result": False}
        assert restored.as_dict() == payload

    def test_cache_field_is_optional_for_old_payloads(self):
        result = EstimateResult(value=1.0, query="//A", route="no_order")
        payload = result.as_dict()
        assert "cache" not in payload
        assert EstimateResult.from_dict(payload).cache is None


@pytest.fixture(scope="module")
def service(figure1):
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    registry = SynopsisRegistry()
    registry.register("fig1", system)
    return EstimationService(registry)


class TestServiceWire:
    def test_every_result_carries_the_cache_object(self, service):
        reply = service.handle_estimate(
            {"synopsis": "fig1", "query": "//A/$B"}
        )
        cache = reply["result"]["cache"]
        assert set(cache) == {"plan", "result"}
        assert isinstance(cache["plan"], bool)
        assert isinstance(cache["result"], bool)

    def test_repeat_query_hits_the_plan_cache(self, service):
        first = service.handle_estimate(
            {"synopsis": "fig1", "query": "//A/$C"}
        )
        second = service.handle_estimate(
            {"synopsis": "fig1", "query": "//A/$C"}
        )
        for reply in (first, second):
            assert "cached" not in reply["result"]
        assert first["result"]["cache"]["plan"] is False
        assert second["result"]["cache"]["plan"] is True
        assert second["result"]["cache"]["result"] is True

    def test_trace_requests_report_both_flags_false(self, service):
        reply = service.handle_estimate(
            {"synopsis": "fig1", "query": "//A/$B", "trace": True}
        )
        assert reply["result"]["cache"] == {"plan": False, "result": False}

    def test_batch_duplicates_attribute_to_the_result_cache(self, service):
        reply = service.handle_estimate(
            {
                "synopsis": "fig1",
                "queries": ["//A/$D", "//A/$D", "//A/$D"],
            }
        )
        results = reply["results"]
        assert results[0]["result"]["cache"]["result"] in (False, True)
        third = results[2]
        assert third["result"]["cache"] == {"plan": True, "result": True}
        values = {item["result"]["value"] for item in results}
        assert len(values) == 1

    def test_equivalent_spellings_share_within_a_batch(self, service):
        reply = service.handle_estimate(
            {
                "synopsis": "fig1",
                "queries": ["//A[/B][/C]/$D", "//A[/C][/B]/$D"],
            }
        )
        first, second = reply["results"]
        assert second["result"]["cache"]["result"] is True
        assert second["result"]["value"] == first["result"]["value"]
        assert second["result"]["elapsed_ms"] == 0.0

    def test_metrics_document_exposes_the_semcache_block(self, service):
        service.handle_estimate({"synopsis": "fig1", "query": "//A/$B"})
        document = service.metrics_document()
        block = document["semcache"]
        assert block["synopses"] == 1
        assert block["capacity"] > 0
        assert block["served_hits"] + block["served_misses"] > 0
        assert 0.0 <= block["hit_rate"] <= 1.0


def _fresh_service(figure1, **kwargs):
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    registry = SynopsisRegistry()
    registry.register("fig1", system)
    return system, EstimationService(registry, **kwargs)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSemcacheIsTheOnlyResultMemo:
    """Served values are memoized only by the semantic cache, so its
    capacity and TTL govern served traffic too."""

    def test_capacity_zero_serves_repeats_uncached(self, figure1):
        system, service = _fresh_service(figure1, semcache_capacity=0)
        request = {"synopsis": "fig1", "query": "//A/$B"}
        service.handle_estimate(request)
        reply = service.handle_estimate(request)
        assert reply["result"]["cache"] == {"plan": True, "result": False}
        assert service.metrics_document()["semcache"]["served_hits"] == 0
        assert reply["result"]["value"] == system.estimate("//A/$B")

    def test_expired_entries_are_recomputed(self, figure1):
        from repro.semcache import SemanticResultCache

        clock = FakeClock()
        system, service = _fresh_service(figure1, semcache_ttl_s=5.0)
        system.semcache = SemanticResultCache(clock=clock)
        request = {"synopsis": "fig1", "query": "//A/$C"}
        first = service.handle_estimate(request)
        second = service.handle_estimate(request)
        assert first["result"]["cache"]["result"] is False
        assert second["result"]["cache"]["result"] is True
        clock.now += 10.0
        third = service.handle_estimate(request)
        assert third["result"]["cache"] == {"plan": True, "result": False}
        assert third["result"]["value"] == first["result"]["value"]
        assert system.semcache.stats().expirations == 1

    def test_batches_dedupe_with_the_semcache_off(self, figure1):
        from repro.service import PlanCache

        system, service = _fresh_service(
            figure1, semcache_capacity=0, plan_cache=PlanCache(0)
        )
        batch = {
            "synopsis": "fig1",
            "queries": [
                "//A/$D", "//A/$D", "//A[/B][/C]/$D", "//A[/C][/B]/$D",
            ],
        }
        for _ in range(2):
            before = service.metrics_document()["semcache"]
            before_compiles = service.plan_cache.stats().misses
            reply = service.handle_estimate(batch)
            after = service.metrics_document()["semcache"]
            flags = [item["result"]["cache"]["result"] for item in reply["results"]]
            # Nothing survives across requests; within the batch the
            # duplicate and the reordered spelling are estimated once.
            assert flags == [False, True, False, True]
            assert after["served_misses"] - before["served_misses"] == 2
            assert after["hits"] == 0
            # The repeated text is answered before the plan cache is
            # asked, so even with plan caching off it compiles once.
            assert service.plan_cache.stats().misses - before_compiles == 3
            values = [item["result"]["value"] for item in reply["results"]]
            assert values[0] == values[1] == system.estimate("//A/$D")
            assert values[2] == values[3] == system.estimate("//A[/B][/C]/$D")

