"""Service-level kernel behavior: response fields, batch memo, metrics.

Traced requests bypass the semantic result cache, so their ``kernel`` field
is derived from the span tree of the real execution (a ``bitset_join``
span) rather than from plan state — the observability overhead gate
stays meaningful either way.  The fallback cases serve a depth-refined
synopsis, whose statistics the kernel cannot compile, so every join
takes the Section 4 dict join.
"""

from __future__ import annotations

import pytest

from repro.core.system import EstimationSystem
from repro.service import EstimationService, SynopsisRegistry

QUERY = "//A/B"


@pytest.fixture()
def service(figure1):
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    registry = SynopsisRegistry()
    registry.register("fig1", system)
    return EstimationService(registry), system


@pytest.fixture()
def unkerneled_service(figure1):
    system = EstimationSystem.build(figure1, use_histograms=False, depth_refined=True)
    registry = SynopsisRegistry()
    registry.register("fig1", system)
    return EstimationService(registry), system


class TestKernelField:
    def test_untraced_response_reports_kernel(self, service):
        svc, system = service
        body = svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        assert body["result"]["kernel"] is True
        assert svc.metrics.counter("kernel_hits_total") == 1

    def test_untraced_response_with_kernel_disabled(self, unkerneled_service):
        svc, system = unkerneled_service
        body = svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        assert body["result"]["kernel"] is False
        assert svc.metrics.counter("kernel_misses_total") == 1

    def test_traced_response_reports_actual_join_path(self, service):
        svc, system = service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "query": QUERY, "trace": True}
        )
        assert body["result"]["kernel"] is True
        assert body["result"]["trace"] is not None
        # Traced and untraced agree on the value, per the obs contract.
        untraced = svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        assert body["result"]["value"] == untraced["result"]["value"]

    def test_traced_response_with_kernel_disabled(self, unkerneled_service):
        svc, system = unkerneled_service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "query": QUERY, "trace": True}
        )
        assert body["result"]["kernel"] is False


class TestBatchMemo:
    def test_duplicate_queries_served_from_batch_memo(self, service):
        svc, system = service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "queries": [QUERY, "//A", QUERY]}
        )
        assert body["count"] == 3
        first, second, third = (item["result"] for item in body["results"])
        assert third["value"] == first["value"]
        assert third["route"] == first["route"]
        assert third["cache"]["plan"] is True
        assert third["kernel"] == first["kernel"] is True

    def test_batch_results_equal_direct_estimates(self, service):
        svc, system = service
        texts = [QUERY, "//A", "//A[/B]/$C"]
        body = svc.handle_estimate({"synopsis": "fig1", "queries": texts})
        direct = [system.estimate(text) for text in texts]
        assert [r["result"]["value"] for r in body["results"]] == direct

    def test_batch_equals_estimate_batch(self, service):
        svc, system = service
        texts = [QUERY, "//A", QUERY]
        body = svc.handle_estimate({"synopsis": "fig1", "queries": texts})
        values = [r["result"]["value"] for r in body["results"]]
        assert values == system.estimate(texts)


class TestKernelMetrics:
    def test_metrics_document_kernel_block(self, service):
        svc, system = service
        svc.handle_estimate({"synopsis": "fig1", "queries": [QUERY, "//A"]})
        block = svc.metrics_document()["kernel"]
        assert block["synopses"] == 1
        assert block["active"] == 1
        assert block["joins"] >= 2
        assert block["fallbacks"] == 0
        assert block["tag_tables"] > 0
        assert block["pairs"] > 0
        assert block["hits"] == 2
        assert block["misses"] == 0
        assert block["build_ms"] >= 0.0

    def test_metrics_prom_kernel_gauges(self, service):
        svc, system = service
        svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        text = svc.metrics_prom()
        assert "repro_kernel_joins_total" in text
        assert "repro_kernel_active_synopses" in text
        assert "repro_kernel_fallbacks_total 0" in text

    def test_kernel_block_counts_inactive_kernels(self, unkerneled_service):
        svc, system = unkerneled_service
        svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        block = svc.metrics_document()["kernel"]
        assert block["synopses"] == 1
        assert block["active"] == 0
        assert block["fallbacks"] > 0
        assert block["misses"] == 1
        assert svc.healthz()["kernels"] == {"fig1": "unsupported"}

    def test_scrape_never_attaches_a_kernel(self, service):
        svc, system = service
        assert svc.healthz()["kernels"] == {"fig1": "pending"}
        block = svc.metrics_document()["kernel"]
        svc.metrics_prom()
        assert system.kernel_peek() is None
        assert svc.healthz()["kernels"] == {"fig1": "pending"}
        assert block["synopses"] == 1
        assert block["active"] == 0
        assert block["tag_tables"] == 0
        svc.handle_estimate({"synopsis": "fig1", "query": QUERY})
        assert svc.healthz()["kernels"] == {"fig1": "ready"}
        assert svc.metrics_document()["kernel"]["active"] == 1
