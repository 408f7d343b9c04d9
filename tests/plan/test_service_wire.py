"""The explain/execute verbs over the service wire: plan payload shape,
match counts vs the reference evaluator, error mapping, and the
``planner`` block of ``/metrics``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.system import EstimationSystem
from repro.persist import system_from_dict, system_to_dict
from repro.plan.ir import PLAN_FORMAT_VERSION
from repro.service import EstimationService, SynopsisRegistry
from repro.service.server import MAX_WIRE_MATCHES, RequestError
from repro.xpath import Evaluator, parse_query

QUERY = "//A[/B]/$C"


@pytest.fixture()
def service(figure1):
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    registry = SynopsisRegistry()
    registry.register("fig1", system)
    return EstimationService(registry), system, figure1


class TestExplainWire:
    def test_explain_returns_versioned_plan(self, service):
        svc, system, _ = service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "query": QUERY, "explain": True}
        )
        plan = body["plan"]
        assert plan["version"] == PLAN_FORMAT_VERSION
        # The plan carries the canonical rendering ($-target implicit).
        assert plan["query"] == "//A[/B]/C"
        assert plan["steps"]
        assert "matches" not in body  # explain never executes
        json.dumps(body)  # wire-safe

    def test_explain_counts_in_planner_metrics(self, service):
        svc, _, _ = service
        svc.handle_estimate({"synopsis": "fig1", "query": QUERY, "explain": True})
        planner = svc.metrics_document()["planner"]
        assert planner == {"explains": 1, "served_executions": 0}


class TestExecuteWire:
    def test_execute_matches_direct_processor(self, service):
        svc, _, figure1 = service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "query": QUERY, "execute": True}
        )
        query = parse_query(QUERY)
        expected = set(Evaluator(figure1).matching_pres(query, query.target))
        assert set(body["matches"]) == expected
        assert body["match_count"] == len(expected)
        assert body["matches_truncated"] is False
        assert len(expected) <= MAX_WIRE_MATCHES
        assert body["plan"]["executed"] is True
        json.dumps(body)

    def test_execute_feeds_slow_log_with_exact_actual(self, service):
        svc, _, figure1 = service
        body = svc.handle_estimate(
            {"synopsis": "fig1", "query": QUERY, "execute": True}
        )
        records = svc.slow_log.snapshot()["recent"]
        assert records
        # Executed requests report the exact match count as ground truth.
        assert records[-1]["actual"] == float(body["match_count"])

    def test_execute_counts_in_planner_metrics(self, service):
        svc, _, _ = service
        svc.handle_estimate({"synopsis": "fig1", "query": QUERY, "execute": True})
        planner = svc.metrics_document()["planner"]
        assert planner == {"explains": 0, "served_executions": 1}


class TestWireErrors:
    def test_statistics_only_synopsis_maps_to_409(self, figure1):
        stats_only = system_from_dict(
            system_to_dict(
                EstimationSystem.build(figure1, p_variance=0, o_variance=0)
            )
        )
        registry = SynopsisRegistry()
        registry.register("stats", stats_only)
        svc = EstimationService(registry)
        with pytest.raises(RequestError) as excinfo:
            svc.handle_estimate(
                {"synopsis": "stats", "query": QUERY, "execute": True}
            )
        assert excinfo.value.status == 409
        assert excinfo.value.kind == "execute_unsupported"
        # Planning needs only the synopsis: explain still succeeds.
        body = svc.handle_estimate(
            {"synopsis": "stats", "query": QUERY, "explain": True}
        )
        assert body["plan"]["steps"]

    def test_batch_with_plan_verb_rejected(self, service):
        svc, _, _ = service
        for verb in ("explain", "execute"):
            with pytest.raises(RequestError) as excinfo:
                svc.handle_estimate(
                    {"synopsis": "fig1", "queries": [QUERY], verb: True}
                )
            assert excinfo.value.status == 400

    def test_explain_and_execute_are_mutually_exclusive(self, service):
        svc, _, _ = service
        with pytest.raises(RequestError) as excinfo:
            svc.handle_estimate(
                {
                    "synopsis": "fig1",
                    "query": QUERY,
                    "explain": True,
                    "execute": True,
                }
            )
        assert excinfo.value.status == 400
