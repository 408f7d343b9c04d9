"""Compiled plans and the LRU cache."""

import pytest

from repro.core.system import ROUTE_NO_ORDER, ROUTE_ORDER, ROUTE_SCOPED
from repro.service import PlanCache, compile_plan

# One query per estimation route (figure-1 schema).
ROUTED_QUERIES = [
    ("//A/B", ROUTE_NO_ORDER),
    ("//A[/C/F]/B/$D", ROUTE_NO_ORDER),
    ("//A[/C[/F]/folls::$B/D]", ROUTE_ORDER),
    ("//A[/C/foll::$D]", ROUTE_SCOPED),
]


class TestCompiledPlan:
    @pytest.mark.parametrize("text,route", ROUTED_QUERIES)
    def test_route_selection(self, figure1_system, text, route):
        plan = compile_plan(figure1_system, text)
        assert plan.route == route
        assert (plan.variants is not None) == (route == ROUTE_SCOPED)

    @pytest.mark.parametrize("text,route", ROUTED_QUERIES)
    def test_execute_matches_direct_estimate(self, figure1_system, text, route):
        plan = compile_plan(figure1_system, text)
        assert plan.execute(figure1_system) == figure1_system.estimate(text)

    def test_workload_sweep_matches_direct(self, ssplays_system, ssplays_small):
        from repro.workload import WorkloadGenerator

        workload = WorkloadGenerator(ssplays_small, seed=17).full_workload(30, 30, 30)
        for item in workload.simple + workload.branch + workload.order_branch:
            plan = compile_plan(ssplays_system, item.text)
            assert plan.execute(ssplays_system) == ssplays_system.estimate(
                item.query
            )


class TestPlanCache:
    def test_hit_and_miss_counting(self, figure1_system):
        cache = PlanCache(capacity=8)
        _, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        assert not hit
        plan, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        assert hit
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_same_plan_object_on_hit(self, figure1_system):
        cache = PlanCache(capacity=8)
        first, _ = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        second, _ = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        assert second is first

    def test_generation_invalidates(self, figure1_system):
        cache = PlanCache(capacity=8)
        first, _ = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        second, hit = cache.get_or_compile("fig1", 2, figure1_system, "//A/B")
        assert not hit and second is not first

    def test_lru_eviction(self, figure1_system):
        cache = PlanCache(capacity=2)
        cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        cache.get_or_compile("fig1", 1, figure1_system, "//A/C")
        # Refresh //A/B, then push a third entry: //A/C is the LRU victim.
        cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        cache.get_or_compile("fig1", 1, figure1_system, "//F/E")
        assert len(cache) == 2
        _, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        assert hit
        _, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/C")
        assert not hit
        assert cache.stats().evictions >= 1

    def test_capacity_zero_disables(self, figure1_system):
        cache = PlanCache(capacity=0)
        assert not cache.enabled
        _, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        _, hit = cache.get_or_compile("fig1", 1, figure1_system, "//A/B")
        assert not hit
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 2 and stats.size == 0

    def test_invalidate_by_name(self, figure1_system):
        cache = PlanCache(capacity=8)
        cache.get_or_compile("a", 1, figure1_system, "//A/B")
        cache.get_or_compile("b", 1, figure1_system, "//A/B")
        assert cache.invalidate("a") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0
