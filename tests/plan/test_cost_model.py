"""The cost model: step pricing, factors, and where its estimates live.

A :class:`PatternCost` prices one plan.  Its sub-pattern estimates read
through ``system.estimate`` and so through the semantic result cache;
its own dict only dedupes the repeats inside that plan, and nothing it
holds outlives the plan.
"""

from __future__ import annotations

import pytest

from repro.core.options import ExplainOptions
from repro.core.system import EstimationSystem
from repro.errors import ReproError
from repro.plan.cost import AXIS_WEIGHTS, PatternCost, build_plan, step_cost
from repro.xpath.ast import QueryAxis
from repro.xpath.parser import parse_query

BUSHY = "//A[/B][/C][/E]/$D"
UNPRUNED = ExplainOptions(use_path_ids=False)


@pytest.fixture()
def system(figure1):
    return EstimationSystem.build(figure1, p_variance=0, o_variance=0)


def count_estimates(system, monkeypatch):
    """Record the text of every ``system.estimate`` call."""
    calls = []
    real = system.estimate

    def counting(query, **kwargs):
        calls.append(query.to_string())
        return real(query, **kwargs)

    monkeypatch.setattr(system, "estimate", counting)
    return calls


class TestCostModel:
    def test_subpattern_estimates_are_memoized(self, system, monkeypatch):
        calls = count_estimates(system, monkeypatch)
        pattern = PatternCost(system, parse_query(BUSHY), use_path_ids=False)
        query = parse_query("//A/$B")
        first = pattern.subpattern_estimate(query)
        assert pattern.subpattern_estimate(parse_query("//A/$B")) == first
        assert calls == ["//A/B"]

    def test_tag_total_matches_provider(self, system):
        pattern = PatternCost(system, parse_query("//A/$B"), use_path_ids=False)
        expected = float(
            sum(f for _, f in system.path_provider.frequency_pairs("B"))
        )
        assert pattern.tag_total("B") == expected
        assert pattern.tag_total("B") == expected  # cached path

    def test_step_cost_weights_by_axis(self):
        child = step_cost(QueryAxis.CHILD, 10.0, 5.0)
        desc = step_cost(QueryAxis.DESCENDANT, 10.0, 5.0)
        assert child == AXIS_WEIGHTS[QueryAxis.CHILD] * 15.0
        assert desc > child

    def test_unpruned_factors_shrink_with_branches(self, system):
        pattern = PatternCost(system, parse_query(BUSHY), use_path_ids=False)
        node = pattern.query.root  # the A node carries the branches
        assert node.tag == "A"
        none = pattern.factor(node, ())
        some = pattern.factor(node, (0,))
        all_of_them = pattern.factor(node, range(len(node.edges)))
        assert none == 1.0
        assert none >= some >= all_of_them >= 0.0

    def test_pruned_factors_are_neutral(self, system):
        pattern = PatternCost(system, parse_query(BUSHY), use_path_ids=True)
        node = pattern.query.root
        assert pattern.factor(node, (0, 1)) == 1.0


class TestEstimatesLiveInTheSemcache:
    def test_one_plan_estimates_each_subpattern_once(self, system, monkeypatch):
        calls = count_estimates(system, monkeypatch)
        build_plan(system, parse_query(BUSHY), use_path_ids=False)
        assert calls
        assert len(calls) == len(set(calls))

    def test_repeat_explain_is_served_by_the_semcache(self, system):
        system.explain(BUSHY, options=UNPRUNED)
        before = system.semcache.stats()
        assert before.misses > 0
        system.explain(BUSHY, options=UNPRUNED)
        after = system.semcache.stats()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_invalidate_kernel_reprices_the_next_plan(self, system):
        system.explain(BUSHY, options=UNPRUNED)
        misses = system.semcache.stats().misses
        system.invalidate_kernel()
        system.explain(BUSHY, options=UNPRUNED)
        assert system.semcache.stats().misses > misses

    def test_system_holds_no_planner_state(self, system):
        system.explain(BUSHY, options=UNPRUNED)
        assert not hasattr(system, "planner")
        assert not hasattr(system, "planner_stats")
        assert not any("planner" in name for name in vars(system))


class TestEstimatorErrors:
    def test_programming_error_propagates_out_of_explain(self, system, monkeypatch):
        def broken(query, **kwargs):
            raise RuntimeError("estimator bug")

        monkeypatch.setattr(system, "estimate", broken)
        with pytest.raises(RuntimeError, match="estimator bug"):
            system.explain(BUSHY)
        with pytest.raises(RuntimeError, match="estimator bug"):
            system.explain(BUSHY, options=UNPRUNED)

    def test_rejected_slice_is_priced_neutral(self, system, monkeypatch):
        def rejecting(query, **kwargs):
            raise ReproError("unestimable slice")

        expected = build_plan(system, parse_query(BUSHY), use_path_ids=False)
        monkeypatch.setattr(system, "estimate", rejecting)
        pattern = PatternCost(system, parse_query(BUSHY), use_path_ids=False)
        assert pattern.subpattern_estimate(parse_query("//A/$B")) is None
        assert pattern.factor(pattern.query.root, (0,)) == 1.0
        plan = build_plan(system, parse_query(BUSHY), use_path_ids=False)
        assert len(plan.steps) == len(expected.steps)

    def test_join_programming_error_propagates(self, system, monkeypatch):
        def broken(query, **kwargs):
            raise RuntimeError("join bug")

        monkeypatch.setattr(system, "join", broken)
        with pytest.raises(RuntimeError, match="join bug"):
            system.explain(BUSHY)
