"""Kernel path vs the Section 4 join: bit-for-bit equivalence on real
workloads.

The compiled kernel is a pure representation change — same fixpoint, same
iteration order for every float sum — so estimates must be *identical*
(``==``, not approx) across the full workload suite of all three
datasets, at the estimate, trace and join-result levels.  The reference
side calls the public estimators without ``kernel=``, which runs every
join through the dict join of :mod:`repro.core.pathjoin`.
"""

from __future__ import annotations

import pytest

from repro.core.axis_rewrite import rewrite_scoped_order_query
from repro.core.noorder import estimate_no_order
from repro.core.options import EstimateOptions
from repro.core.order import estimate_with_order, sibling_order_edges
from repro.core.pathjoin import path_join
from repro.core.system import ROUTE_ORDER, ROUTE_SCOPED
from repro.core.transform import clone_query
from repro.kernel.join import build_query_plan
from repro.workload import WorkloadGenerator


def _all_items(workload):
    return (
        workload.simple
        + workload.branch
        + workload.order_branch
        + workload.order_trunk
    )


@pytest.fixture(scope="module")
def scoped_items(ssplays_small, dblp_small, xmark_small):
    """Scoped ``foll``/``pre`` workload queries, keyed by dataset name."""
    return {
        name: WorkloadGenerator(document, seed=13).scoped_order_queries(80)
        for name, document in (
            ("SSPlays", ssplays_small),
            ("DBLP", dblp_small),
            ("XMark", xmark_small),
        )
    }


def _order_join_inputs(query):
    """An order query, its order-free counterpart and, per sibling-order
    edge, the two ``drop_subtree_of`` simplifications of Equations 3-4."""
    yield query
    yield clone_query(query, order_to_structural=True)[0]
    for _, source, dest in sibling_order_edges(query):
        for sibling, other in ((source, dest), (dest, source)):
            yield clone_query(
                query,
                drop_subtree_of={other.node_id},
                order_to_structural=True,
                target=sibling,
            )[0]


def _join_inputs(system, workload, scoped):
    """Every join shape an estimate reaches: order-free queries, raw
    order and scoped queries (constraints anchored through
    ``_structural_anchor``), their counterparts and simplifications, and
    the sibling-order rewrites of the scoped queries."""
    yield from (item.query for item in workload.no_order())
    for item in workload.order_branch + workload.order_trunk:
        yield from _order_join_inputs(item.query)
    for item in scoped:
        yield from _order_join_inputs(item.query)
        for rewritten in rewrite_scoped_order_query(
            item.query, system.path_provider, system.encoding_table
        ):
            yield from _order_join_inputs(rewritten)


def _spans(trace):
    stack = [trace["root"]]
    while stack:
        span = stack.pop()
        yield span["name"]
        stack.extend(span.get("children", ()))


def _reference_estimate(system, query, **ablation):
    """``system.estimate(query, **ablation)`` on the Section 4 join."""
    path, table = system.path_provider, system.encoding_table
    route = system.select_route(query)
    if route == ROUTE_SCOPED:
        return sum(
            _reference_estimate(system, variant, **ablation)
            for variant in rewrite_scoped_order_query(query, path, table, **ablation)
        )
    if route == ROUTE_ORDER:
        return estimate_with_order(
            query, path, system.order_provider, table, **ablation
        )
    return estimate_no_order(query, path, table, **ablation)


def _reference_estimates(system, items):
    return [_reference_estimate(system, item.query) for item in items]


class TestEstimateEquivalence:
    def test_every_workload_query_is_bit_identical(self, kernel_envs, scoped_items):
        for name, system, workload in kernel_envs:
            items = _all_items(workload) + scoped_items[name]
            assert items, name
            legacy = _reference_estimates(system, items)
            kernel = [system.estimate(item.query) for item in items]
            mismatches = [
                (item.text, lhs, rhs)
                for item, lhs, rhs in zip(items, legacy, kernel)
                if lhs != rhs
            ]
            assert mismatches == [], "%s: %d mismatches" % (name, len(mismatches))

    def test_kernel_served_every_join(self, kernel_envs):
        for name, system, workload in kernel_envs:
            for item in _all_items(workload):
                system.estimate(item.query)
            stats = system.kernel().stats()
            assert stats["joins"] > 0, name
            assert stats["fallbacks"] == 0, name

    def test_traced_executions_match_untraced(self, kernel_envs):
        name, system, workload = kernel_envs[0]
        for item in _all_items(workload)[:40]:
            traced = system.estimate(item.text, options=EstimateOptions(trace=True))
            assert traced.value == system.estimate(item.query)
            assert "bitset_join" in set(_spans(traced.trace))

    def test_batch_equals_individual(self, kernel_envs):
        for name, system, workload in kernel_envs:
            items = _all_items(workload)[:60]
            texts = [item.text for item in items]
            batch = system.estimate(texts)
            singles = [system.estimate(item.query) for item in items]
            assert batch == singles, name

    def test_batch_with_duplicates_and_asts(self, kernel_envs):
        name, system, workload = kernel_envs[0]
        item = workload.simple[0]
        batch = system.estimate([item.text, item.query, item.text])
        assert batch == [system.estimate(item.query)] * 3


class TestJoinEquivalence:
    def test_join_results_identical(self, kernel_envs, scoped_items):
        """pids (values *and* dict order), depths and frequencies agree
        on every node of every join input the workloads reach."""
        for name, system, workload in kernel_envs:
            provider, table = system.path_provider, system.encoding_table
            kernel = system.kernel()
            joined = 0
            for query in _join_inputs(system, workload, scoped_items[name]):
                text = query.to_string()
                legacy = path_join(query, provider, table)
                compiled = path_join(query, provider, table, kernel=kernel)
                assert compiled.empty == legacy.empty, text
                for node in query.nodes():
                    lhs, rhs = legacy.pids(node), compiled.pids(node)
                    assert rhs == lhs, text
                    assert list(rhs) == list(lhs), text  # insertion order
                    assert compiled.depths(node) == legacy.depths(node), text
                    assert compiled.frequency(node) == legacy.frequency(node), text
                joined += 1
            assert joined > len(workload.no_order()), name

    def test_constraints_form_a_forest(self, kernel_envs, scoped_items):
        """The two-pass kernel join relies on it: each node is the lower
        end of at most one step, and that step precedes every step with
        the node as its upper end."""
        for name, system, workload in kernel_envs:
            kernel = system.kernel()
            for query in _join_inputs(system, workload, scoped_items[name]):
                steps = build_query_plan(kernel, query).steps
                lowers = [lower for _, lower, _, _ in steps]
                assert len(set(lowers)) == len(lowers), query.to_string()
                for index, (upper, _, _, _) in enumerate(steps):
                    if upper in lowers:
                        assert lowers.index(upper) < index, query.to_string()

    def test_ablations_fall_back_to_legacy(self, kernel_envs):
        """The paper's ablation modes (no fixpoint / no depth filter) are
        not compiled; the system must route them around the kernel."""
        name, system, workload = kernel_envs[0]
        item = workload.branch[0]
        joins = system.kernel().joins
        for kwargs in ({"fixpoint": False}, {"depth_consistent": False}):
            relaxed = system.estimate(item.query, **kwargs)
            assert relaxed == _reference_estimate(system, item.query, **kwargs)
        assert system.kernel().joins == joins


class TestHistogramProviders:
    def test_histogram_backed_synopsis_is_equivalent(self, ssplays_small):
        """Non-zero variance swaps in the p-histogram provider; the
        kernel must compile it identically too."""
        from repro.core.system import EstimationSystem
        from repro.workload import WorkloadGenerator

        system = EstimationSystem.build(ssplays_small, p_variance=100.0, o_variance=100.0)
        workload = WorkloadGenerator(ssplays_small, seed=13).full_workload(
            raw_simple=40, raw_branch=40, raw_order=50
        )
        items = _all_items(workload)
        legacy = _reference_estimates(system, items)
        kernel = [system.estimate(item.query) for item in items]
        assert legacy == kernel
        assert system.kernel().stats()["fallbacks"] == 0
