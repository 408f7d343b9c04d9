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
from repro.core.noorder import estimate_no_order, masked_estimate
from repro.core.options import EstimateOptions
from repro.core.order import estimate_with_order
from repro.core.pathjoin import path_join
from repro.core.system import ROUTE_ORDER, ROUTE_SCOPED
from repro.core.transform import CompiledPattern, MaskedPattern, clone_query
from repro.kernel.join import build_query_plan
from repro.workload import WorkloadGenerator
from repro.xpath import parse_query
from repro.xpath.ast import Edge, Query, QueryNode
from tests.core.multi_edge import multi_edge_order_queries


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
    """An order query and its order-free counterpart."""
    yield query
    yield clone_query(query, order_to_structural=True)[0]


def _join_inputs(system, workload, scoped):
    """Every whole query a join reads: order-free queries, raw order and
    scoped queries (constraints anchored through ``structural_link``),
    their counterparts and the sibling-order rewrites of the scoped
    queries.  The sub-patterns the estimators join are node masks,
    covered by :class:`TestMaskEquivalence`."""
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


def _materialize(pattern, mask):
    """The sub-pattern ``mask`` as a fresh :class:`Query` (copies of the
    masked nodes), with the map from pattern node ids to the copies."""
    copies = {
        node.node_id: QueryNode(node.tag)
        for node in pattern.nodes
        if mask >> node.node_id & 1
    }
    for node_id, copy in copies.items():
        parent = pattern.parents[node_id]
        if parent >= 0:
            copies[parent].edges.append(Edge(pattern.axes[node_id], copy, True))
    return Query(copies[0], pattern.query.root_axis), copies


def _same_counterpart(pattern):
    """Does ``pattern`` link every node as :func:`clone_query`'s
    order-free copy of its query does?"""
    clone, mapping = clone_query(pattern.query, order_to_structural=True)
    for node in pattern.nodes:
        link = clone.parent_link(mapping[node.node_id])
        parent = pattern.parents[node.node_id]
        expected = None if parent < 0 else (pattern.axes[node.node_id], mapping[parent])
        if link != expected:
            return False
    return True


def _mask_shape(pattern, mask):
    """Which estimator step builds ``mask``: the full pattern, the
    Equations 3-4 stripped branch, or an Equation 2 spine prune of
    either."""
    full = pattern.full
    if mask == full:
        return "full"
    ids = range(len(pattern.nodes))
    strips = sorted({pattern.strip_below(full, i) for i in ids} - {full})
    if mask in strips:
        return "strip"
    for outer, shape in [(full, "spine")] + [(m, "spine-of-strip") for m in strips]:
        if any(pattern.spine_prune(outer, i) == mask for i in ids):
            return shape
    return "other"


def _estimator_masks(monkeypatch, system, queries):
    """What the kernel-served estimates of ``queries`` compute on masks:
    the distinct ``(pattern, mask)`` joins and the distinct
    ``(pattern, mask, node_id)`` estimates, in first-use order."""
    import repro.core.noorder as noorder
    import repro.core.order as order

    joins, estimates = {}, {}
    join, estimate = CompiledPattern.join, noorder.masked_estimate

    def recording_join(pattern, mask):
        joins.setdefault((id(pattern), mask), (pattern, mask))
        return join(pattern, mask)

    def recording_estimate(pattern, mask, node_id):
        estimates.setdefault((id(pattern), mask, node_id), (pattern, mask, node_id))
        return estimate(pattern, mask, node_id)

    monkeypatch.setattr(CompiledPattern, "join", recording_join)
    monkeypatch.setattr(noorder, "masked_estimate", recording_estimate)
    monkeypatch.setattr(order, "masked_estimate", recording_estimate)
    try:
        for query in queries:
            _reference_estimate(system, query, kernel=system.kernel())
    finally:
        monkeypatch.undo()
    return list(joins.values()), list(estimates.values())


class TestMaskEquivalence:
    """Each mask the estimators build, joined on the kernel, against the
    Section 4 join of the same sub-pattern written out as a query."""

    def test_every_mask_shape_matches_section_4(self, kernel_envs, scoped_items, monkeypatch):
        seen = set()
        for name, system, workload in kernel_envs:
            provider, table = system.path_provider, system.encoding_table
            document_queries = (
                [item.query for item in _all_items(workload) + scoped_items[name]]
                + [parse_query(text) for text in _multi_edge_texts(system)]
                + _nested_branch_probes(workload.order_branch + workload.order_trunk)
            )
            masks, estimates = _estimator_masks(monkeypatch, system, document_queries)
            shapes = {}
            for pattern, mask in masks:
                if mask == pattern.full:
                    assert _same_counterpart(pattern), pattern.query.to_string()
                shape = _mask_shape(pattern, mask)
                shapes[shape] = shapes.get(shape, 0) + 1
                materialized, copies = _materialize(pattern, mask)
                legacy = path_join(materialized, provider, table)
                view = MaskedPattern(pattern, mask)
                compiled = path_join(view, provider, table, kernel=system.kernel())
                text = "%s (mask of %s)" % (materialized.to_string(), pattern.query.to_string())
                assert compiled.empty == legacy.empty, text
                for node in view.nodes():
                    copy = copies[node.node_id]
                    lhs, rhs = legacy.pids(copy), compiled.pids(node)
                    assert list(rhs.items()) == list(lhs.items()), text
                    assert compiled.depths(node) == legacy.depths(copy), text
                    assert compiled.frequency(node) == legacy.frequency(copy), text
            for pattern, mask, node_id in estimates:
                materialized, copies = _materialize(pattern, mask)
                assert masked_estimate(pattern, mask, node_id) == estimate_no_order(
                    materialized, provider, table, target=copies[node_id]
                ), (materialized.to_string(), pattern.nodes[node_id].tag)
            assert "other" not in shapes, (name, shapes)
            assert {"full", "strip", "spine"} <= set(shapes), (name, shapes)
            seen.update(shapes)
        # The recursion of Equation 2 inside a stripped Q' needs a
        # branching ancestor above the sibling pair (the nested probes).
        assert "spine-of-strip" in seen

    def test_multi_edge_estimates_share_one_pattern(self, kernel_envs, monkeypatch):
        """All per-edge relaxations of a multi-edge query join masks of
        one compiled counterpart."""
        name, system, workload = kernel_envs[0]
        for text in _multi_edge_texts(system):
            masks, _ = _estimator_masks(monkeypatch, system, [parse_query(text)])
            assert len({id(pattern) for pattern, _ in masks}) == 1, text

    def test_scoped_variants_get_one_pattern_each(self, kernel_envs, scoped_items, monkeypatch):
        name, system, workload = kernel_envs[0]
        path, table = system.path_provider, system.encoding_table
        for item in scoped_items[name][:20]:
            variants = rewrite_scoped_order_query(item.query, path, table)
            masks, _ = _estimator_masks(monkeypatch, system, [item.query])
            assert len({id(pattern) for pattern, _ in masks}) == len(variants), item.text


def _nested_branch_probes(items):
    """Order queries with a copy of their second trunk step hung off
    the root as a predicate: every sibling branch below then has one
    more branching ancestor, so Equation 2 recurses inside the
    Equations 3-4 ``Q'`` (a spine prune of a stripped mask)."""
    probes = []
    for item in items:
        query = parse_query(item.text)
        root = query.root
        step = root.inline_edge()
        if step is None or not step.axis.is_structural:
            continue
        root.edges.insert(0, Edge(step.axis, QueryNode(step.node.tag), True))
        probes.append(Query(root, query.root_axis, target=query.target))
    return probes


def _multi_edge_texts(system):
    return multi_edge_order_queries(system.labeled.document)
