"""Estimation of queries with sibling-order axes (Section 5, Equations 3-5).

Notation for one order edge ``X -folls-> Y`` (or ``X -pres-> Y``): the
*earlier* sibling occurs first in document order (X for ``folls``, Y for
``pres``); the *later* one second.  The paper's ``ni1``/``n_{i+1}`` are the
earlier/later pair of ``q1[/q2/folls::q3]``.

Given the target node ``n``:

* ``n`` is one of the siblings → Equation 3 (Node Order Uniformity):
  ``S_Q⃗(n) ≈ S_Q⃗'(n) * S_Q(n) / S_Q'(n)`` where ``Q'`` strips the *other*
  sibling's branch to its head and ``S_Q⃗'(n)`` is read from the path-order
  statistics over the ids surviving the path join on ``Q'``.
* ``n`` lies deeper inside a sibling branch → Equation 4 (Node Containment
  Uniformity): ``S_Q⃗(n) ≈ S_Q(n) * S_Q⃗'(s) / S_Q'(s)`` with ``s`` the head
  of the branch containing ``n``.
* ``n`` is in the trunk (or an unrelated branch) → Equation 5:
  ``S_Q⃗(n) ≈ min(S_Q(n), S_Q⃗(X), S_Q⃗(Y))``.

The paper works the later-branch cases out explicitly; the earlier branch
is the mirror image and reads the opposite region of the path-order table
(DESIGN.md §5.7).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.noorder import estimate_from_join, estimate_no_order
from repro.core.pathjoin import path_join
from repro.core.providers import OrderStatsProvider, PathStatsProvider
from repro.core.transform import (
    UnsupportedQueryError,
    clone_query,
    pattern_subtree_ids,
)
from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.xpath.ast import Query, QueryAxis, QueryNode


def sibling_order_edges(query: Query) -> List[Tuple[QueryAxis, QueryNode, QueryNode]]:
    """All FOLLS/PRES edges of a query."""
    return [
        (axis, source, dest)
        for axis, source, dest in query.iter_edges()
        if axis.is_sibling_order
    ]


def estimate_with_order(
    query: Query,
    path_provider: PathStatsProvider,
    order_provider: OrderStatsProvider,
    table: EncodingTable,
    target: Optional[QueryNode] = None,
    fixpoint: bool = True,
    depth_consistent: bool = True,
    tracer=NULL_TRACER,
    kernel=None,
) -> float:
    """Estimate ``S_Q⃗(target)`` for a query with one sibling-order edge."""
    node = target if target is not None else query.target
    if any(axis.is_scoped_order for axis, _, _ in query.iter_edges()):
        raise UnsupportedQueryError(
            "rewrite scoped foll/pre axes before order estimation "
            "(see repro.core.axis_rewrite)"
        )
    edges = sibling_order_edges(query)
    if not edges:
        return estimate_no_order(
            query, path_provider, table, target=node,
            fixpoint=fixpoint, depth_consistent=depth_consistent,
            tracer=tracer, kernel=kernel,
        )
    if len(edges) > 1:
        return _estimate_multi_edge(
            query, edges, path_provider, order_provider, table, node,
            fixpoint, depth_consistent, tracer, kernel,
        )
    axis, source, dest = edges[0]
    earlier, later = (source, dest) if axis is QueryAxis.FOLLS else (dest, source)
    estimator = _OrderEstimator(
        query, earlier, later, path_provider, order_provider, table,
        fixpoint, depth_consistent, tracer, kernel,
    )
    return estimator.estimate(node)


def _estimate_multi_edge(
    query: Query,
    edges: List[Tuple[QueryAxis, QueryNode, QueryNode]],
    path_provider: PathStatsProvider,
    order_provider: OrderStatsProvider,
    table: EncodingTable,
    node: QueryNode,
    fixpoint: bool,
    depth_consistent: bool,
    tracer=NULL_TRACER,
    kernel=None,
) -> float:
    """Generalized Equation 5 for multiple sibling-order axes.

    For each order edge, all *other* order edges are relaxed to their
    structural counterparts and the single-edge machinery runs; the final
    estimate is the minimum over the per-edge estimates.  When the target
    sits inside one edge's sibling branches that edge contributes the
    target-aware Equation 3/4 value and every other edge acts as an
    Equation-5-style cap (DESIGN.md §5 generalization — the paper's
    standardized form has exactly one order axis).
    """
    estimates = []
    for axis, source, dest in edges:
        reduced, mapping = clone_query(
            query,
            order_to_structural=True,
            keep_order_edges={(source.node_id, dest.node_id)},
            target=node,
        )
        estimates.append(
            estimate_with_order(
                reduced,
                path_provider,
                order_provider,
                table,
                target=mapping[node.node_id],
                fixpoint=fixpoint,
                depth_consistent=depth_consistent,
                tracer=tracer,
                kernel=kernel,
            )
        )
    return min(estimates)


def _is_edge_source(query: Query, candidate: QueryNode, other: QueryNode) -> bool:
    """Does the sibling-order edge run ``candidate -> other``?"""
    return any(
        edge.node is other and edge.axis.is_sibling_order
        for edge in candidate.edges
    )


class _OrderEstimator:
    """Carries the per-query context of Equations 3-5."""

    def __init__(
        self,
        query: Query,
        earlier: QueryNode,
        later: QueryNode,
        path_provider: PathStatsProvider,
        order_provider: OrderStatsProvider,
        table: EncodingTable,
        fixpoint: bool,
        depth_consistent: bool = True,
        tracer=NULL_TRACER,
        kernel=None,
    ):
        self.query = query
        self.earlier = earlier
        self.later = later
        self.paths = path_provider
        self.orders = order_provider
        self.table = table
        self.fixpoint = fixpoint
        self.depth_consistent = depth_consistent
        self.tracer = tracer
        self.kernel = kernel
        # The order-free counterpart Q of the full query.
        self.counterpart, self.counterpart_map = clone_query(
            query, order_to_structural=True
        )
        # Joined on first use: Equation 5 reads S_Q three times.
        self._counterpart_join = None
        # Pattern membership of the two sibling branches.  The defining
        # order edge runs source -> dest; dest's subtree never contains the
        # source (patterns are trees), while the source's subtree reaches
        # dest *through* the order edge and must exclude it.  Which side is
        # "earlier" depends on the axis (folls: source; pres: dest).
        source_is_earlier = earlier is not later and _is_edge_source(query, earlier, later)
        dest = later if source_is_earlier else earlier
        source = earlier if source_is_earlier else later
        dest_ids = pattern_subtree_ids(query, dest, cross_order=True)
        source_ids = pattern_subtree_ids(query, source, cross_order=True) - dest_ids
        if source_is_earlier:
            self.earlier_ids, self.later_ids = source_ids, dest_ids
        else:
            self.earlier_ids, self.later_ids = dest_ids, source_ids

    # ------------------------------------------------------------------

    def estimate(self, node: QueryNode) -> float:
        if node.node_id in self.later_ids:
            sibling, other = self.later, self.earlier
        elif node.node_id in self.earlier_ids:
            sibling, other = self.earlier, self.later
        else:
            return self._trunk_estimate(node)  # Equation 5
        if node is sibling:
            return self._sibling_estimate(sibling, other)  # Equation 3
        return self._deep_branch_estimate(node, sibling, other)  # Equation 4

    # -- Equation 3 -------------------------------------------------------

    def _sibling_estimate(self, sibling: QueryNode, other: QueryNode) -> float:
        s_order_prime, s_prime = self._order_ratio_parts(sibling, other)
        if s_prime <= 0.0:
            return 0.0
        s_q = self._counterpart_estimate(sibling)
        return s_order_prime * s_q / s_prime

    # -- Equation 4 -------------------------------------------------------

    def _deep_branch_estimate(
        self, node: QueryNode, sibling: QueryNode, other: QueryNode
    ) -> float:
        s_order_prime, s_prime = self._order_ratio_parts(sibling, other)
        if s_prime <= 0.0:
            return 0.0
        s_q_n = self._counterpart_estimate(node)
        return s_q_n * s_order_prime / s_prime

    # -- Equation 5 -------------------------------------------------------

    def _trunk_estimate(self, node: QueryNode) -> float:
        s_q_n = self._counterpart_estimate(node)
        s_earlier = self._sibling_estimate(self.earlier, self.later)
        s_later = self._sibling_estimate(self.later, self.earlier)
        return min(s_q_n, s_earlier, s_later)

    # -- shared machinery ---------------------------------------------------

    def _join(self, query: Query):
        return path_join(
            query, self.paths, self.table,
            fixpoint=self.fixpoint, depth_consistent=self.depth_consistent,
            tracer=self.tracer, kernel=self.kernel,
        )

    def _estimate_from_join(self, query: Query, node: QueryNode, join) -> float:
        return estimate_from_join(
            query, node, join, self.paths, self.table,
            self.fixpoint, self.depth_consistent, self.tracer, self.kernel,
        )

    def _counterpart_estimate(self, node: QueryNode) -> float:
        """S_Q(node): the no-order estimate on the full counterpart."""
        if self._counterpart_join is None:
            self._counterpart_join = self._join(self.counterpart)
        return self._estimate_from_join(
            self.counterpart,
            self.counterpart_map[node.node_id],
            self._counterpart_join,
        )

    def _order_ratio_parts(
        self, sibling: QueryNode, other: QueryNode
    ) -> Tuple[float, float]:
        """(S_Q⃗'(sibling), S_Q'(sibling)) for the simplified query.

        ``Q'`` keeps the sibling's branch in full and strips the *other*
        branch to its head node, then drops the order axis.
        """
        simplified, mapping = clone_query(
            self.query,
            drop_subtree_of={other.node_id},
            order_to_structural=True,
            target=sibling,
        )
        join = self._join(simplified)
        if join.empty:
            return 0.0, 0.0
        sibling_clone = mapping[sibling.node_id]
        surviving = join.pids(sibling_clone)
        before = sibling is self.earlier
        s_order_prime = sum(
            self.orders.order_count(sibling.tag, pid, other.tag, before)
            for pid in surviving
        )
        s_prime = self._estimate_from_join(simplified, sibling_clone, join)
        return s_order_prime, s_prime
