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

from repro.core.noorder import estimate_no_order, masked_estimate
from repro.core.providers import OrderStatsProvider, PathStatsProvider
from repro.core.transform import CompiledPattern, UnsupportedQueryError
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
    """Estimate ``S_Q⃗(target)`` for a query with sibling-order edges.

    With several edges this is the generalized Equation 5: each edge runs
    the single-edge machinery with every *other* order edge relaxed to
    its structural counterpart, and the estimate is the minimum over the
    edges.  When the target sits inside one edge's sibling branches that
    edge contributes the target-aware Equation 3/4 value and every other
    edge acts as an Equation-5-style cap (DESIGN.md §5 generalization —
    the paper's standardized form has exactly one order axis).
    """
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
    # The counterpart Q: every join of Equations 3-5 runs on a mask of
    # it.  The per-edge relaxations of a multi-edge query all share it,
    # since relaxing the edges one at a time or all at once re-attaches
    # each sibling branch to the same structural parent.
    with CompiledPattern(
        query, path_provider, table, fixpoint, depth_consistent, tracer, kernel
    ) as pattern:
        return min(
            OrderEdge(pattern, order_provider, axis, source, dest).estimate(node.node_id)
            for axis, source, dest in edges
        )


class OrderEdge:
    """Equations 3-5 for one sibling-order edge, over the counterpart.

    ``earlier``/``later`` are the node ids of the edge's earlier and
    later sibling.  Both hang off the same structural parent in the
    counterpart, and a sibling's branch is its subtree there.
    """

    def __init__(
        self,
        pattern: CompiledPattern,
        order_provider: OrderStatsProvider,
        axis: QueryAxis,
        source: QueryNode,
        dest: QueryNode,
    ):
        self.pattern = pattern
        self.orders = order_provider
        if axis is QueryAxis.FOLLS:
            self.earlier, self.later = source.node_id, dest.node_id
        else:
            self.earlier, self.later = dest.node_id, source.node_id

    def branch_of(self, node_id: int) -> Optional[Tuple[int, int]]:
        """``(sibling, other)`` when ``node_id`` sits in one of the two
        sibling branches; ``None`` for the trunk (or an unrelated branch).
        """
        subtree = self.pattern.subtree
        if subtree[self.later] >> node_id & 1:
            return self.later, self.earlier
        if subtree[self.earlier] >> node_id & 1:
            return self.earlier, self.later
        return None

    def estimate(self, node_id: int) -> float:
        branch = self.branch_of(node_id)
        if branch is None:
            return self.trunk_estimate(node_id)  # Equation 5
        sibling, other = branch
        if node_id == sibling:
            return self.sibling_estimate(sibling, other)  # Equation 3
        return self.deep_branch_estimate(node_id, sibling, other)  # Equation 4

    # -- Equation 3 -------------------------------------------------------

    def sibling_estimate(self, sibling: int, other: int) -> float:
        s_order_prime, s_prime = self.ratio_parts(sibling, other)
        if s_prime <= 0.0:
            return 0.0
        s_q = self.counterpart_estimate(sibling)
        return s_order_prime * s_q / s_prime

    # -- Equation 4 -------------------------------------------------------

    def deep_branch_estimate(self, node_id: int, sibling: int, other: int) -> float:
        s_order_prime, s_prime = self.ratio_parts(sibling, other)
        if s_prime <= 0.0:
            return 0.0
        s_q_n = self.counterpart_estimate(node_id)
        return s_q_n * s_order_prime / s_prime

    # -- Equation 5 -------------------------------------------------------

    def trunk_estimate(self, node_id: int) -> float:
        s_q_n = self.counterpart_estimate(node_id)
        s_earlier = self.sibling_estimate(self.earlier, self.later)
        s_later = self.sibling_estimate(self.later, self.earlier)
        return min(s_q_n, s_earlier, s_later)

    # -- shared machinery ---------------------------------------------------

    def counterpart_estimate(self, node_id: int) -> float:
        """S_Q(node): the no-order estimate on the full counterpart."""
        return masked_estimate(self.pattern, self.pattern.full, node_id)

    def ratio_parts(self, sibling: int, other: int) -> Tuple[float, float]:
        """(S_Q⃗'(sibling), S_Q'(sibling)) for the simplified query.

        ``Q'`` keeps the sibling's branch in full and strips the *other*
        branch to its head node, without the order axis.
        """
        pattern = self.pattern
        mask = pattern.strip_below(pattern.full, other)
        join = pattern.join(mask)
        if join.empty:
            return 0.0, 0.0
        node = pattern.nodes[sibling]
        other_tag = pattern.nodes[other].tag
        before = sibling == self.earlier
        s_order_prime = sum(
            self.orders.order_count(node.tag, pid, other_tag, before)
            for pid in join.pids(node)
        )
        s_prime = masked_estimate(pattern, mask, sibling)
        return s_order_prime, s_prime
