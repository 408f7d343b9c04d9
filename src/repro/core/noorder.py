"""Estimation of queries without order axes (Section 4).

* **Simple queries** (a single chain): Theorem 4.1 — after the path join,
  the summed frequency ``f_Q(n)`` *is* the selectivity (exact when the path
  statistics are exact).
* **Branch queries**: when the target node sits on a branch, ``f_Q(n)``
  over-estimates, because path ids capture vertical containment but not
  the co-occurrence constraints imposed by sibling branches.  Equation 2
  compensates under the Node Independence Assumption::

      S_Q(n) ≈ f_Q'(n) * f_Q(ni) / f_Q'(ni)

  where ``ni`` is the branching node on the target's spine and ``Q'`` drops
  the branches hanging off the target's strict spine ancestors.

The paper standardizes queries to one branching node (``q1[/q2]/q3``).  We
generalize recursively: if ``ni`` itself sits below further branching
nodes, its selectivity is estimated by the same rule (each application uses
Node Independence once); the recursion ends at the query root
(DESIGN.md §5, "trunk" resolution).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.pathjoin import JoinResult, path_join
from repro.core.providers import PathStatsProvider
from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.xpath.ast import Query, QueryNode


def is_trunk_target(query: Query, target: QueryNode) -> bool:
    """True when no strict spine ancestor of ``target`` has extra branches.

    For the standardized ``q1[/q2]/q3`` this is exactly "target occurs in
    the trunk part q1".
    """
    return branching_ancestor(query, target) is None


def branching_ancestor(query: Query, target: QueryNode) -> Optional[QueryNode]:
    """Deepest strict spine ancestor of ``target`` with more than one edge.

    Returns ``None`` when the spine is branch-free (trunk target).
    """
    spine = query.spine_to(target)
    for node in reversed(spine[:-1]):
        if len(node.edges) > 1:
            return node
    return None


def prune_to_spine(query: Query, target: QueryNode) -> Query:
    """Build ``Q'``: drop every edge hanging off strict spine ancestors of
    ``target`` except the spine edges themselves.

    Edges at or below ``target`` are kept (they are downward constraints
    the path ids handle directly).
    """
    spine = query.spine_to(target)
    spine_ids: Set[int] = {node.node_id for node in spine}
    clones = {}

    def clone(node: QueryNode, keep_all: bool) -> QueryNode:
        copy = QueryNode(node.tag)
        clones[node.node_id] = copy
        for edge in node.edges:
            if keep_all or edge.node.node_id in spine_ids:
                child = clone(edge.node, keep_all or edge.node is target)
                copy.edges.append(edge._replace(node=child))
        return copy

    new_root = clone(query.root, query.root is target)
    return Query(new_root, query.root_axis, target=clones[target.node_id])


def estimate_no_order(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    target: Optional[QueryNode] = None,
    fixpoint: bool = True,
    depth_consistent: bool = True,
    tracer=NULL_TRACER,
    kernel=None,
) -> float:
    """Estimate ``S_Q(target)`` for a query without order axes."""
    node = target if target is not None else query.target
    join = path_join(
        query,
        provider,
        table,
        fixpoint=fixpoint,
        depth_consistent=depth_consistent,
        tracer=tracer,
        kernel=kernel,
    )
    return estimate_from_join(
        query, node, join, provider, table, fixpoint, depth_consistent, tracer, kernel
    )


def estimate_from_join(
    query: Query,
    node: QueryNode,
    join: JoinResult,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool,
    depth_consistent: bool,
    tracer=NULL_TRACER,
    kernel=None,
) -> float:
    """``S_Q(node)`` from ``join``, the already computed path join of
    ``query`` (only the spine-pruned ``Q'`` of Equation 2 is joined here).
    """
    if join.empty:
        return 0.0
    branching = branching_ancestor(query, node)
    if branching is None:
        return join.frequency(node)  # Theorem 4.1
    pruned = prune_to_spine(query, node)
    pruned_join = path_join(
        pruned,
        provider,
        table,
        fixpoint=fixpoint,
        depth_consistent=depth_consistent,
        tracer=tracer,
        kernel=kernel,
    )
    if pruned_join.empty:
        return 0.0
    f_prime_n = pruned_join.frequency(pruned.target)
    # f_Q'(ni): the branching node's clone sits on the pruned spine.
    ni_clone = _spine_counterpart(query, pruned, branching, node)
    f_prime_ni = pruned_join.frequency(ni_clone)
    if f_prime_ni <= 0.0:
        return 0.0
    # S_Q(ni), recursively (equals f_Q(ni) when ni is trunk).
    s_ni = estimate_from_join(
        query, branching, join, provider, table, fixpoint, depth_consistent,
        tracer, kernel,
    )
    return f_prime_n * s_ni / f_prime_ni


def _spine_counterpart(
    query: Query, pruned: Query, ancestor: QueryNode, target: QueryNode
) -> QueryNode:
    """Locate ``ancestor``'s clone inside the pruned query.

    The pruned spine mirrors the original spine node-for-node, so the clone
    sits at the same depth along the spine to the pruned target.
    """
    original_spine = query.spine_to(target)
    pruned_spine = pruned.spine_to(pruned.target)
    index = original_spine.index(ancestor)
    return pruned_spine[index]
