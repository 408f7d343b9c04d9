"""Query-pattern transformations used by the estimators.

All transformations clone the pattern (queries are treated as immutable)
and return both the new :class:`~repro.xpath.ast.Query` and a node map from
original ``node_id`` to the cloned node, so callers can keep referring to
"the same" pattern node across variants.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.errors import ReproError
from repro.xpath.ast import Edge, Query, QueryAxis, QueryNode


class UnsupportedQueryError(ReproError, ValueError):
    """Raised when a query shape falls outside the estimator's scope.

    Unlike :class:`~repro.errors.QuerySyntaxError` the text *parses*;
    the estimator just has no rule for the shape.  Carries the stable
    wire kind ``"unsupported_query"`` (see ``repro.errors.WIRE_KINDS``).
    """

    kind = "unsupported_query"


def clone_query(
    query: Query,
    drop_subtree_of: Optional[Set[int]] = None,
    order_to_structural: bool = False,
    target: Optional[QueryNode] = None,
    keep_order_edges: Optional[Set[Tuple[int, int]]] = None,
) -> Tuple[Query, Dict[int, QueryNode]]:
    """Clone ``query`` with optional transformations.

    drop_subtree_of:
        node_ids whose *structural* edges (``edge.axis.is_structural``)
        are dropped (the node is kept; its sibling-order and scoped edges
        survive so order links stay intact).
    order_to_structural:
        rewrite every sibling-order edge ``X -folls/pres-> Y`` into a
        predicate edge ``P -> Y`` (P = X's structural parent, same axis
        that relates X to P), and every scoped edge ``X -foll/pre-> Y``
        into a descendant predicate edge ``P -//-> Y``.  This produces the
        paper's order-free counterpart ``Q`` of an order query.
    keep_order_edges:
        (source node_id, dest node_id) pairs exempt from the
        ``order_to_structural`` rewrite — the multi-axis generalization
        relaxes all order edges but one (DESIGN.md §5).
    target:
        original node to mark as the clone's target (defaults to the
        original query's target).
    """
    drop = drop_subtree_of or set()
    clones: Dict[int, QueryNode] = {}

    def clone_node(node: QueryNode) -> QueryNode:
        copy = QueryNode(node.tag)
        clones[node.node_id] = copy
        for edge in node.edges:
            if node.node_id in drop and edge.axis.is_structural:
                continue
            child = clone_node(edge.node)
            copy.edges.append(Edge(edge.axis, child, edge.is_predicate))
        return copy

    new_root = clone_node(query.root)

    if order_to_structural:
        _lift_order_edges(query, new_root, clones, keep_order_edges or set())

    wanted = target if target is not None else query.target
    mapped_target = clones.get(wanted.node_id)
    if mapped_target is None:
        raise UnsupportedQueryError("target was dropped by the transformation")
    return Query(new_root, query.root_axis, target=mapped_target), clones


def _lift_order_edges(
    query: Query,
    new_root: QueryNode,
    clones: Dict[int, QueryNode],
    keep: Set[Tuple[int, int]],
) -> None:
    """Rewrite order edges in the cloned pattern to structural predicates."""
    for axis, source, dest in query.iter_edges():
        if axis.is_structural:
            continue
        if (source.node_id, dest.node_id) in keep:
            continue
        source_clone = clones.get(source.node_id)
        dest_clone = clones.get(dest.node_id)
        if source_clone is None or dest_clone is None:
            continue  # edge fell inside a dropped subtree
        # Remove the order edge from the clone.
        source_clone.edges = [
            edge for edge in source_clone.edges if edge.node is not dest_clone
        ]
        anchor_axis, anchor = _structural_parent(query, source)
        anchor_clone = clones.get(anchor.node_id) if anchor is not None else None
        if anchor_clone is None:
            raise UnsupportedQueryError(
                "order axis on the query root has no structural parent"
            )
        if axis.is_sibling_order:
            new_axis = anchor_axis if anchor_axis is not None else QueryAxis.CHILD
        else:
            new_axis = QueryAxis.DESCENDANT
        anchor_clone.edges.append(Edge(new_axis, dest_clone, True))


def _structural_parent(
    query: Query, node: QueryNode
) -> Tuple[Optional[QueryAxis], Optional[QueryNode]]:
    """(axis, parent) for the nearest structurally-linked edge ancestor."""
    link = query.parent_link(node)
    while link is not None:
        axis, parent = link
        if axis.is_structural:
            return axis, parent
        link = query.parent_link(parent)
    return None, None


def pattern_subtree_ids(query: Query, head: QueryNode, cross_order: bool = False) -> Set[int]:
    """node_ids reachable from ``head`` (``cross_order`` follows order edges)."""
    seen: Set[int] = set()
    stack = [head]
    while stack:
        node = stack.pop()
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        for edge in node.edges:
            if cross_order or edge.axis.is_structural:
                stack.append(edge.node)
    return seen
