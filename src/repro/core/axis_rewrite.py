"""Rewriting scoped ``foll``/``pre`` axes into sibling-axis queries.

Example 5.3 of the paper: given ``//A[/C/foll::D]``, the path join leaves
``D`` with path id ``p5`` whose only root-to-leaf path runs ``Root/A/B/D``,
so the chain between the context parent ``A`` and ``D`` must be ``B`` — the
query converts to ``//A[/C/folls::B/D]``.  In general every surviving path
id of the axis node contributes the label chains between the context
parent's tag and the axis node's tag; the estimate of the original query is
the **sum** of the estimates of the distinct rewritten queries.

The rewrite presumes the context node is linked to its parent by a child
step (true for the paper's examples and our workload); a descendant-linked
context falls back to the same chain extraction from the anchor node and is
documented as an approximation.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.pathjoin import path_join, structural_link
from repro.core.providers import PathStatsProvider
from repro.core.transform import UnsupportedQueryError, clone_query
from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.pathid import encodings_of
from repro.xpath.ast import Edge, Query, QueryAxis, QueryNode


def scoped_order_edges(query: Query) -> List[Tuple[QueryAxis, QueryNode, QueryNode]]:
    return [
        (axis, source, dest)
        for axis, source, dest in query.iter_edges()
        if axis.is_scoped_order
    ]


def rewrite_scoped_order_query(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool = True,
    depth_consistent: bool = True,
    tracer=NULL_TRACER,
    kernel=None,
) -> List[Query]:
    """Convert one ``foll``/``pre`` edge into a set of sibling-axis queries.

    Returns the rewritten queries (possibly empty when the axis node has no
    surviving path ids — a provably empty result).  Queries without scoped
    axes are returned unchanged, as a singleton list.
    """
    edges = scoped_order_edges(query)
    if not edges:
        return [query]
    if len(edges) > 1:
        raise UnsupportedQueryError("only one foll/pre axis per query is supported")
    axis, source, dest = edges[0]
    sibling_axis = QueryAxis.FOLLS if axis is QueryAxis.FOLL else QueryAxis.PRES

    if structural_link(query, source) is None:
        raise UnsupportedQueryError("foll/pre axis on the query root is not supported")

    # Path join on the order-free counterpart to find the relevant ids.
    counterpart, mapping = clone_query(query, order_to_structural=True)
    join = path_join(
        counterpart, provider, table,
        fixpoint=fixpoint, depth_consistent=depth_consistent,
        tracer=tracer, kernel=kernel,
    )
    if join.empty:
        return []
    surviving = join.pids(mapping[dest.node_id])

    # The sibling pair lives under the *parent* of the context node.  For
    # a child-linked context that is its pattern parent; for a
    # descendant-linked context the parent tags are read off the context's
    # surviving path ids (the label right above each feasible placement).
    parent_tags = _context_parent_tags(query, source, join, mapping, table)
    if not parent_tags:
        return []

    chains: Set[Tuple[str, ...]] = set()
    for pid in surviving:
        for encoding in encodings_of(pid, table.width):
            for parent_tag in parent_tags:
                chain = table.tags_between(encoding, parent_tag, dest.tag)
                if chain is not None:
                    chains.add(tuple(chain))
    rewritten = []
    for chain in sorted(chains):
        rewritten.append(_rewrite_one(query, source, dest, sibling_axis, chain))
    return rewritten


def _context_parent_tags(query, source, join, mapping, table) -> Set[str]:
    """Possible tags of the context node's real parent.

    A child-linked context has a known pattern parent; otherwise every
    feasible (pid, depth) placement of the context contributes the label
    immediately above it on each of its paths.
    """
    link = query.parent_link(source)
    if link is not None and link[0] is QueryAxis.CHILD:
        return {link[1].tag}
    tags: Set[str] = set()
    source_clone = mapping[source.node_id]
    depths = join.depths(source_clone)
    if depths:
        for pid, feasible in depths.items():
            for encoding in encodings_of(pid, table.width):
                labels = table.labels_of(encoding)
                for depth in feasible:
                    if 0 < depth < len(labels) and labels[depth] == source.tag:
                        tags.add(labels[depth - 1])
        return tags
    # Pairwise-join fallback: no depth information; use every occurrence.
    for pid in join.pids(source_clone):
        for encoding in encodings_of(pid, table.width):
            labels = table.labels_of(encoding)
            for depth in range(1, len(labels)):
                if labels[depth] == source.tag:
                    tags.add(labels[depth - 1])
    return tags


def _rewrite_one(
    query: Query,
    source: QueryNode,
    dest: QueryNode,
    sibling_axis: QueryAxis,
    chain: Tuple[str, ...],
) -> Query:
    """Clone the query replacing ``source -foll/pre-> dest`` with
    ``source -folls/pres-> chain[0]/chain[1]/.../dest``."""
    clones: Dict[int, QueryNode] = {}

    def clone_node(node: QueryNode) -> QueryNode:
        copy = QueryNode(node.tag)
        clones[node.node_id] = copy
        for edge in node.edges:
            if node is source and edge.node is dest and edge.axis.is_scoped_order:
                continue  # re-attached through the chain below
            copy.edges.append(Edge(edge.axis, clone_node(edge.node), edge.is_predicate))
        return copy

    new_root = clone_node(query.root)
    dest_clone = clone_node(dest)  # dest subtree, cloned separately

    # Build the downward chain ending at dest.
    bottom = dest_clone
    for tag in reversed(chain):
        holder = QueryNode(tag)
        holder.edges.append(Edge(QueryAxis.CHILD, bottom, False))
        bottom = holder
    source_clone = clones[source.node_id]
    is_predicate = source_clone.inline_edge() is not None
    source_clone.edges.append(Edge(sibling_axis, bottom, is_predicate))

    mapped_target = clones.get(query.target.node_id)
    if mapped_target is None:
        raise UnsupportedQueryError("target was lost during the axis rewrite")
    return Query(new_root, query.root_axis, target=mapped_target)
