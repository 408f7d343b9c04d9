"""Query-pattern transformations used by the estimators.

Every path join of one estimate runs on a sub-pattern of a single
order-free pattern: the query itself when it has no order axes, else its
order-free counterpart ``Q``, where each order edge's destination hangs
off the source's structural parent instead.  Equation 2's spine-pruned
``Q'``, Equations 3-4's stripped branch and Equation 5's counterpart are
all parent-closed subsets of that pattern, so :class:`CompiledPattern`
compiles it once into flat per-node arrays and names each sub-pattern by
a node mask (an int, bit ``i`` = node ``i``).  A :class:`MaskedPattern`
hands a mask to :func:`~repro.core.pathjoin.path_join` and to the kernel
join with no copy of the pattern; node ids stay the query's throughout.

:func:`clone_query` writes the counterpart out as a new
:class:`~repro.xpath.ast.Query` for the callers that need one (the
Example 5.3 rewrite reads path ids off its join).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pathjoin import JoinResult, path_join, structural_link
from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER
from repro.xpath.ast import Edge, Query, QueryAxis, QueryNode


class UnsupportedQueryError(ReproError, ValueError):
    """Raised when a query shape falls outside the estimator's scope.

    Unlike :class:`~repro.errors.QuerySyntaxError` the text *parses*;
    the estimator just has no rule for the shape.  Carries the stable
    wire kind ``"unsupported_query"`` (see ``repro.errors.WIRE_KINDS``).
    """

    kind = "unsupported_query"


def clone_query(
    query: Query, order_to_structural: bool = False
) -> Tuple[Query, Dict[int, QueryNode]]:
    """Clone ``query``; return the clone and a map from original
    ``node_id`` to the cloned node.

    ``order_to_structural`` rewrites every sibling-order edge
    ``X -folls/pres-> Y`` into a predicate edge ``P -> Y`` (P = X's
    structural parent, same axis that relates X to P), and every scoped
    edge ``X -foll/pre-> Y`` into a descendant predicate edge
    ``P -//-> Y``.  This produces the paper's order-free counterpart
    ``Q`` of an order query.
    """
    clones: Dict[int, QueryNode] = {}

    def clone_node(node: QueryNode) -> QueryNode:
        copy = QueryNode(node.tag)
        clones[node.node_id] = copy
        for edge in node.edges:
            child = clone_node(edge.node)
            copy.edges.append(Edge(edge.axis, child, edge.is_predicate))
        return copy

    new_root = clone_node(query.root)
    if order_to_structural:
        _lift_order_edges(query, clones)
    target = clones[query.target.node_id]
    return Query(new_root, query.root_axis, target=target), clones


def _lift_order_edges(query: Query, clones: Dict[int, QueryNode]) -> None:
    """Rewrite order edges in the cloned pattern to structural predicates."""
    for axis, source, dest in query.iter_edges():
        if axis.is_structural:
            continue
        source_clone = clones[source.node_id]
        dest_clone = clones[dest.node_id]
        # Remove the order edge from the clone.
        source_clone.edges = [
            edge for edge in source_clone.edges if edge.node is not dest_clone
        ]
        new_axis, anchor = _lifted_link(query, axis, source)
        clones[anchor.node_id].edges.append(Edge(new_axis, dest_clone, True))


def _lifted_link(
    query: Query, axis: QueryAxis, source: QueryNode
) -> Tuple[QueryAxis, QueryNode]:
    """(axis, parent) of an order edge's destination in the counterpart.

    Siblings share the parent: a ``folls``/``pres`` destination hangs off
    the source's nearest structurally-linked ancestor by the same axis;
    a scoped ``foll``/``pre`` destination lies somewhere below it.
    """
    link = structural_link(query, source)
    if link is None:
        raise UnsupportedQueryError(
            "order axis on the query root has no structural parent"
        )
    anchor_axis, anchor = link
    return (anchor_axis if axis.is_sibling_order else QueryAxis.DESCENDANT), anchor


class CompiledPattern:
    """The order-free counterpart of one query, compiled for the joins of
    one estimate.

    Node ids are the query's.  ``parents[i]``/``axes[i]`` link node ``i``
    to its parent in the counterpart (-1/``None`` at the root);
    ``children[i]`` and ``subtree[i]`` are the masks of its children and
    of its subtree (itself included).  A lifted order edge hangs its
    destination off an ancestor of the source, so every parent id stays
    below its children's, as in the query's preorder.  :meth:`join` runs
    the path join of one mask with the estimate's join arguments and
    keeps the result by mask; ``kernel_state`` is where the kernel join
    keeps the pattern's resolved steps, so they are built once per
    estimate rather than once per join.  Use it as a context manager:
    leaving the block drops the kept joins, whose results point back at
    the pattern, so the estimate's bitsets are freed at once rather than
    at the next cyclic collection.
    """

    __slots__ = (
        "query", "nodes", "parents", "axes", "children", "subtree", "full",
        "kernel_state", "_joins", "_join_args",
    )

    def __init__(
        self,
        query: Query,
        provider,
        table,
        fixpoint: bool = True,
        depth_consistent: bool = True,
        tracer=NULL_TRACER,
        kernel=None,
    ):
        nodes = query.nodes()
        count = len(nodes)
        parents = [-1] * count
        axes: List[Optional[QueryAxis]] = [None] * count
        children = [0] * count
        for axis, parent, dest in query.iter_edges():
            if not axis.is_structural:
                axis, parent = _lifted_link(query, axis, parent)
            parents[dest.node_id] = parent.node_id
            axes[dest.node_id] = axis
            children[parent.node_id] |= 1 << dest.node_id
        subtree = [1 << node_id for node_id in range(count)]
        for node_id in range(count - 1, 0, -1):
            subtree[parents[node_id]] |= subtree[node_id]
        self.query = query
        self.nodes = nodes
        self.parents = parents
        self.axes = axes
        self.children = children
        self.subtree = subtree
        self.full = (1 << count) - 1
        self.kernel_state = None
        self._joins: Dict[int, JoinResult] = {}
        self._join_args = (provider, table, fixpoint, depth_consistent, tracer, kernel)

    def __enter__(self) -> "CompiledPattern":
        return self

    def __exit__(self, *exc_info) -> None:
        self._joins.clear()

    def join(self, mask: int) -> JoinResult:
        """The path join of the sub-pattern ``mask``, run once per mask."""
        result = self._joins.get(mask)
        if result is None:
            provider, table, fixpoint, depth_consistent, tracer, kernel = self._join_args
            result = path_join(
                self.view(mask), provider, table,
                fixpoint=fixpoint, depth_consistent=depth_consistent,
                tracer=tracer, kernel=kernel,
            )
            self._joins[mask] = result
        return result

    def view(self, mask: int) -> "MaskedPattern":
        return MaskedPattern(self, mask)

    def spine_prune(self, mask: int, node_id: int) -> int:
        """Equation 2's ``Q'``: the spine from the root to ``node_id``
        plus the node's own subtree; the branches hanging off its strict
        spine ancestors are dropped."""
        kept = self.subtree[node_id]
        parent = self.parents[node_id]
        while parent >= 0:
            kept |= 1 << parent
            parent = self.parents[parent]
        return mask & kept

    def strip_below(self, mask: int, node_id: int) -> int:
        """Equations 3-4's ``Q'``: ``node_id`` stripped to its head (its
        strict descendants dropped)."""
        return mask & ~(self.subtree[node_id] ^ (1 << node_id))

    def branching_ancestor(self, mask: int, node_id: int) -> int:
        """Deepest strict spine ancestor of ``node_id`` with more than one
        child in ``mask``; -1 when the spine is branch-free (a trunk
        target, Theorem 4.1 applies)."""
        parent = self.parents[node_id]
        while parent >= 0:
            branches = self.children[parent] & mask
            if branches & (branches - 1):
                return parent
            parent = self.parents[parent]
        return -1


class MaskedPattern:
    """The sub-pattern of a :class:`CompiledPattern` on one node mask.

    Reads like a :class:`~repro.xpath.ast.Query` to the joins (``root``,
    ``root_axis``, ``nodes()``, ``iter_edges()``, ``parent_link()``),
    with only structural edges: an edge survives iff its lower node is
    in the mask.  The mask must be parent-closed, so the sub-pattern is a
    tree with the same root.
    """

    __slots__ = ("base", "mask")

    def __init__(self, base: CompiledPattern, mask: int):
        self.base = base
        self.mask = mask

    @property
    def root(self) -> QueryNode:
        return self.base.query.root

    @property
    def root_axis(self) -> QueryAxis:
        return self.base.query.root_axis

    def nodes(self) -> List[QueryNode]:
        mask = self.mask
        return [node for node in self.base.nodes if mask >> node.node_id & 1]

    def iter_edges(self) -> Iterator[Tuple[QueryAxis, QueryNode, QueryNode]]:
        base, mask = self.base, self.mask
        nodes, parents, axes = base.nodes, base.parents, base.axes
        for node_id in range(1, len(nodes)):
            if mask >> node_id & 1:
                yield axes[node_id], nodes[parents[node_id]], nodes[node_id]

    def parent_link(self, node: QueryNode) -> Optional[Tuple[QueryAxis, QueryNode]]:
        parent = self.base.parents[node.node_id]
        if parent < 0:
            return None
        return self.base.axes[node.node_id], self.base.nodes[parent]
