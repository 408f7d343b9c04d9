"""Query canonicalization for the semantic result cache.

Two query texts that parse to *equivalent* patterns must map to one
cache key, so the semantic cache can serve ``//a[//c][/b]`` from the
entry populated by ``//a[/b][//c]``.  The canonical key is a stable
rendering of the parsed AST:

* **axis-normalized** — the key is rendered from the AST through the
  same axis tokens as :meth:`Query.to_string`, so spelling/whitespace
  variants of the same pattern (already collapsed by the parser)
  share a key;
* **sorted branch order under commutativity** — predicate branches of
  a node are unordered conjuncts (Neven & Schwentick), so their
  *rendered* forms are sorted lexicographically before joining.
  Sorting is applied only when it is provably value-preserving, see
  below;
* **interned** — keys are ``sys.intern``-ed so the cache's key
  comparisons degrade to pointer checks on the hot path.

Branch sorting and bit-identity
-------------------------------

Cached results must be bit-identical to uncached evaluation, which is
a stronger requirement than set-equivalence: floating-point sums are
not associative, so reordering *evaluation* can perturb the last ulp.
Two properties make sorting safe on the default path:

* the arc-consistent fixpoint is unique — the surviving pid/depth sets
  do not depend on constraint order — and both the legacy dict join
  and the kernel sum survivor frequencies in per-tag *provider* order
  (pruning preserves relative order), so the final float is invariant
  under branch permutation **when the fixpoint runs to completion**;
* the order route combines per-order-edge factors in *query edge
  order*, so its float result is **not** permutation-invariant.

Hence :func:`canonical_key` sorts branches only when the caller ran
with ``fixpoint=True`` (``commutative=True``) *and* the query has no
order axes; otherwise it falls back to a deterministic unsorted
rendering, which still merges textual variants of the same tree.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Optional

from repro.xpath.ast import _AXIS_TOKEN, Query, QueryNode

__all__ = ["canonical_key", "options_fingerprint"]


def _render_canonical(
    node: QueryNode,
    incoming_token: str,
    target: Optional[QueryNode],
    sort_branches: bool,
) -> str:
    parts = [incoming_token]
    if node is target:
        parts.append("$")
    parts.append(node.tag)
    branches = [
        _render_canonical(
            edge.node, _AXIS_TOKEN[edge.axis], target, sort_branches
        )
        for edge in node.predicate_edges()
    ]
    if sort_branches:
        branches.sort()
    for branch in branches:
        parts.append("[" + branch + "]")
    inline = node.inline_edge()
    if inline is not None:
        parts.append(
            _render_canonical(
                inline.node, _AXIS_TOKEN[inline.axis], target, sort_branches
            )
        )
    return "".join(parts)


def canonical_key(query: Query, commutative: bool = True) -> str:
    """The interned canonical cache key for ``query``.

    ``commutative`` should be True only when the evaluation the key
    guards is branch-order invariant (the fixpoint path); order-axis
    queries are always rendered unsorted because the order route
    combines factors in edge order (see module docstring).
    """
    sort_branches = commutative and not query.has_order_axes()
    # The $ marker must survive canonicalization even when the target
    # is the default node: sorting can move a branch past the trunk
    # cut-off, and distinct targets are distinct cache entries.
    marked = (
        query.target
        if query.target is not query._default_target()
        else None
    )
    return sys.intern(
        _render_canonical(
            query.root,
            _AXIS_TOKEN[query.root_axis],
            marked,
            sort_branches,
        )
    )


@lru_cache(maxsize=None)
def options_fingerprint(fixpoint: bool = True, depth_consistent: bool = True) -> str:
    """A short stable token for the estimate options that change the
    numeric result.  Distinct option combinations must never share a
    cache entry: ``fixpoint=False`` single-pass pruning and
    ``depth_consistent=False`` joins produce different values."""
    return "f%dd%d" % (bool(fixpoint), bool(depth_consistent))
