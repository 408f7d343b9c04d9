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
(DESIGN.md §5, "trunk" resolution).  ``Q'`` is a node mask over the
compiled query (:class:`~repro.core.transform.CompiledPattern`), and
each join runs once per estimate.
"""

from __future__ import annotations

from typing import Optional

from repro.core.providers import PathStatsProvider
from repro.core.transform import CompiledPattern
from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.xpath.ast import Query, QueryNode


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
    with CompiledPattern(
        query, provider, table, fixpoint, depth_consistent, tracer, kernel
    ) as pattern:
        return masked_estimate(pattern, pattern.full, node.node_id)


def masked_estimate(pattern: CompiledPattern, mask: int, node_id: int) -> float:
    """``S(node)`` on the sub-pattern ``mask`` of ``pattern``.

    Theorem 4.1 when the node's spine is branch-free, else Equation 2
    with ``Q'`` the spine prune of ``mask``.
    """
    join = pattern.join(mask)
    if join.empty:
        return 0.0
    node = pattern.nodes[node_id]
    branching = pattern.branching_ancestor(mask, node_id)
    if branching < 0:
        return join.frequency(node)  # Theorem 4.1
    pruned_join = pattern.join(pattern.spine_prune(mask, node_id))
    if pruned_join.empty:
        return 0.0
    f_prime_n = pruned_join.frequency(node)
    f_prime_ni = pruned_join.frequency(pattern.nodes[branching])
    if f_prime_ni <= 0.0:
        return 0.0
    # S_Q(ni), recursively (equals f_Q(ni) when ni is trunk).
    s_ni = masked_estimate(pattern, mask, branching)
    return f_prime_n * s_ni / f_prime_ni
