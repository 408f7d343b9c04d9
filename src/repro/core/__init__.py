"""The estimation system (Sections 4-5 of the paper).

* :mod:`~repro.core.providers` — statistics provider protocol plus exact
  (table-backed) providers; histogram sets implement the same protocol.
* :mod:`~repro.core.pathjoin` — the path join: per-query-node pruning of
  incompatible path ids (Section 4), with an optional fixpoint iteration.
* :mod:`~repro.core.transform` — the order-free counterpart of a query,
  compiled once per estimate, with its sub-patterns as node masks.
* :mod:`~repro.core.noorder` — Theorem 4.1 (simple queries) and Equation 2
  (branch queries, Node Independence Assumption).
* :mod:`~repro.core.order` — Equations 3-5 for ``folls``/``pres`` queries
  (Node Order Uniformity + Node Containment Uniformity Assumptions).
* :mod:`~repro.core.axis_rewrite` — the Example 5.3 conversion of scoped
  ``foll``/``pre`` edges into sets of sibling-axis queries.
* :class:`~repro.core.system.EstimationSystem` — the user-facing facade:
  build once per document, then estimate any query.
"""

from repro.core.axis_rewrite import rewrite_scoped_order_query
from repro.core.explain import EstimateReport, explain
from repro.core.noorder import estimate_no_order
from repro.core.order import estimate_with_order
from repro.core.pathjoin import JoinResult, path_join
from repro.core.providers import ExactOrderStats, ExactPathStats
from repro.core.system import EstimationSystem

__all__ = [
    "EstimationSystem",
    "explain",
    "EstimateReport",
    "path_join",
    "JoinResult",
    "estimate_no_order",
    "estimate_with_order",
    "rewrite_scoped_order_query",
    "ExactPathStats",
    "ExactOrderStats",
]
