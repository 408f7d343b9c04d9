"""Formula-level explanations of estimates.

:func:`explain` re-derives the estimation route (which rule of the
paper applies) and exposes the intermediate quantities.  The execution
plan view is :meth:`EstimationSystem.explain`, which returns the
:class:`~repro.plan.ir.Plan` that ``execute`` would run.

The reported ``estimate`` is always identical to
``EstimationSystem.estimate`` (a test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.core.axis_rewrite import rewrite_scoped_order_query, scoped_order_edges
from repro.core.noorder import branching_ancestor, estimate_no_order, prune_to_spine
from repro.core.order import _OrderEstimator, sibling_order_edges
from repro.core.pathjoin import path_join
from repro.core.system import EstimationSystem, _coerce_query
from repro.xpath.ast import Query, QueryAxis


@dataclass
class EstimateReport:
    """One estimation decision with its inputs."""

    query_text: str
    target_tag: str
    rule: str
    estimate: float
    details: Dict[str, float] = field(default_factory=dict)
    variants: List["EstimateReport"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [
            "%s%s  [%s]  estimate=%.3f" % (pad, self.query_text, self.rule, self.estimate)
        ]
        for key, value in self.details.items():
            lines.append("%s  %s = %.3f" % (pad, key, value))
        for variant in self.variants:
            lines.append(variant.render(indent + 1))
        return "\n".join(lines)


def explain(system: EstimationSystem, query: Union[str, Query]) -> EstimateReport:
    """Explain how ``system`` estimates ``query``'s target selectivity.

    .. deprecated-path:: ``explain`` re-runs the estimator to reconstruct
       the decision; for the quantities the system *actually* computed —
       per-span timings, bucket/cell counters, the route taken — prefer
       ``system.estimate(text, options=EstimateOptions(trace=True))``,
       which returns an :class:`~repro.core.result.EstimateResult` whose
       ``.trace`` holds the span tree of the real execution.  ``explain``
       stays for the formula-level narrative (which paper rule fired,
       with its inputs).
    """
    parsed = _coerce_query(query)
    if scoped_order_edges(parsed):
        variants = rewrite_scoped_order_query(
            parsed, system.path_provider, system.encoding_table
        )
        reports = [explain(system, variant) for variant in variants]
        return EstimateReport(
            query_text=parsed.to_string(),
            target_tag=parsed.target.tag,
            rule="example-5.3-rewrite",
            estimate=sum(r.estimate for r in reports),
            details={"variants": float(len(reports))},
            variants=reports,
        )
    if sibling_order_edges(parsed):
        return _explain_order(system, parsed)
    return _explain_no_order(system, parsed)


def _explain_no_order(system: EstimationSystem, query: Query) -> EstimateReport:
    join = path_join(query, system.path_provider, system.encoding_table)
    target = query.target
    if join.empty:
        return EstimateReport(query.to_string(), target.tag, "empty-join", 0.0)
    branching = branching_ancestor(query, target)
    estimate = estimate_no_order(query, system.path_provider, system.encoding_table)
    if branching is None:
        return EstimateReport(
            query.to_string(),
            target.tag,
            "theorem-4.1",
            estimate,
            details={"f_Q(n)": join.frequency(target), "surviving_pids": float(len(join.pids(target)))},
        )
    pruned = prune_to_spine(query, target)
    pruned_join = path_join(pruned, system.path_provider, system.encoding_table)
    s_ni = estimate_no_order(
        query, system.path_provider, system.encoding_table, target=branching
    )
    details = {
        "f_Q'(n)": 0.0 if pruned_join.empty else pruned_join.frequency(pruned.target),
        "S_Q(ni)": s_ni,
        "ni_tag_is_" + branching.tag: 1.0,
    }
    return EstimateReport(query.to_string(), target.tag, "equation-2", estimate, details)


def _explain_order(system: EstimationSystem, query: Query) -> EstimateReport:
    axis, source, dest = sibling_order_edges(query)[0]
    earlier, later = (source, dest) if axis is QueryAxis.FOLLS else (dest, source)
    estimator = _OrderEstimator(
        query,
        earlier,
        later,
        system.path_provider,
        system.order_provider,
        system.encoding_table,
        fixpoint=True,
    )
    target = query.target
    estimate = estimator.estimate(target)
    if target.node_id in estimator.later_ids:
        sibling, other = later, earlier
    elif target.node_id in estimator.earlier_ids:
        sibling, other = earlier, later
    else:
        s_q_n = estimator._counterpart_estimate(target)
        s_earlier = estimator._sibling_estimate(earlier, later)
        s_later = estimator._sibling_estimate(later, earlier)
        return EstimateReport(
            query.to_string(),
            target.tag,
            "equation-5",
            estimate,
            details={
                "S_Q(n)": s_q_n,
                "S_ord(earlier=%s)" % earlier.tag: s_earlier,
                "S_ord(later=%s)" % later.tag: s_later,
            },
        )
    s_order_prime, s_prime = estimator._order_ratio_parts(sibling, other)
    rule = "equation-3" if target is sibling else "equation-4"
    details = {
        "S_ordQ'(%s)" % sibling.tag: s_order_prime,
        "S_Q'(%s)" % sibling.tag: s_prime,
        "S_Q(n)": estimator._counterpart_estimate(target),
    }
    return EstimateReport(query.to_string(), target.tag, rule, estimate, details)
