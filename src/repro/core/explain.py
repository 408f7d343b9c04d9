"""Formula-level explanations of estimates.

:func:`explain` re-derives the estimation route (which rule of the
paper applies) and exposes the intermediate quantities.  The execution
plan view is :meth:`EstimationSystem.explain`, which returns the
:class:`~repro.plan.ir.Plan` that ``execute`` would run.

The report reads the quantities from the estimator's own mask-based
parts (:class:`~repro.core.transform.CompiledPattern`,
:class:`~repro.core.order.OrderEdge`), so the reported ``estimate`` is
``EstimationSystem.estimate``'s; ``tests/core/test_explain.py`` checks
that on the paper's rules, on multi-edge order queries and on the
generated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.core.axis_rewrite import rewrite_scoped_order_query, scoped_order_edges
from repro.core.noorder import masked_estimate
from repro.core.order import OrderEdge, sibling_order_edges
from repro.core.system import EstimationSystem, _coerce_query
from repro.core.transform import CompiledPattern
from repro.xpath.ast import Query


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
    text = parsed.to_string()
    target = parsed.target.node_id
    edges = sibling_order_edges(parsed)
    with CompiledPattern(
        parsed, system.path_provider, system.encoding_table,
        kernel=system.kernel(),
    ) as pattern:
        if not edges:
            return _explain_no_order(pattern, target, text)
        reports = [
            _explain_edge(
                OrderEdge(pattern, system.order_provider, axis, source, dest),
                target,
                text if len(edges) == 1 else "%s/%s::%s" % (
                    source.tag, axis.value, dest.tag
                ),
            )
            for axis, source, dest in edges
        ]
    if len(reports) == 1:
        return reports[0]
    return EstimateReport(
        text,
        parsed.target.tag,
        "equation-5-min",
        min(report.estimate for report in reports),
        details={"order_edges": float(len(reports))},
        variants=reports,
    )


def _explain_no_order(
    pattern: CompiledPattern, target: int, text: str
) -> EstimateReport:
    full = pattern.full
    node = pattern.nodes[target]
    join = pattern.join(full)
    if join.empty:
        return EstimateReport(text, node.tag, "empty-join", 0.0)
    estimate = masked_estimate(pattern, full, target)
    branching = pattern.branching_ancestor(full, target)
    if branching < 0:
        return EstimateReport(
            text,
            node.tag,
            "theorem-4.1",
            estimate,
            details={
                "f_Q(n)": join.frequency(node),
                "surviving_pids": float(len(join.pids(node))),
            },
        )
    pruned_join = pattern.join(pattern.spine_prune(full, target))
    details = {
        "f_Q'(n)": 0.0 if pruned_join.empty else pruned_join.frequency(node),
        "S_Q(ni)": masked_estimate(pattern, full, branching),
        "ni_tag_is_" + pattern.nodes[branching].tag: 1.0,
    }
    return EstimateReport(text, node.tag, "equation-2", estimate, details)


def _explain_edge(edge: OrderEdge, target: int, text: str) -> EstimateReport:
    """Equation 3, 4 or 5 for one sibling-order edge."""
    tag = edge.pattern.nodes[target].tag
    estimate = edge.estimate(target)
    branch = edge.branch_of(target)
    if branch is None:
        earlier = edge.pattern.nodes[edge.earlier].tag
        later = edge.pattern.nodes[edge.later].tag
        details = {
            "S_Q(n)": edge.counterpart_estimate(target),
            "S_ord(earlier=%s)" % earlier: edge.sibling_estimate(edge.earlier, edge.later),
            "S_ord(later=%s)" % later: edge.sibling_estimate(edge.later, edge.earlier),
        }
        return EstimateReport(text, tag, "equation-5", estimate, details)
    sibling, other = branch
    s_order_prime, s_prime = edge.ratio_parts(sibling, other)
    sibling_tag = edge.pattern.nodes[sibling].tag
    details = {
        "S_ordQ'(%s)" % sibling_tag: s_order_prime,
        "S_Q'(%s)" % sibling_tag: s_prime,
        "S_Q(n)": edge.counterpart_estimate(target),
    }
    rule = "equation-3" if target == sibling else "equation-4"
    return EstimateReport(text, tag, rule, estimate, details)
