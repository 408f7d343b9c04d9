"""Structural-join plans (:mod:`repro.plan`).

A :class:`Plan` is the semijoin full reducer that
:mod:`repro.queryproc` runs for a query, written out step by step in
authored order and annotated with the cost model's expected
cardinalities.  :meth:`EstimationSystem.explain` returns it;
:meth:`EstimationSystem.execute` runs it and fills in the observed
cardinalities of every step (``EXPLAIN ANALYZE``).

Layout:

* :mod:`repro.plan.ir` — the plan intermediate representation
  (:class:`PlanStep`, :class:`Plan`, :class:`ExecutionResult`);
* :mod:`repro.plan.cost` — the cost model (per-plan sub-pattern
  estimates, per-axis join weights, filter factors) and
  :func:`build_plan`.

Plans keep the authored edge order: with path-id pruning the join
inputs are already near-final, and estimate-ordered execution saved at
most 0.2% of join work on the paper's workloads (docs/PLANNER.md).
"""

from repro.plan.cost import AXIS_WEIGHTS, PatternCost, build_plan
from repro.plan.ir import PLAN_FORMAT_VERSION, ExecutionResult, Plan, PlanStep

__all__ = [
    "AXIS_WEIGHTS",
    "ExecutionResult",
    "PLAN_FORMAT_VERSION",
    "PatternCost",
    "Plan",
    "PlanStep",
    "build_plan",
]
