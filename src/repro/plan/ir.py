"""The plan intermediate representation.

A :class:`Plan` is the list of :class:`PlanStep`\\ s — one per semijoin
of the full reducer, in the authored order the executor runs them —
annotated with the cost model's expected cardinalities.  After execution
each step additionally carries the *observed* cardinalities, so a plan
doubles as its own execution report (``EXPLAIN`` and ``EXPLAIN
ANALYZE`` are the same object before and after running).

The wire shape (``Plan.as_dict``) is versioned independently of the
estimate-result format: consumers check ``plan["version"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.result import EstimateResult

__all__ = [
    "PLAN_FORMAT_VERSION",
    "PlanStep",
    "Plan",
    "ExecutionResult",
]

#: Version of the ``plan`` wire object.  2 dropped the ordering, drift
#: and replan fields along with the cost-based search.
PLAN_FORMAT_VERSION = 2


@dataclass
class PlanStep:
    """One semijoin step.

    Each step filters one candidate list (the *filtered* pattern node)
    against another (the *partner*): in the up phase the edge's upper
    node is filtered against its already-reduced lower subtree, in the
    down phase the lower node is filtered against its surviving upper.
    The ``root`` step is the absolute-query constraint (filtered list
    pinned to the document root) and has no partner node.

    ``est_*`` fields come from the cost model when the plan is built;
    ``observed_*`` are filled in by the executor.
    """

    index: int
    phase: str
    axis: str
    node_id: int
    node_tag: str
    partner_id: Optional[int] = None
    partner_tag: Optional[str] = None
    est_in: float = 0.0
    est_out: float = 0.0
    est_partner: float = 0.0
    est_cost: float = 0.0
    observed_in: Optional[int] = None
    observed_out: Optional[int] = None
    observed_partner: Optional[int] = None
    skipped: bool = False

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "index": self.index,
            "phase": self.phase,
            "axis": self.axis,
            "node": {"id": self.node_id, "tag": self.node_tag},
            "est_in": self.est_in,
            "est_out": self.est_out,
            "est_partner": self.est_partner,
            "est_cost": self.est_cost,
        }
        if self.partner_id is not None:
            payload["partner"] = {"id": self.partner_id, "tag": self.partner_tag}
        if self.skipped:
            payload["skipped"] = True
        if self.observed_in is not None:
            payload["observed_in"] = self.observed_in
            payload["observed_out"] = self.observed_out
            payload["observed_partner"] = self.observed_partner
        return payload


@dataclass
class Plan:
    """The semijoin program for one query.

    ``est_cost`` is the cost model's total over the steps.  The
    execution fields (``early_exit``, ``observed_work``) stay at their
    defaults until an executor runs the plan.
    """

    query_text: str
    steps: List[PlanStep] = field(default_factory=list)
    est_cost: float = 0.0
    est_cardinality: float = 0.0
    use_path_ids: bool = True
    executed: bool = False
    early_exit: Optional[int] = None
    observed_work: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """The versioned wire object (the service's ``plan`` field)."""
        payload: Dict[str, Any] = {
            "version": PLAN_FORMAT_VERSION,
            "query": self.query_text,
            "est_cost": self.est_cost,
            "est_cardinality": self.est_cardinality,
            "use_path_ids": self.use_path_ids,
            "executed": self.executed,
            "steps": [step.as_dict() for step in self.steps],
        }
        if self.executed:
            payload["observed_work"] = self.observed_work
            if self.early_exit is not None:
                payload["early_exit"] = self.early_exit
        return payload

    def render(self) -> str:
        """Human-readable plan listing (docs examples, CLI debugging)."""
        lines = ["plan %s  est_cost=%.1f" % (self.query_text, self.est_cost)]
        for step in self.steps:
            partner = (
                "" if step.partner_tag is None else " ~ %s#%d" % (step.partner_tag, step.partner_id)
            )
            line = "  %2d %-4s %-7s %s#%d%s  est %.1f -> %.1f" % (
                step.index, step.phase, step.axis,
                step.node_tag, step.node_id, partner, step.est_in, step.est_out,
            )
            if step.observed_in is not None:
                line += "  obs %d -> %s" % (step.observed_in, step.observed_out)
            elif step.skipped:
                line += "  (skipped)"
            lines.append(line)
        if self.executed:
            lines.append("  work=%d" % self.observed_work)
        return "\n".join(lines)


@dataclass
class ExecutionResult:
    """What :meth:`EstimationSystem.execute` returns.

    matches:
        Pre-order numbers of the document elements matching the query
        target (tests pin them against :class:`~repro.xpath.Evaluator`).
    estimate:
        The structured estimate for the same query (the plan's expected
        target cardinality, with route and timing).
    plan:
        The executed :class:`Plan`, steps annotated with observed
        cardinalities.
    elapsed_ms:
        Wall time of planning + execution.
    """

    matches: List[int]
    estimate: EstimateResult
    plan: Plan
    elapsed_ms: float = 0.0

    @property
    def match_count(self) -> int:
        return len(self.matches)

    def __len__(self) -> int:
        return len(self.matches)
