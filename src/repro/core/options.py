"""Keyword-only options objects for the unified query API.

The redesigned :class:`~repro.core.system.EstimationSystem` surface takes
one frozen options dataclass per verb instead of a growing pile of
keyword arguments:

* :class:`EstimateOptions` — :meth:`EstimationSystem.estimate`;
* :class:`ExecuteOptions` — :meth:`EstimationSystem.execute`;
* :class:`ExplainOptions` — :meth:`EstimationSystem.explain`.

All fields have defaults, so ``system.execute(q)`` works bare; callers
that tune anything pass ``options=ExecuteOptions(use_path_ids=False)``.
The dataclasses are frozen: an options object can be built once and
shared across threads/requests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "EstimateOptions",
    "ExecuteOptions",
    "ExplainOptions",
]


@dataclass(frozen=True)
class EstimateOptions:
    """Tuning for :meth:`EstimationSystem.estimate`.

    fixpoint:
        Iterate the path-join pruning to a fixpoint (ablation switch;
        ``False`` runs a single pass).
    depth_consistent:
        Depth-consistent containment (ablation switch; ``False`` restores
        the paper's literal pairwise test).
    detail:
        Return a structured :class:`~repro.core.result.EstimateResult`
        (route, timing, optional trace) instead of a bare float.
    trace:
        Record the span tree of the estimation.  Implies ``detail``
        (a bare float has nowhere to carry the trace).
    """

    fixpoint: bool = True
    depth_consistent: bool = True
    detail: bool = False
    trace: bool = False


@dataclass(frozen=True)
class ExecuteOptions:
    """Tuning for :meth:`EstimationSystem.execute`.

    use_path_ids:
        Prune initial candidate lists by the Section-4 path join before
        any structural semijoin runs.
    """

    use_path_ids: bool = True


@dataclass(frozen=True)
class ExplainOptions:
    """Tuning for :meth:`EstimationSystem.explain`.

    analyze:
        Also execute the plan (needs the document) so every step carries
        observed cardinalities next to its estimates — the
        ``EXPLAIN ANALYZE`` of the system.
    use_path_ids:
        Same knob as :class:`ExecuteOptions`, so an explained plan is
        the plan ``execute`` would run.
    """

    analyze: bool = False
    use_path_ids: bool = True
