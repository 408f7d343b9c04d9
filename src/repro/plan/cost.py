"""The cost model: estimates in, an annotated plan out.

Every quantity a plan step carries reduces to selectivity estimates of
*sub-patterns* of the query:

* the **initial size** of a pattern node's candidate list — the path
  join's pid-pruned frequency ``f_Q(n)`` when path-id pruning is on,
  the tag's total frequency otherwise;
* the **filter factor** of a branch set ``S`` at node ``u`` — how much
  of ``u``'s list survives semijoining against those branches:
  ``est(spine(u) + S) / est(spine(u))``;
* the **reduced size** of a node after its whole subtree has filtered
  it — ``initial × factor(all edges)``.

A semijoin step sweeps both of its input lists, so its cost is
``weight(axis) × (E[filtered list] + E[partner list])`` with per-axis
weights reflecting the primitives' constants (descendant semijoins pay
a binary search per element, sibling semijoins a per-parent map).

Sub-pattern estimates read through :meth:`EstimationSystem.estimate`,
and so through the system's semantic result cache, which is the only
memo that outlives a request.  A :class:`PatternCost` lives for one
plan; its own dict only dedupes the sub-patterns that plan repeats.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.plan.ir import Plan, PlanStep
from repro.queryproc.processor import PHASE_ROOT, PHASE_UP, semijoin_program
from repro.xpath.ast import Edge, Query, QueryAxis, QueryNode

__all__ = ["AXIS_WEIGHTS", "PatternCost", "build_plan", "step_cost"]

#: Relative per-item sweep cost of the semijoin primitives by axis.
#: CHILD is the O(n + m) hash sweep baseline; DESCENDANT pays a binary
#: search per candidate; the sibling-order axes build a per-parent
#: extremum map.
AXIS_WEIGHTS = {
    QueryAxis.CHILD: 1.0,
    QueryAxis.DESCENDANT: 1.25,
    QueryAxis.FOLLS: 1.1,
    QueryAxis.PRES: 1.1,
}

#: Weight for axes outside the table (scoped order, future axes).
DEFAULT_AXIS_WEIGHT = 1.5


def step_cost(axis: QueryAxis, filtered_size: float, partner_size: float) -> float:
    """Expected cost of one semijoin step over the two input lists."""
    return AXIS_WEIGHTS.get(axis, DEFAULT_AXIS_WEIGHT) * (filtered_size + partner_size)


def build_plan(system, query: Query, use_path_ids: bool = True) -> Plan:
    """The semijoin program for ``query``, every step priced.

    Steps follow :func:`~repro.queryproc.processor.semijoin_program`:
    the authored order the executor runs.
    """
    pattern = PatternCost(system, query, use_path_ids)
    steps = []
    for phase, node, position in semijoin_program(query):
        if phase == PHASE_ROOT:
            est_in = pattern.partner(node)
            steps.append(
                PlanStep(
                    index=len(steps),
                    phase=phase,
                    axis="root",
                    node_id=node.node_id,
                    node_tag=node.tag,
                    est_in=est_in,
                    est_out=min(est_in, 1.0),
                    est_partner=1.0,
                    est_cost=est_in,
                )
            )
            continue
        edge = node.edges[position]
        if phase == PHASE_UP:
            filtered, partner = node, edge.node
            initial = pattern.initial(node)
            est_in = initial * pattern.factor(node, range(position))
            est_out = initial * pattern.factor(node, range(position + 1))
            est_partner = pattern.partner(edge.node)
        else:
            filtered, partner = edge.node, node
            est_in = pattern.partner(edge.node)
            est_out = pattern.final(edge.node)
            est_partner = pattern.final(node)
        steps.append(
            PlanStep(
                index=len(steps),
                phase=phase,
                axis=edge.axis.value,
                node_id=filtered.node_id,
                node_tag=filtered.tag,
                partner_id=partner.node_id,
                partner_tag=partner.tag,
                est_in=est_in,
                est_out=est_out,
                est_partner=est_partner,
                est_cost=step_cost(edge.axis, est_in, est_partner),
            )
        )
    return Plan(
        query_text=query.to_string(),
        steps=steps,
        est_cost=sum(step.est_cost for step in steps),
        est_cardinality=pattern.final(query.target),
        use_path_ids=use_path_ids,
    )


class PatternCost:
    """Cost-model quantities for one query pattern and one plan.

    Holds the one path join the initial sizes come from and the per-plan
    memos of sub-pattern estimates, factors and tag statistics; nothing
    here outlives the plan it prices.
    """

    def __init__(self, system, query: Query, use_path_ids: bool = True):
        self.system = system
        self.query = query
        self._join = None
        if use_path_ids:
            try:
                self._join = system.join(query)
            except ReproError:
                self._join = None  # fall back to tag totals
        self._estimates: Dict[str, Optional[float]] = {}
        self._tag_totals: Dict[str, float] = {}
        self._freq_maps: Dict[str, Dict[int, float]] = {}
        self._factors: Dict[Tuple[int, Tuple[int, ...]], float] = {}
        self._finals: Dict[int, float] = {}

    # -- primitive quantities ------------------------------------------

    def subpattern_estimate(self, subquery: Query) -> Optional[float]:
        """Estimated target cardinality of ``subquery``, or ``None`` for a
        slice the estimator rejects (priced as neutral)."""
        key = subquery.to_string()
        if key in self._estimates:
            return self._estimates[key]
        try:
            value: Optional[float] = float(self.system.estimate(subquery))
        except ReproError:
            value = None
        self._estimates[key] = value
        return value

    def tag_total(self, tag: str) -> float:
        """Total frequency of ``tag`` in the synopsis."""
        cached = self._tag_totals.get(tag)
        if cached is None:
            system = self.system
            if system.kernel_active():
                cached = system.kernel().tag_total(tag)
            else:
                cached = float(
                    sum(f for _, f in system.path_provider.frequency_pairs(tag))
                )
            self._tag_totals[tag] = cached
        return cached

    def frequency_map(self, tag: str) -> Dict[int, float]:
        """Raw per-pid frequencies of ``tag``."""
        cached = self._freq_maps.get(tag)
        if cached is None:
            cached = dict(self.system.path_provider.frequency_map(tag))
            self._freq_maps[tag] = cached
        return cached

    # -- sizes ---------------------------------------------------------

    def initial(self, node: QueryNode) -> float:
        """Expected initial candidate-list size of ``node``.

        With path-id pruning: the *raw* frequency summed over the pids
        the path join keeps — exactly the pruned list length under exact
        statistics.  Without pruning, the tag's total frequency.
        """
        if self._join is not None:
            freqs = self.frequency_map(node.tag)
            return float(
                sum(freqs.get(pid, 0.0) for pid in self._join.pids(node))
            )
        return self.tag_total(node.tag)

    def factor(self, node: QueryNode, positions: Sequence[int]) -> float:
        """Fraction of ``node``'s list surviving the branch subset.

        ``positions`` index into ``node.edges``; each branch is taken
        with its *full* subtree, so ``factor(node, all)`` prices the
        node's entire downstream reduction.

        With path-id pruning active the factors are neutral (``1.0``):
        the path join has already applied every constraint the synopsis
        can see, so the estimator predicts no further pid-level
        reduction — any element-level shrink the semijoins still achieve
        shows up as (legitimate) drift only when the statistics and the
        document disagree.
        """
        if self._join is not None:
            return 1.0
        key = (node.node_id, tuple(sorted(positions)))
        cached = self._factors.get(key)
        if cached is not None:
            return cached
        if not key[1]:
            value = 1.0
        else:
            base = self.subpattern_estimate(self._subquery(node, ()))
            kept = self.subpattern_estimate(self._subquery(node, key[1]))
            if base is None or kept is None or base <= 0.0:
                value = 1.0
            else:
                value = min(1.0, kept / base)
        self._factors[key] = value
        return value

    def reduced(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list once its subtree reduced it."""
        return self.initial(node) * self.factor(node, range(len(node.edges)))

    def partner(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list when its parent edge joins it.

        With path-id pruning this is the joined ``f_Q(n)`` — the
        constraint-propagated frequency, the sharpest size signal the
        synopsis offers; without pruning it is the factor-model
        :meth:`reduced` size.
        """
        if self._join is not None:
            return float(self._join.frequency(node))
        return self.reduced(node)

    def final(self, node: QueryNode) -> float:
        """Expected size of ``node``'s list in the fully reduced pattern."""
        cached = self._finals.get(node.node_id)
        if cached is None:
            estimate = self.subpattern_estimate(self._retarget(node))
            cached = self.reduced(node) if estimate is None else estimate
            self._finals[node.node_id] = cached
        return cached

    # -- sub-query construction ----------------------------------------

    def _subquery(self, node: QueryNode, positions: Tuple[int, ...]) -> Query:
        """Spine root→``node`` plus the selected branches, target ``node``."""
        query = self.query
        spine = query.spine_to(node)
        clones: Dict[int, QueryNode] = {}

        def clone_chain(index: int) -> QueryNode:
            original = spine[index]
            copy = QueryNode(original.tag)
            clones[original.node_id] = copy
            if index + 1 < len(spine):
                link = query.parent_link(spine[index + 1])
                assert link is not None
                copy.edges.append(Edge(link[0], clone_chain(index + 1), False))
            else:
                for position in positions:
                    edge = node.edges[position]
                    copy.edges.append(
                        Edge(edge.axis, _copy_subtree(edge.node), edge.is_predicate)
                    )
            return copy

        root = clone_chain(0)
        return Query(root, query.root_axis, target=clones[node.node_id])

    def _retarget(self, node: QueryNode) -> Query:
        """A clone of the full pattern with ``node`` as the target."""
        query = self.query
        clones: Dict[int, QueryNode] = {}

        def clone(original: QueryNode) -> QueryNode:
            copy = QueryNode(original.tag)
            clones[original.node_id] = copy
            for edge in original.edges:
                copy.edges.append(Edge(edge.axis, clone(edge.node), edge.is_predicate))
            return copy

        root = clone(query.root)
        return Query(root, query.root_axis, target=clones[node.node_id])


def _copy_subtree(node: QueryNode) -> QueryNode:
    """Deep copy of a pattern subtree (ids re-assigned on finalize)."""
    copy = QueryNode(node.tag)
    for edge in node.edges:
        copy.edges.append(Edge(edge.axis, _copy_subtree(edge.node), edge.is_predicate))
    return copy
