"""The bitset path join over a compiled :class:`SynopsisKernel`.

Semantically identical to the depth-consistent fixpoint of
:func:`repro.core.pathjoin._depth_join` (same per-constraint pruning
rule, same root-``/`` restriction, same all-empty result when a node
dies), but the per-node state is one Python-int bitset per depth instead
of a dict of pid → depth-set, and each pruning step is an AND against a
memoized OR of containment-matrix rows.

The constraints of :func:`~repro.core.pathjoin.derive_constraints` form
a forest: every query node is the lower end of at most one constraint,
and that constraint comes before every constraint with the node as its
upper end.  On a forest, one leaves-up pass (prune each upper side by
its lower side, steps in reverse) followed by one root-down pass (prune
each lower side by its upper side, steps in order) reaches the
arc-consistent fixpoint — the two-pass semijoin reduction of an acyclic
join.  After the first pass every surviving upper placement has support
in each of its subtrees; the second pass only drops lower placements
with no live upper partner, which no surviving upper placement relied
on.  The arc-consistent fixpoint is unique, so the result equals the
Section 4 loop's, and frequencies are summed over indexes in provider
order, so estimates agree with the legacy path bit for bit.

The estimators join sub-patterns of one compiled pattern, named by
parent-closed node masks (:class:`~repro.core.transform.MaskedPattern`).
The steps whose lower node is in the mask form a forest again, so a
masked join is the same two passes over a filtered step list, with
states indexed by the pattern's node ids.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.pathjoin import JoinResult, derive_constraints
from repro.kernel.compiled import SynopsisKernel, TagTable, or_rows, popcount
from repro.obs.trace import NULL_TRACER
from repro.pathenc.relationship import Axis
from repro.xpath.ast import Query, QueryAxis, QueryNode

__all__ = ["KernelJoinResult", "QueryPlan", "build_query_plan", "kernel_join"]


class QueryPlan:
    """Resolved constraint steps for one query over one kernel.

    ``node_tables[node_id]`` is the node's interned tag table;
    ``steps`` holds ``(upper_id, lower_id, child?, containment pair)``
    in :func:`derive_constraints` order.
    """

    __slots__ = ("node_tables", "steps")

    def __init__(
        self,
        node_tables: Tuple[TagTable, ...],
        steps: Tuple[Tuple[int, int, bool, object], ...],
    ):
        self.node_tables = node_tables
        self.steps = steps


def build_query_plan(
    kernel: SynopsisKernel, query: Query, tracer=NULL_TRACER
) -> QueryPlan:
    nodes = query.nodes()
    node_tables = tuple(kernel.tag_table(node.tag, tracer) for node in nodes)
    steps = []
    for upper, axis, lower in derive_constraints(query):
        child = axis is Axis.CHILD
        pair = kernel.containment(upper.tag, lower.tag, child, tracer)
        steps.append((upper.node_id, lower.node_id, child, pair))
    return QueryPlan(node_tables, tuple(steps))


class KernelJoinResult(JoinResult):
    """Join result backed by bitset states; same reading API as
    :class:`~repro.core.pathjoin.JoinResult`, materialized on demand in
    ascending index (= provider) order."""

    def __init__(
        self,
        query: Query,
        tables: Tuple[TagTable, ...],
        states: Optional[List[List[int]]],
    ):
        self.query = query
        self._tables = tables
        # None encodes the legacy all-empty result (some node died).
        # Otherwise indexed by node_id; a masked join leaves the entries
        # of the nodes outside its mask at their start state, unread.
        self._states = states
        # Per-node OR of the depth masks; the states are frozen once the
        # fixpoint converges, so the fold is computed at most once per
        # node and shared by every reader.
        self._alive: Optional[List[Optional[int]]] = (
            None if states is None else [None] * len(states)
        )

    def _alive_mask(self, node_id: int) -> int:
        assert self._alive is not None and self._states is not None
        mask = self._alive[node_id]
        if mask is None:
            mask = 0
            for depth_mask in self._states[node_id]:
                mask |= depth_mask
            self._alive[node_id] = mask
        return mask

    def pids(self, node: QueryNode) -> Dict[int, float]:
        out: Dict[int, float] = {}
        if self._states is None:
            return out
        compiled = self._tables[node.node_id]
        pids, freqs = compiled.pids, compiled.freqs
        alive = self._alive_mask(node.node_id)
        while alive:
            low = alive & -alive
            index = low.bit_length() - 1
            out[pids[index]] = freqs[index]
            alive ^= low
        return out

    def depths(self, node: QueryNode) -> Dict[int, Set[int]]:
        out: Dict[int, Set[int]] = {}
        if self._states is None:
            return out
        compiled = self._tables[node.node_id]
        state = self._states[node.node_id]
        pids = compiled.pids
        # One pass over the depth masks, scattering set bits into the
        # per-pid depth sets — instead of re-scanning enumerate(state)
        # once per surviving pid.
        for depth, mask in enumerate(state):
            while mask:
                low = mask & -mask
                pid = pids[low.bit_length() - 1]
                bucket = out.get(pid)
                if bucket is None:
                    out[pid] = {depth}
                else:
                    bucket.add(depth)
                mask ^= low
        return out

    def frequency(self, node: QueryNode) -> float:
        if self._states is None:
            return 0.0
        compiled = self._tables[node.node_id]
        freqs = compiled.freqs
        alive = self._alive_mask(node.node_id)
        # Ascending index order == the legacy dict's insertion order, so
        # the float sum is associativity-identical to the legacy path.
        total = 0.0
        while alive:
            low = alive & -alive
            total += freqs[low.bit_length() - 1]
            alive ^= low
        return total

    @property
    def empty(self) -> bool:
        return self._states is None

    def survivor_count(self) -> int:
        if self._states is None:
            return 0
        return sum(
            popcount(self._alive_mask(node.node_id)) for node in self.query.nodes()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._states is None:
            return "<KernelJoinResult empty>"
        counts = [
            popcount(self._alive_mask(node.node_id)) for node in self.query.nodes()
        ]
        return "<KernelJoinResult pids per node: %s>" % counts


def _compile(kernel: SynopsisKernel, query: Query, tracer) -> tuple:
    """``(plan, start states, dead mask)`` of one query over ``kernel``.

    The start states are the tag tables' static placements with the
    root-``/`` restriction applied; the joins copy them on write, so one
    list serves every join of the pattern.  ``dead`` has the bit of each
    node with no placement at all.
    """
    plan = build_query_plan(kernel, query, tracer)
    starts = [list(compiled.init_at) for compiled in plan.node_tables]
    if query.root_axis is QueryAxis.CHILD:
        root_id = query.root.node_id
        root_state = starts[root_id]
        if root_state:
            starts[root_id] = [root_state[0]] + [0] * (len(root_state) - 1)
    dead = 0
    for node_id, state in enumerate(starts):
        if not any(state):
            dead |= 1 << node_id
    return plan, starts, dead


def kernel_join(
    kernel: SynopsisKernel,
    query,
    provider=None,
    tracer=NULL_TRACER,
) -> KernelJoinResult:
    """Depth-consistent fixpoint join on compiled bitsets, in two passes.

    ``query`` is a :class:`~repro.xpath.ast.Query` or a
    :class:`~repro.core.transform.MaskedPattern`.  A masked join keeps
    the steps whose lower node is in the mask, and resolves its
    pattern's steps once, on the first join of that pattern.
    """
    kernel.joins += 1
    with tracer.aggregate("join") as join_span:
        base = getattr(query, "base", None)
        if base is None:
            plan, starts, dead = _compile(kernel, query, tracer)
            steps = plan.steps
            mask = (1 << len(starts)) - 1
        else:
            state = base.kernel_state
            if state is None or state[0] is not kernel:
                state = base.kernel_state = (kernel,) + _compile(
                    kernel, base.view(base.full), tracer
                )
            _, plan, starts, dead = state
            mask = query.mask
            steps = tuple(step for step in plan.steps if mask >> step[1] & 1)
        tables = plan.node_tables
        if tracer.enabled:
            with tracer.aggregate("pathid-match") as match_span:
                for node in query.nodes():
                    if provider is not None:
                        # Surface the same p-histogram lookup traffic a
                        # traced legacy join would (the tracing provider
                        # counts cells/buckets as a side effect).
                        provider.frequency_pairs(node.tag)
                    match_span.incr(
                        "pids_matched", tables[node.node_id].alive_count
                    )
        states = list(starts)
        join_span.incr("rounds")
        with tracer.aggregate("bitset_join") as bitset_span:
            bitset_span.incr("constraints", len(steps))
            empty = bool(dead & mask) or _two_pass(states, steps)
        result = KernelJoinResult(query, tables, None if empty else states)
        if tracer.enabled:
            join_span.incr("surviving_pids", result.survivor_count())
    return result


def _two_pass(
    states: List[List[int]], steps: Tuple[Tuple[int, int, bool, object], ...]
) -> bool:
    """Run the leaves-up then root-down pass; True once a state empties.

    Every step whose lower node is X comes before every step whose upper
    node is X, so walking the steps backwards prunes each upper node only
    after its whole subtree is final, and walking them forwards prunes
    each lower node only after its upper node is final.
    """
    for upper_id, lower_id, child, pair in reversed(steps):
        if _prune_upper(states, upper_id, lower_id, child, pair) and not any(
            states[upper_id]
        ):
            return True
    for upper_id, lower_id, child, pair in steps:
        if _prune_lower(states, upper_id, lower_id, child, pair) and not any(
            states[lower_id]
        ):
            return True
    return False


def _prune_lower(
    states: List[List[int]], upper_id: int, lower_id: int, child: bool, pair
) -> bool:
    """Keep lower index j at depth dl iff some compatible upper index is
    alive at dl-1 (child) / any depth < dl (descendant).  Returns whether
    the lower state changed."""
    upper = states[upper_id]
    lower = states[lower_id]
    down_rows, down_memo = pair.down, pair.down_memo
    upper_len = len(upper)
    new_lower = lower
    below = 0
    for dl in range(len(lower)):
        du = dl - 1
        if child:
            below = upper[du] if 0 <= du < upper_len else 0
        elif 0 <= du < upper_len:
            below |= upper[du]
        alive = lower[dl]
        if not alive:
            continue
        kept = alive & or_rows(down_rows, below, down_memo) if below else 0
        if kept != alive:
            if new_lower is lower:
                new_lower = lower[:]
            new_lower[dl] = kept
    if new_lower is lower:
        return False
    states[lower_id] = new_lower
    return True


def _prune_upper(
    states: List[List[int]], upper_id: int, lower_id: int, child: bool, pair
) -> bool:
    """Keep upper index i at depth du iff some compatible lower index is
    alive at du+1 (child) / any depth > du (descendant).  Returns whether
    the upper state changed."""
    upper = states[upper_id]
    lower = states[lower_id]
    up_rows, up_memo = pair.up, pair.up_memo
    lower_len = len(lower)
    new_upper = upper
    above = 0
    if not child:
        for depth in range(len(upper) + 1, lower_len):
            above |= lower[depth]
    for du in range(len(upper) - 1, -1, -1):
        dl = du + 1
        if child:
            above = lower[dl] if dl < lower_len else 0
        elif dl < lower_len:
            above |= lower[dl]
        alive = upper[du]
        if not alive:
            continue
        kept = alive & or_rows(up_rows, above, up_memo) if above else 0
        if kept != alive:
            if new_upper is upper:
                new_upper = upper[:]
            new_upper[du] = kept
    if new_upper is upper:
        return False
    states[upper_id] = new_upper
    return True
