"""Exact query evaluation via structural semijoins with path-id pruning.

The plan mirrors the classic two-phase evaluation of tree patterns over
interval-labeled elements, with one twist from [8]: *before* any join, the
per-tag candidate arrays can be pruned to elements whose (tag, path id)
group survives the Section-4 path join — irrelevant subtrees never enter
the merges.

Phases (per query):

1. **candidates** — per pattern node, the tag's pre-order array,
   optionally path-id filtered;
2. **bottom-up** — for each edge, keep upper candidates that reach a kept
   lower candidate (semijoins);
3. **top-down** — keep lower candidates reachable from surviving upper
   candidates;
4. the target node's surviving list is the exact answer (tests pin this
   against :class:`~repro.xpath.evaluator.Evaluator`).

Scope: structural and sibling-order axes (``folls``/``pres`` run as
per-parent sibling semijoins); scoped ``foll``/``pre`` queries raise
:class:`~repro.core.transform.UnsupportedQueryError` (rewrite them first,
as the estimator does).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pathjoin import path_join
from repro.core.providers import ExactPathStats
from repro.core.transform import UnsupportedQueryError
from repro.obs.trace import NULL_TRACER
from repro.pathenc.labeler import LabeledDocument
from repro.queryproc.intervalsidx import IntervalIndex
from repro.queryproc.structural import reduce_lower, reduce_upper
from repro.stats.pathid_freq import collect_pathid_frequencies
from repro.xpath.ast import Query, QueryAxis, QueryNode
from repro.xmltree.document import XmlDocument


#: Phases of the full reducer, in execution order.
PHASE_UP = "up"
PHASE_ROOT = "root"
PHASE_DOWN = "down"


def semijoin_program(query: Query) -> Iterator[Tuple[str, QueryNode, Optional[int]]]:
    """The full reducer's steps for ``query``, in authored order.

    Yields ``(phase, node, edge position)``: the up phase visits nodes
    children-first and filters each ``node`` by its edges in authored
    order; the ``root`` step (position ``None``) pins an absolute query's
    root to the document root; the down phase visits nodes parents-first
    and filters each edge's lower node by ``node``.  The plan builder and
    the executor both walk this sequence, so plan steps and executed
    semijoins line up one to one.
    """
    order = query.nodes()
    for node in reversed(order):
        for position in range(len(node.edges)):
            yield PHASE_UP, node, position
    if query.root_axis is QueryAxis.CHILD:
        yield PHASE_ROOT, query.root, None
    for node in order:
        for position in range(len(node.edges)):
            yield PHASE_DOWN, node, position


class StructuralJoinProcessor:
    """Evaluates queries with interval and sibling semijoins.

    Parameters
    ----------
    document:
        The document to query.
    labeled:
        Optional pre-labeled view; required state is built on demand when
        omitted.  Path-id pruning needs it.
    """

    def __init__(self, document: XmlDocument, labeled: Optional[LabeledDocument] = None):
        self.document = document
        self.index = IntervalIndex(document)
        self._labeled = labeled
        self._provider: Optional[ExactPathStats] = None
        self.last_candidate_count = 0  # join-input accounting for benches
        self.last_semijoin_work = 0     # items swept by the semijoins

    # -- lazily built path-id machinery ---------------------------------

    def _path_state(self):
        if self._labeled is None:
            from repro.pathenc.labeler import label_document

            self._labeled = label_document(self.document)
        if self._provider is None:
            self._provider = ExactPathStats(
                collect_pathid_frequencies(self._labeled)
            )
        return self._labeled, self._provider

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def count(self, query: Query, use_path_ids: bool = True, tracer=NULL_TRACER) -> int:
        return len(self.matching_pres(query, use_path_ids=use_path_ids, tracer=tracer))

    def matching_pres(
        self,
        query: Query,
        use_path_ids: bool = True,
        tracer=NULL_TRACER,
        plan=None,
    ) -> List[int]:
        """Exact pre-order numbers matching the query target.

        A live ``tracer`` records ``candidates`` / ``semijoin`` spans with
        the same work counters the ``last_*`` attributes expose.  A
        :class:`~repro.plan.ir.Plan` built for ``query`` (its steps in
        :func:`semijoin_program` order) is annotated in place with each
        step's observed cardinalities, the items swept and the step at
        which an emptied list ended the reduction.
        """
        if any(axis.is_scoped_order for axis, _, _ in query.iter_edges()):
            raise UnsupportedQueryError(
                "rewrite scoped foll/pre axes before structural-join evaluation"
            )
        with tracer.span("candidates") as cand_span:
            candidates = self.initial_candidates(query, use_path_ids, tracer)
            self.last_candidate_count = sum(len(c) for c in candidates)
            cand_span.incr("candidates", self.last_candidate_count)
        steps = None
        if plan is not None:
            plan.executed = True
            steps = plan.steps
        if any(not c for c in candidates):
            self.last_semijoin_work = 0
            if plan is not None:
                plan.early_exit = -1  # dead before the first step
                plan.observed_work = 0
                for step in steps:
                    step.skipped = True
            return []
        with tracer.span("semijoin") as semijoin_span:
            matches, work, stopped_at = self._semijoin_phases(
                query, candidates, steps
            )
            semijoin_span.incr("items_swept", work)
        self.last_semijoin_work = work
        if plan is not None:
            plan.observed_work = work
            if stopped_at is not None:
                plan.early_exit = stopped_at
                for later in steps[stopped_at + 1:]:
                    later.skipped = True
        return matches

    def _semijoin_phases(
        self, query: Query, candidates: List[List[int]], steps=None
    ) -> Tuple[List[int], int, Optional[int]]:
        """Run the full reducer over ``candidates`` (indexed by node id).

        Returns ``(matches, items swept, index of the step that emptied
        a list or None)``.  When ``steps`` is given, the step at each
        position records its observed input, partner and output sizes.
        """
        index = self.index
        work = 0
        for at, (phase, node, position) in enumerate(semijoin_program(query)):
            if phase == PHASE_ROOT:
                upper = candidates[node.node_id]
                filtered_in, partner = len(upper), None
                work += filtered_in
                root_pre = self.document.root.pre
                reduced = [pre for pre in upper if pre == root_pre]
                filtered = node.node_id
            else:
                edge = node.edges[position]
                upper = candidates[node.node_id]
                lower = candidates[edge.node.node_id]
                work += len(upper) + len(lower)
                if phase == PHASE_UP:
                    filtered_in, partner = len(upper), len(lower)
                    reduced = reduce_upper(index, edge.axis, upper, lower)
                    filtered = node.node_id
                else:
                    filtered_in, partner = len(lower), len(upper)
                    reduced = reduce_lower(index, edge.axis, lower, upper)
                    filtered = edge.node.node_id
            candidates[filtered] = reduced
            if steps is not None:
                step = steps[at]
                step.observed_in = filtered_in
                step.observed_partner = partner
                step.observed_out = len(reduced)
            if not reduced:
                return [], work, at
        return candidates[query.target.node_id], work, None

    # ------------------------------------------------------------------

    def initial_candidates(
        self, query: Query, use_path_ids: bool = True, tracer=NULL_TRACER
    ) -> List[List[int]]:
        """Per-node starting candidate lists (optionally pid-pruned).

        Indexed by ``node_id``.
        """
        candidates: List[List[int]] = []
        surviving: Optional[Dict[int, Dict[int, float]]] = None
        if use_path_ids:
            labeled, provider = self._path_state()
            join = path_join(query, provider, labeled.encoding_table, tracer=tracer)
            if join.empty:
                return [[] for _ in query.nodes()]
            surviving = {
                node.node_id: join.pids(node) for node in query.nodes()
            }
        for node in query.nodes():
            pres = self.index.candidates(node.tag)
            if surviving is not None:
                labeled, _ = self._path_state()
                pathids = labeled.pathids
                allowed = surviving[node.node_id]
                pres = [pre for pre in pres if pathids[pre] in allowed]
            candidates.append(list(pres))
        return candidates
