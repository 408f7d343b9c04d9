"""The user-facing estimation system.

Build once per document, then estimate any supported query::

    from repro import EstimationSystem
    from repro.xmltree import parse_xml

    document = parse_xml(open("plays.xml").read())
    system = EstimationSystem.build(document, p_variance=0, o_variance=2)
    print(system.estimate("//PLAY/ACT[/SCENE/folls::$EPILOGUE]"))

``build`` runs the whole paper pipeline: path encoding, labeling, the two
statistics tables, p-/o-histograms at the requested variance thresholds and
the compressed path-id binary tree.  ``estimate`` routes a query through
the scoped-axis rewrite, the order estimator or the plain Section 4
machinery as appropriate.

``build`` also accepts XML text or a filesystem path instead of a parsed
document; those sources stream through :mod:`repro.build` (optionally
sharded over ``workers`` processes) without ever materializing the tree,
and produce bit-identical synopses.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from dataclasses import replace as _options_replace

from repro.core.axis_rewrite import rewrite_scoped_order_query, scoped_order_edges
from repro.core.options import EstimateOptions, ExecuteOptions, ExplainOptions
from repro.core.noorder import estimate_no_order
from repro.core.order import estimate_with_order, sibling_order_edges
from repro.core.pathjoin import JoinResult, path_join
from repro.core.providers import (
    ExactOrderStats,
    ExactPathStats,
    OrderStatsProvider,
    PathStatsProvider,
)
from repro.core.result import EstimateResult
from repro.obs.providers import TracingOrderStats, TracingPathStats
from repro.obs.trace import NULL_TRACER, Tracer
from repro.semcache import SemanticResultCache, canonical_key, options_fingerprint
from repro.kernel.compiled import SynopsisKernel
from repro.histograms.ohistogram import OHistogramSet
from repro.histograms.phistogram import PHistogramSet
from repro.pathenc.bintree import PathIdBinaryTree
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.labeler import LabeledDocument, label_document
from repro.stats.path_order import PathOrderTable, collect_path_order
from repro.stats.pathid_freq import PathIdFrequencyTable, collect_pathid_frequencies
from repro.xmltree.document import XmlDocument
from repro.xpath.ast import Query
from repro.xpath.parser import parse_query, parse_query_cached

#: Estimation routes, in the order ``estimate`` checks for them.  A query
#: takes exactly one: scoped ``foll``/``pre`` axes go through the Example
#: 5.3 rewrite, sibling ``folls``/``pres`` axes through the Section 5
#: order estimator, everything else through the Section 4 machinery.
ROUTE_SCOPED = "scoped"
ROUTE_ORDER = "order"
ROUTE_NO_ORDER = "no_order"


def _coerce_query(query: Union[str, Query]) -> Query:
    """Accept query text or a parsed AST anywhere a query is expected.

    Strings go through the shared ``lru_cache``'d parser (queries are
    immutable once finalized, so repeated texts share one AST).  Used by
    every public query-taking entry point — ``estimate``, ``join``,
    ``select_route``, ``explain`` — so they are uniformly polymorphic.
    """
    if isinstance(query, str):
        return parse_query_cached(query)
    if isinstance(query, Query):
        return query
    raise TypeError(
        "expected query text or a parsed Query, got %s" % type(query).__name__
    )


class EstimationSystem:
    """Selectivity estimator for XPath expressions with order axes."""

    def __init__(
        self,
        labeled: LabeledDocument,
        pathid_table: PathIdFrequencyTable,
        order_table: PathOrderTable,
        path_provider: PathStatsProvider,
        order_provider: OrderStatsProvider,
        binary_tree: Optional[PathIdBinaryTree] = None,
        name: str = "",
    ):
        self.labeled = labeled
        self.encoding_table = labeled.encoding_table
        self.pathid_table = pathid_table
        self.order_table = order_table
        self.path_provider = path_provider
        self.order_provider = order_provider
        self.binary_tree = binary_tree
        self.name = name or (
            labeled.document.name if labeled.document is not None else ""
        )
        self._kernel: Optional[SynopsisKernel] = None
        self._kernel_lock = threading.Lock()
        #: Canonicalized estimate memoization (repro.semcache): the plain
        #: ``estimate()`` path reads through it; every synopsis swap and
        #: kernel invalidation bumps its generation (O(1) wholesale
        #: invalidation — no entry scans).
        self.semcache = SemanticResultCache()
        #: Semijoin processor over the system's own document, built on
        #: the first ``execute()`` (see :meth:`_processor_for`).
        self._processor = None
        self._processor_lock = threading.Lock()

    #: Back-reference to the :class:`repro.cluster.delta.IncrementalSynopsis`
    #: that materialized this system (None for ordinary builds).  Set by
    #: the maintainer; :meth:`apply_delta` routes through it.
    incremental = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        document: Union[XmlDocument, str, "os.PathLike[str]"],
        *,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        use_histograms: bool = True,
        build_binary_tree: bool = True,
        depth_refined: bool = False,
        workers: int = 1,
    ) -> "EstimationSystem":
        """Run the full summary-construction pipeline on ``document``.

        All tuning parameters are keyword-only.

        ``document`` may also be XML text or a filesystem path; those
        sources stream through :class:`repro.build.SynopsisBuilder`
        (sharded over ``workers`` processes when ``workers > 1``) and
        yield a bit-identical synopsis without materializing the tree.

        ``use_histograms=False`` wires the estimator directly to the exact
        statistics tables (useful for testing the estimation formulas in
        isolation); the variance thresholds are then ignored.
        ``depth_refined=True`` (exact mode only) keys path frequencies by
        (pid, depth), removing the recursion ambiguity entirely — the
        Ablation D extension of DESIGN.md §5.
        """
        if depth_refined and use_histograms:
            raise ValueError(
                "depth_refined statistics are exact-mode only "
                "(pass use_histograms=False)"
            )
        if not isinstance(document, XmlDocument):
            from repro.build.builder import SynopsisBuilder
            from repro.errors import BuildError

            if depth_refined:
                raise BuildError(
                    "depth_refined statistics need per-node depths and are "
                    "only available for the in-memory tree pipeline"
                )
            return SynopsisBuilder(
                p_variance=p_variance,
                o_variance=o_variance,
                use_histograms=use_histograms,
                build_binary_tree=build_binary_tree,
                workers=workers,
            ).build(document)
        labeled = label_document(document)
        pathid_table = collect_pathid_frequencies(labeled)
        order_table = collect_path_order(labeled)
        if use_histograms:
            phistograms = PHistogramSet.from_table(pathid_table, p_variance)
            ohistograms = OHistogramSet.from_table(order_table, phistograms, o_variance)
            path_provider: PathStatsProvider = phistograms
            order_provider: OrderStatsProvider = ohistograms
        elif depth_refined:
            from repro.stats.depth_refined import DepthRefinedPathStats

            path_provider = DepthRefinedPathStats.collect(labeled)
            order_provider = ExactOrderStats(order_table)
        else:
            path_provider = ExactPathStats(pathid_table)
            order_provider = ExactOrderStats(order_table)
        binary_tree = None
        if build_binary_tree:
            binary_tree = PathIdBinaryTree(
                labeled.distinct_pathids(), labeled.width
            ).compress()
        return cls(
            labeled, pathid_table, order_table, path_provider, order_provider, binary_tree
        )

    @classmethod
    def from_statistics(
        cls,
        encoding_table: EncodingTable,
        pathid_table: PathIdFrequencyTable,
        order_table: PathOrderTable,
        distinct_pathids: Optional[List[int]] = None,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        use_histograms: bool = True,
        build_binary_tree: bool = True,
        name: str = "",
    ) -> "EstimationSystem":
        """Build from exact tables alone — no document, no per-node labels.

        The construction path of the streaming/sharded builder
        (:mod:`repro.build`): everything downstream of the tables
        (histograms, binary tree, size accounting) only needs the encoding
        table and the distinct path ids, which the frequency table itself
        carries.
        """
        if distinct_pathids is None:
            distinct_pathids = pathid_table.distinct_pathids()
        labeled = LabeledDocument.from_summary(encoding_table, distinct_pathids)
        if use_histograms:
            phistograms = PHistogramSet.from_table(pathid_table, p_variance)
            ohistograms = OHistogramSet.from_table(order_table, phistograms, o_variance)
            path_provider: PathStatsProvider = phistograms
            order_provider: OrderStatsProvider = ohistograms
        else:
            path_provider = ExactPathStats(pathid_table)
            order_provider = ExactOrderStats(order_table)
        binary_tree = None
        if build_binary_tree:
            binary_tree = PathIdBinaryTree(
                list(distinct_pathids), encoding_table.width
            ).compress()
        return cls(
            labeled,
            pathid_table,
            order_table,
            path_provider,
            order_provider,
            binary_tree,
            name=name,
        )

    @classmethod
    def from_tables(
        cls,
        labeled: LabeledDocument,
        pathid_table: PathIdFrequencyTable,
        order_table: PathOrderTable,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        binary_tree: Optional[PathIdBinaryTree] = None,
    ) -> "EstimationSystem":
        """Build from precollected statistics (variance sweeps reuse the
        expensive one-pass tables and only rebuild the histograms)."""
        phistograms = PHistogramSet.from_table(pathid_table, p_variance)
        ohistograms = OHistogramSet.from_table(order_table, phistograms, o_variance)
        return cls(
            labeled, pathid_table, order_table, phistograms, ohistograms, binary_tree
        )

    # ------------------------------------------------------------------
    # Compiled kernel
    # ------------------------------------------------------------------

    def kernel(self) -> SynopsisKernel:
        """The compiled synopsis kernel, built lazily on first use.

        The kernel compiles per-tag index tables and containment
        bitmatrices on demand (under its own lock, so concurrent service
        threads share one compile), and every fixpoint, depth-consistent
        estimate runs its path joins on it; results are bit-identical to
        the Section 4 dict join of :mod:`repro.core.pathjoin`.
        """
        kernel = self._kernel
        if kernel is None:
            with self._kernel_lock:
                kernel = self._kernel
                if kernel is None:
                    kernel = SynopsisKernel(
                        self.encoding_table, self.path_provider, name=self.name
                    )
                    self._kernel = kernel
        return kernel

    def kernel_active(self) -> bool:
        """True when joins on this system are served by the kernel."""
        return self.kernel().supports(self.path_provider, self.encoding_table)

    def adopt_kernel(self, kernel: SynopsisKernel) -> None:
        """Attach a pre-built kernel instead of compiling one lazily.

        The kernelpack loader uses this to hand a system a kernel
        reconstructed zero-copy from a mapped snapshot; ``kernel()``
        then serves it with no compilation ever running in-process.  The
        kernel must have been built for *this* system's provider and
        encoding table — a mismatched kernel would silently produce
        estimates for a different synopsis, so it is rejected here.
        """
        if not kernel.supports(self.path_provider, self.encoding_table):
            raise ValueError(
                "kernel %r was not built for this system's provider/encoding "
                "table" % (kernel.name,)
            )
        with self._kernel_lock:
            previous, self._kernel = self._kernel, kernel
        if previous is not None and previous is not kernel:
            previous.invalidate()

    def kernel_peek(self) -> Optional[SynopsisKernel]:
        """The attached kernel, or ``None`` — never triggers a compile
        (health checks and metrics must not pay the build cost)."""
        return self._kernel

    def kernel_state(self) -> str:
        """Readiness of the compiled kernel, without compiling one.

        ``"pending"`` (will compile lazily on first estimate),
        ``"ready"`` (attached and serving), ``"stale"`` (invalidated by a
        reload/append; awaiting replacement) or ``"unsupported"``
        (attached but cannot serve this provider — e.g. depth-refined
        statistics).  ``/healthz`` exposes
        this per synopsis so load balancers can tell a warmed-up worker
        from one that would eat the compile cost on its next request.
        """
        kernel = self._kernel
        if kernel is None:
            return "pending"
        if kernel.invalidated:
            return "stale"
        if not kernel.supports(self.path_provider, self.encoding_table):
            return "unsupported"
        return "ready"

    def invalidate_kernel(self) -> bool:
        """Drop the attached kernel (hot reload / delta guard).

        Marks the old kernel stale so captured references fall back to
        the legacy path instead of serving a replaced synopsis; the next
        :meth:`kernel` call compiles a fresh one.  Returns whether a
        kernel was attached.

        This is the single choke point every synopsis-content change
        funnels through (registry hot reload and re-registration, live
        appends, delta refreshes, kernelpack remaps), so it also bumps
        the semantic result cache's generation — cached estimates must
        never outlive the statistics they were computed from.
        """
        self.semcache.bump_generation()
        with self._kernel_lock:
            kernel, self._kernel = self._kernel, None
        if kernel is not None:
            kernel.invalidate()
            return True
        return False

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def apply_delta(self, partial, *, force_refresh: bool = False):
        """Merge a delta :class:`~repro.build.stream.PartialSynopsis`.

        The partial must be a fragment scan (under this document's root
        prefix) of subtrees appended at the end of the document.  Returns
        a :class:`~repro.cluster.delta.DeltaOutcome`; ``outcome.system``
        is the serving system afterwards — a *new* instance when the
        histograms were refreshed (the drift threshold decides), else
        this one.  Only systems built delta-capable — via
        :meth:`repro.cluster.delta.IncrementalSynopsis.build` or loaded
        from a snapshot with an embedded ``incremental`` section — can
        apply deltas; others raise
        :class:`~repro.cluster.delta.DeltaUnsupportedError`.
        """
        from repro.cluster.delta import DeltaUnsupportedError

        maintainer = self.incremental
        if maintainer is None:
            raise DeltaUnsupportedError(
                "system %r carries no incremental state; build it with "
                "IncrementalSynopsis.build (or snapshot --incremental) to "
                "apply deltas" % (self.name,)
            )
        return maintainer.apply(partial, force_refresh=force_refresh)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def parse(self, text: str) -> Query:
        return parse_query(text)

    @staticmethod
    def select_route(query: Union[str, Query]) -> str:
        """Which estimation route ``estimate`` would take for ``query``.

        One of :data:`ROUTE_SCOPED`, :data:`ROUTE_ORDER`,
        :data:`ROUTE_NO_ORDER`.  Route selection depends only on the query
        shape, so callers (the service plan cache) can compute it once per
        distinct query text.
        """
        parsed = _coerce_query(query)
        if scoped_order_edges(parsed):
            return ROUTE_SCOPED
        if sibling_order_edges(parsed):
            return ROUTE_ORDER
        return ROUTE_NO_ORDER

    def estimate(
        self,
        query: Union[str, Query, List[Union[str, Query]], Tuple],
        *,
        options: Optional[EstimateOptions] = None,
        fixpoint: Optional[bool] = None,
        depth_consistent: Optional[bool] = None,
    ):
        """Estimate the selectivity of the query's target node.

        The one estimation verb of the unified surface:

        * ``estimate(q)`` → ``float`` — the bare estimate;
        * ``estimate([q1, q2, ...])`` → ``List[float]`` — a batch against
          one shared kernel memo (repeated texts share one cached AST
          and cost one estimate);
        * ``estimate(q, options=EstimateOptions(detail=True))`` →
          :class:`~repro.core.result.EstimateResult` with route and
          timing; ``EstimateOptions(trace=True)`` additionally records
          the span tree.

        ``fixpoint=False`` runs a single path-join pruning pass;
        ``depth_consistent=False`` uses the literal pairwise containment
        test (ablation switches, see DESIGN.md §5; both may be given
        directly or on ``options``; keyword-only).
        """
        opts = options if options is not None else EstimateOptions()
        if fixpoint is not None or depth_consistent is not None:
            opts = _options_replace(
                opts,
                fixpoint=opts.fixpoint if fixpoint is None else fixpoint,
                depth_consistent=(
                    opts.depth_consistent
                    if depth_consistent is None
                    else depth_consistent
                ),
            )
        if isinstance(query, (list, tuple)):
            return self._estimate_many(query, opts)
        if opts.trace or opts.detail:
            # Detail/trace requests bypass the semantic cache: a traced
            # estimate must observe a real execution, and the result
            # object carries per-request timing a shared entry cannot.
            return self._estimate_detail(query, opts)
        return self._read_through(_coerce_query(query), opts)[0]

    def _read_through(
        self,
        parsed: Query,
        opts: EstimateOptions,
        key: Optional[str] = None,
        compute: Optional[Callable[[], float]] = None,
    ) -> Tuple[float, bool]:
        """``(value, hit)`` for one estimate of ``parsed``, read through
        :attr:`semcache`.

        The one cross-request result memo on the estimate path: plain
        ``estimate()`` calls, batches and the service's compiled plans
        all come through here.  ``key`` is the canonical key when the
        caller already holds it; otherwise it is rendered here, and only
        when the cache is live, so a disabled cache costs no
        canonicalization.  Branch-sorted (commutative) canonicalization
        is enabled only on the fixpoint path, where the estimate is
        provably invariant under branch reordering (see
        :mod:`repro.semcache.canonical`); single-pass runs still merge
        textual variants of one tree.  A miss runs ``compute`` (by
        default, ``parsed`` along its route) and offers its value to the
        cache.
        """
        cache = self.semcache
        live = cache.enabled
        if live:
            if key is None:
                key = canonical_key(parsed, commutative=opts.fixpoint)
            fingerprint = options_fingerprint(opts.fixpoint, opts.depth_consistent)
            hit, value = cache.get(key, fingerprint)
            if hit:
                return value, True
        if compute is None:
            value = self._estimate_routed(
                parsed,
                self.select_route(parsed),
                fixpoint=opts.fixpoint,
                depth_consistent=opts.depth_consistent,
            )
        else:
            value = compute()
        if live:
            cache.put(key, fingerprint, value)
        return value, False

    def _estimate_detail(
        self, query: Union[str, Query], opts: EstimateOptions
    ) -> EstimateResult:
        """The structured-result estimation path (detail/trace options)."""
        text = query if isinstance(query, str) else getattr(query, "text", "")
        trace = opts.trace
        tracer = Tracer("estimate", seed=(str(text),)) if trace else NULL_TRACER
        start = time.perf_counter()
        with tracer.span("parse"):
            parsed = _coerce_query(query)
        with tracer.span("plan") as plan_span:
            route = self.select_route(parsed)
            plan_span.incr("route_" + route)
        value = self._estimate_routed(
            parsed,
            route,
            fixpoint=opts.fixpoint,
            depth_consistent=opts.depth_consistent,
            tracer=tracer,
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return EstimateResult(
            value=value,
            query=str(text),
            route=route,
            elapsed_ms=elapsed_ms,
            trace=tracer.finish() if trace else None,
        )

    def _estimate_many(
        self, queries: Iterable[Union[str, Query]], opts: EstimateOptions
    ) -> List[float]:
        """Batch estimation with common-subexpression elimination.

        Batch members are deduplicated by *canonical key* — not object
        identity — so equivalent-but-differently-written duplicates
        cost one estimate, with results fanned back out in input order.
        The within-batch memo works even when the semantic cache is
        disabled; when enabled, each distinct key also reads through it.
        """
        memo: Dict[str, float] = {}
        values: List[float] = []
        for query in queries:
            parsed = _coerce_query(query)
            key = canonical_key(parsed, commutative=opts.fixpoint)
            value = memo.get(key)
            if value is None:
                value, _ = self._read_through(parsed, opts, key)
                memo[key] = value
            values.append(value)
        return values

    def _estimate_routed(
        self,
        parsed: Query,
        route: str,
        fixpoint: bool = True,
        depth_consistent: bool = True,
        tracer=NULL_TRACER,
    ) -> float:
        """Estimate along a precomputed route, skipping edge re-scans.

        ``route`` must be ``select_route(parsed)``; the service's compiled
        plans call this directly with the cached (AST, route) pair.  When a
        live ``tracer`` is passed, the statistics providers are wrapped so
        histogram lookups appear as spans with bucket/cell counters.
        """
        path_provider = self.path_provider
        order_provider = self.order_provider
        if tracer.enabled:
            path_provider = TracingPathStats(path_provider, tracer)
            order_provider = TracingOrderStats(order_provider, tracer)
        kernel = self.kernel() if fixpoint and depth_consistent else None
        return self._estimate_routed_with(
            parsed, route, path_provider, order_provider,
            fixpoint, depth_consistent, tracer, kernel,
        )

    def _estimate_routed_with(
        self,
        parsed: Query,
        route: str,
        path_provider: PathStatsProvider,
        order_provider: OrderStatsProvider,
        fixpoint: bool,
        depth_consistent: bool,
        tracer,
        kernel=None,
    ) -> float:
        """Route dispatch over explicit (possibly tracing) providers."""
        if route == ROUTE_SCOPED:
            variants = rewrite_scoped_order_query(
                parsed, path_provider, self.encoding_table,
                fixpoint=fixpoint, depth_consistent=depth_consistent,
                tracer=tracer, kernel=kernel,
            )
            return sum(
                self._estimate_routed_with(
                    variant,
                    self.select_route(variant),
                    path_provider,
                    order_provider,
                    fixpoint,
                    depth_consistent,
                    tracer,
                    kernel,
                )
                for variant in variants
            )
        if route == ROUTE_ORDER:
            return estimate_with_order(
                parsed,
                path_provider,
                order_provider,
                self.encoding_table,
                fixpoint=fixpoint,
                depth_consistent=depth_consistent,
                tracer=tracer,
                kernel=kernel,
            )
        if route != ROUTE_NO_ORDER:
            raise ValueError("unknown estimation route %r" % route)
        return estimate_no_order(
            parsed, path_provider, self.encoding_table,
            fixpoint=fixpoint, depth_consistent=depth_consistent,
            tracer=tracer, kernel=kernel,
        )

    def join(
        self,
        query: Union[str, Query],
        fixpoint: bool = True,
        depth_consistent: bool = True,
    ) -> JoinResult:
        """Expose the raw path join (used by tests and examples)."""
        parsed = _coerce_query(query)
        kernel = self.kernel() if fixpoint and depth_consistent else None
        return path_join(
            parsed, self.path_provider, self.encoding_table,
            fixpoint=fixpoint, depth_consistent=depth_consistent,
            kernel=kernel,
        )

    # ------------------------------------------------------------------
    # Execution and plans (repro.plan)
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Union[str, Query],
        *,
        options: Optional[ExecuteOptions] = None,
        document: Optional[XmlDocument] = None,
    ):
        """Plan and run ``query``, returning matches plus the estimate.

        Builds the :class:`~repro.plan.ir.Plan` (the authored-order
        semijoin program, each step priced by the cost model), runs it
        through the structural semijoin machinery and returns an
        :class:`~repro.plan.ir.ExecutionResult`: the exact matching
        pre-orders, the structured estimate for the same query, and the
        executed plan with per-step observed cardinalities.

        Needs a document: the one this system was built from, or an
        explicit ``document=`` override (useful to run one synopsis's
        plans against another tree).  Statistics-only systems (streamed
        builds, snapshots) raise
        :class:`~repro.errors.ExecutionUnsupportedError` — kind
        ``"execute_unsupported"`` on the wire.
        """
        from repro.plan.cost import build_plan
        from repro.plan.ir import ExecutionResult

        opts = options if options is not None else ExecuteOptions()
        parsed = _coerce_query(query)
        target_document = document if document is not None else self.labeled.document
        if target_document is None:
            from repro.errors import ExecutionUnsupportedError

            raise ExecutionUnsupportedError(
                "system %r has no document to execute against (statistics-"
                "only build); pass document= or build from a parsed tree"
                % (self.name,)
            )
        start = time.perf_counter()
        plan = build_plan(self, parsed, opts.use_path_ids)
        matches = self._processor_for(target_document).matching_pres(
            parsed, opts.use_path_ids, plan=plan
        )
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        estimate = EstimateResult(
            value=plan.est_cardinality,
            query=parsed.to_string(),
            route=self.select_route(parsed),
            elapsed_ms=elapsed_ms,
        )
        return ExecutionResult(
            matches=matches, estimate=estimate, plan=plan, elapsed_ms=elapsed_ms
        )

    def explain(
        self,
        query: Union[str, Query],
        *,
        options: Optional[ExplainOptions] = None,
        document: Optional[XmlDocument] = None,
    ):
        """The :class:`~repro.plan.ir.Plan` ``execute`` would run.

        Pure planning needs no document (estimates only);
        ``ExplainOptions(analyze=True)`` also executes the plan against
        the system's document (or ``document=``) so every step carries
        observed cardinalities.  For the formula-level narrative of *how
        the estimate itself* was derived, see
        :func:`repro.core.explain.explain`.
        """
        from repro.plan.cost import build_plan

        opts = options if options is not None else ExplainOptions()
        if opts.analyze:
            return self.execute(
                query,
                options=ExecuteOptions(use_path_ids=opts.use_path_ids),
                document=document,
            ).plan
        return build_plan(self, _coerce_query(query), opts.use_path_ids)

    def _processor_for(self, document: XmlDocument):
        """The semijoin processor serving ``document``.

        The system's own document gets one cached processor (its
        interval index and path-id machinery warm up once); overrides
        get a fresh instance.
        """
        from repro.queryproc.processor import StructuralJoinProcessor

        if document is not self.labeled.document:
            return StructuralJoinProcessor(document)
        processor = self._processor
        if processor is None:
            with self._processor_lock:
                processor = self._processor
                if processor is None:
                    processor = StructuralJoinProcessor(document, self.labeled)
                    self._processor = processor
        return processor

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    def summary_sizes(self) -> Dict[str, float]:
        """Byte sizes of every summary structure (Tables 3-5, Figure 9)."""
        sizes: Dict[str, float] = {
            "encoding_table": float(self.encoding_table.size_bytes()),
            "pathid_table": float(self.labeled.pathid_table_size_bytes()),
        }
        if self.binary_tree is not None:
            sizes["binary_tree"] = float(self.binary_tree.size_bytes())
        pid_bytes = self.labeled.pathid_size_bytes()
        if isinstance(self.path_provider, PHistogramSet):
            sizes["p_histogram"] = float(self.path_provider.size_bytes(pid_bytes))
        if isinstance(self.order_provider, OHistogramSet):
            sizes["o_histogram"] = float(self.order_provider.size_bytes())
        return sizes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<EstimationSystem over %r>" % self.labeled.document
