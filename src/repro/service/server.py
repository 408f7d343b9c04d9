"""Threaded JSON-over-HTTP front end for the synopsis registry.

Endpoints
---------

``POST /estimate``
    Body ``{"synopsis": name, "query": text}`` for a single estimate or
    ``{"synopsis": name, "queries": [text, ...]}`` for a batch.  Replies
    ``{"synopsis", "generation", "result"}`` (plus ``"tier"`` /
    ``"brownout"`` when set): ``result`` is the versioned
    :class:`~repro.core.result.EstimateResult` wire object with the value,
    route, timing and cache attribution.  A batch replies with
    ``"results": [{"result": ...}, ...]`` and ``"count"`` in place of
    ``result``.  A single-query body may instead set
    ``"explain": true`` — returns the cost-based plan IR (ordered
    semijoin steps with expected cardinalities) without executing — or
    ``"execute": true`` — runs the plan against the synopsis's source
    document and returns ``matches``/``match_count`` plus the executed
    plan with observed cardinalities and any mid-plan replans (``409``
    kind ``execute_unsupported`` for statistics-only synopses).
``POST /delta``
    Body ``{"synopsis": name, "partial": <repro.persist.partial_to_dict>}``:
    merges an uploaded delta partial into a delta-capable synopsis in
    place (no rebuild, no restart) and replies with the apply outcome
    (refreshed/deferred, new generation, drift).  ``409`` with kind
    ``delta_unsupported`` when the synopsis cannot absorb deltas.
``GET /synopses``
    The registry inventory (name, generation, source, sizes).
``GET /healthz``
    Liveness *and* degradation: ``{"status": "ok" | "degraded",
    "synopses": N, "reload_failures": N}`` plus, when degraded, the
    name → reason map of entries serving last-good state.
``GET /metrics``
    Counters, latency percentiles, per-synopsis QPS, cache hit rate,
    the reliability block (in-flight, shed, deadline counters) and the
    ``process.gc`` block (per-generation collector counters).  With
    ``?format=prom`` the same registry renders Prometheus text
    exposition (format 0.0.4) instead of JSON.
``GET /debug/slowlog``
    The slow-query log: recent entries over the latency threshold plus
    the top-K by latency and (when the client supplied ground truth) by
    relative error.  ``?limit=N`` bounds the ``recent`` list.

Tracing: a request body carrying ``"trace": true`` — or one picked by
the server's deterministic sample rate — re-executes the estimate under
a :class:`~repro.obs.trace.Tracer` and returns the span tree inside the
versioned ``result`` object (``result.trace``).

The server is :class:`http.server.ThreadingHTTPServer` — one thread per
connection, stdlib only.  Estimation runs outside the registry lock; the
plan cache and metrics are thread-safe, so concurrent clients see exactly
the numbers a direct :meth:`EstimationSystem.estimate` would produce.

Reliability: every ``POST /estimate`` passes the service's admission
gate — beyond the in-flight budget the request is shed with ``503``
and a ``Retry-After`` header instead of queueing unboundedly — and runs
under an optional per-request deadline (``504`` with kind
``deadline_exceeded`` when the budget runs out mid-batch).  Read-only
endpoints bypass the gate so health and metrics stay observable during
overload.  :meth:`ServiceServer.close` drains in-flight requests before
tearing the socket down.

QoS tiers: with a :class:`~repro.reliability.shedding.TieredAdmissionGate`
each request is routed to a named priority lane — the ``X-Repro-Tier``
header (admission happens *before* the body is read, so a shed costs no
parsing), else the body's ``"tier"`` field, else by shape (batches →
``bulk``, singles → ``interactive``).  Sheds carry the lane's own
``Retry-After`` and the tier/reason inside the error object; bulk
batches yield their slot to waiting interactive work between queries
(:meth:`TieredAdmissionGate.checkpoint`).  A
:class:`~repro.reliability.brownout.BrownoutController`, when attached,
watches capacity sheds and degrades in stages: tracing and slow-query
logging stop first, then brownout-sheddable tiers are refused outright;
``/healthz``, ``/metrics`` and estimate replies all advertise the
state.

Connection hygiene: ``read_deadline_s`` puts a socket timeout on every
connection, so a slow-loris client trickling its request bytes is cut
off (``408`` with kind ``read_timeout`` mid-body, silent close on the
request line) instead of pinning a handler thread.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.options import EstimateOptions
from repro.core.result import EstimateResult
from repro.core.transform import UnsupportedQueryError
from repro.errors import ExecutionUnsupportedError, ReproError, error_kind
from repro.obs.slowlog import SlowQueryLog
from repro.reliability import faults
from repro.reliability.brownout import BrownoutController
from repro.reliability.policy import Deadline, DeadlineExceededError
from repro.reliability.shedding import (
    BULK_TIER,
    INTERACTIVE_TIER,
    AdmissionGate,
    OverloadedError,
    TieredAdmissionGate,
)
from repro.service.config import DEFAULT_PORT
from repro.service.metrics import ServiceMetrics, gc_document
from repro.service.plancache import PlanCache
from repro.service.registry import SynopsisRegistry, UnknownSynopsisError
from repro.xpath.parser import XPathSyntaxError

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Largest match list returned on the wire by an ``"execute": true``
#: request; ``match_count`` is always the full count and
#: ``matches_truncated`` flags a capped list.
MAX_WIRE_MATCHES = 1000


class RequestError(ValueError):
    """A client-side request problem, mapped to an HTTP status.

    ``kind`` is the stable machine-readable slug carried in the response's
    ``error.kind`` field (the human-readable message may change between
    releases; the kind will not).

    ``retry_after_s``, when set, is emitted as a ``Retry-After`` header
    (503/429-style responses that the client should back off from).
    """

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "bad_request",
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.retry_after_s = retry_after_s


def error_body(kind: str, message: str, **extra: Any) -> Dict[str, Any]:
    """The wire shape of every error response: ``{"error": {kind, message}}``.

    ``extra`` keys (``tier``, ``reason``, ...) are additive fields inside
    the error object; ``None`` values are dropped.
    """
    error: Dict[str, Any] = {"kind": kind, "message": message}
    for key, value in extra.items():
        if value is not None:
            error[key] = value
    return {"error": error}


def _trace_used_kernel(trace: Optional[Dict[str, Any]]) -> bool:
    """True when the span tree contains a ``bitset_join`` span.

    Traced requests bypass the compiled plan's memo, so the only honest
    answer to "did the kernel serve this?" is whether the re-execution
    actually went down the bitset path.
    """
    if not isinstance(trace, dict):
        return False
    stack = [trace.get("root")]
    while stack:
        span = stack.pop()
        if not isinstance(span, dict):
            continue
        if span.get("name") == "bitset_join":
            return True
        stack.extend(span.get("children", ()))
    return False


class EstimationService:
    """Registry + plan cache + metrics behind one estimate() entry point.

    This is the transport-free core: the HTTP handler, the benchmark load
    generator and the tests all talk to the same object.
    """

    def __init__(
        self,
        registry: SynopsisRegistry,
        plan_cache: Optional[PlanCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        gate: Optional[AdmissionGate] = None,
        request_deadline_s: Optional[float] = None,
        slow_log: Optional[SlowQueryLog] = None,
        trace_sample_rate: float = 0.0,
        brownout: Optional[BrownoutController] = None,
        semcache_capacity: Optional[int] = None,
        semcache_ttl_s: Optional[float] = None,
    ):
        self.registry = registry
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: Semantic result cache knobs applied to every served system
        #: (None = leave each system's own SemanticResultCache defaults).
        self.semcache_capacity = semcache_capacity
        self.semcache_ttl_s = (
            semcache_ttl_s if semcache_ttl_s and semcache_ttl_s > 0 else None
        )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.gate = gate if gate is not None else AdmissionGate()
        #: QoS lanes are active when the gate is tiered; the handler then
        #: resolves a tier per request and admission is priority-ordered.
        self.tiered = isinstance(self.gate, TieredAdmissionGate)
        self.brownout = brownout
        self.request_deadline_s = request_deadline_s
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()
        self.trace_sample_rate = trace_sample_rate
        self._sample_lock = threading.Lock()
        self._sample_seq = 0
        # Worker-pool hooks (set by repro.shm.pool on forked workers):
        # callables returning the shared-memory arena's aggregated
        # metrics / per-worker liveness, so any worker can render the
        # pool-wide picture under "workers".
        self.workers_view: Optional[Any] = None
        self.workers_liveness: Optional[Any] = None

    def _configure_semcache(self, system) -> None:
        """Push the service's semcache knobs onto one served system.

        Cheap enough to run per request (two comparisons on the hot
        path); reconfiguration only happens when a knob actually
        differs, e.g. the first time a hot-reloaded system is served.
        """
        if self.semcache_capacity is None and self.semcache_ttl_s is None:
            return
        cache = getattr(system, "semcache", None)
        if cache is None:  # pragma: no cover - defensive
            return
        capacity = (
            self.semcache_capacity
            if self.semcache_capacity is not None
            else cache.capacity
        )
        if cache.capacity != capacity or cache.ttl_s != self.semcache_ttl_s:
            cache.configure(capacity, self.semcache_ttl_s)

    def _sample_trace(self) -> bool:
        """Deterministic systematic sampling: of every 1/rate requests,
        exactly one is traced (``int(n*rate)`` advances)."""
        rate = self.trace_sample_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        with self._sample_lock:
            self._sample_seq += 1
            n = self._sample_seq
        return int(n * rate) > int((n - 1) * rate)

    # ------------------------------------------------------------------
    # QoS admission
    # ------------------------------------------------------------------

    def select_tier(
        self, payload: Any = None, header: Optional[str] = None
    ) -> Optional[str]:
        """Resolve the QoS lane for one estimate request.

        Precedence: the ``X-Repro-Tier`` header (lets the gate shed
        before the body is even read), then the body's ``"tier"`` field,
        then shape — batches default to ``bulk``, single estimates to
        ``interactive``.  ``None`` when the gate is untiered.  Raises
        :class:`RequestError` (400, kind ``unknown_tier``) for a tier
        the gate does not know.
        """
        if not self.tiered:
            return None
        names = self.gate.tier_names
        choice: Optional[str] = None
        if header:
            choice = header
        elif isinstance(payload, dict):
            field = payload.get("tier")
            if field is not None:
                if not isinstance(field, str):
                    raise RequestError(400, "'tier' must be a string", "unknown_tier")
                choice = field
            elif "queries" in payload:
                choice = BULK_TIER if BULK_TIER in names else self.gate.default_tier
            else:
                choice = (
                    INTERACTIVE_TIER
                    if INTERACTIVE_TIER in names
                    else self.gate.default_tier
                )
        if choice is None:
            choice = self.gate.default_tier
        if choice not in names:
            raise RequestError(
                400,
                "unknown tier %r (expected one of: %s)" % (choice, ", ".join(names)),
                "unknown_tier",
            )
        return choice

    def admit(self, tier: Optional[str] = None) -> None:
        """Enter the admission gate on ``tier``, feeding the brownout
        controller and per-tier shed metrics.  Raises
        :class:`~repro.reliability.shedding.OverloadedError` on shed;
        every successful ``admit`` must be paired with :meth:`release`.
        """
        try:
            if self.tiered:
                self.gate.enter(tier)
            else:
                self.gate.enter()
        except OverloadedError as error:
            # Only *capacity* sheds are overload pressure; brownout and
            # shutdown sheds are policy outcomes and feeding them back
            # would latch the brownout on forever.
            self._record_admission(shed=error.reason == "capacity")
            if error.tier is not None:
                self.metrics.observe_tier(error.tier, shed=True)
            raise
        self._record_admission(shed=False)

    def release(self, tier: Optional[str] = None) -> None:
        if self.tiered:
            self.gate.leave(tier)
        else:
            self.gate.leave()

    def _record_admission(self, shed: bool) -> None:
        """Feed one admission outcome to the brownout controller and
        apply any level change to the gate's shed-tier set."""
        controller = self.brownout
        if controller is None:
            return
        level = controller.record(shed)
        if not self.tiered:
            return
        want = frozenset(
            self.gate.brownout_sheddable_tiers() if level >= 2 else ()
        )
        if want != self.gate.shed_tiers:
            self.gate.set_shed_tiers(want)
            self.metrics.incr("brownout_transitions_total")

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimate(
        self,
        synopsis: str,
        text: str,
        trace: bool = False,
        actual: Optional[float] = None,
        memo: Optional[Dict[str, Tuple[float, str, bool]]] = None,
        entry=None,
        tier: Optional[str] = None,
        slowlog: bool = True,
        mode: str = "estimate",
    ) -> Dict[str, Any]:
        """One estimate as a JSON-ready dict (no request-metrics side
        effects; the slow-query log *is* fed here, per query).

        A traced call bypasses the memoized plan result and re-executes
        through ``EstimationSystem.estimate`` with
        ``EstimateOptions(trace=True)`` so the returned span tree
        (parse → plan → lookups → join) reflects a real execution; its
        ``kernel`` field reports whether that execution actually took the
        bitset path (a ``bitset_join`` span in the trace).

        ``memo`` is a batch-local ``key -> (value, route, kernel)`` map
        keyed by both exact text and the plan's canonical semantic key:
        within one batch request, repeated texts reuse the first
        computed value without re-entering the plan cache, equivalent-
        but-differently-written members (reordered branches, spelling
        variants) are deduplicated by canonical key (common-
        subexpression elimination), and every plan in the batch shares
        the same kernel (so its containment-row memos are warm across
        queries).

        ``entry`` pins the registry entry (system + generation) for the
        whole call: :meth:`handle_estimate` resolves it once per request
        so a hot reload landing mid-batch cannot hand later queries a
        different synopsis than earlier ones.  Without it, the entry is
        resolved here (single ad-hoc estimates).

        ``tier`` stamps the result object with the QoS lane that served
        it; ``slowlog=False`` skips the slow-query log (brownout level 1
        sheds observability before estimates).

        ``mode`` selects the verb: ``"estimate"`` (default),
        ``"explain"`` (return the cost-based plan, no execution) or
        ``"execute"`` (run the plan against the synopsis's document and
        return matches + the executed plan with observed cardinalities).
        """
        if entry is None:
            entry = self.registry.get(synopsis)
            if hasattr(entry, "pinned"):
                entry = entry.pinned()
        if mode != "estimate":
            return self._plan_verb(
                synopsis, text, entry, mode, tier=tier, slowlog=slowlog,
            )
        if trace:
            traced = entry.system.estimate(
                text, options=EstimateOptions(trace=True)
            )
            kernel_used = _trace_used_kernel(traced.trace)
            result = EstimateResult(
                value=traced.value,
                query=text,
                route=traced.route,
                elapsed_ms=traced.elapsed_ms,
                trace=traced.trace,
                kernel=kernel_used,
                tier=tier,
                cache={"plan": False, "result": False},
            )
        elif memo is not None and text in memo:
            value, route, kernel_used = memo[text]
            self.metrics.incr("semcache_hits_total")
            result = EstimateResult(
                value=value,
                query=text,
                route=route,
                elapsed_ms=0.0,
                kernel=kernel_used,
                tier=tier,
                cache={"plan": True, "result": True},
            )
        else:
            self._configure_semcache(entry.system)
            plan, hit = self.plan_cache.get_or_compile(
                entry.name, entry.generation, entry.system, text
            )
            if memo is not None and plan.canonical in memo:
                # Within-batch CSE: a differently-written equivalent of
                # this query already ran in this batch.
                value, route, kernel_used = memo[plan.canonical]
                self.metrics.incr("semcache_hits_total")
                result = EstimateResult(
                    value=value,
                    query=text,
                    route=route,
                    elapsed_ms=0.0,
                    kernel=kernel_used,
                    tier=tier,
                    cache={"plan": hit, "result": True},
                )
            else:
                started = time.perf_counter()
                value, result_hit = plan.execute_cached(entry.system)
                kernel_used = bool(plan.kernel) and entry.system.kernel_active()
                self.metrics.incr(
                    "semcache_hits_total" if result_hit
                    else "semcache_misses_total"
                )
                result = EstimateResult(
                    value=value,
                    query=text,
                    route=plan.route,
                    elapsed_ms=(time.perf_counter() - started) * 1000.0,
                    kernel=kernel_used,
                    tier=tier,
                    cache={"plan": hit, "result": result_hit},
                )
                if memo is not None:
                    memo[text] = memo[plan.canonical] = (
                        value, plan.route, kernel_used,
                    )
        self.metrics.incr(
            "kernel_hits_total" if kernel_used else "kernel_misses_total"
        )
        if slowlog:
            self.slow_log.observe(
                query=text,
                elapsed_ms=result.elapsed_ms,
                synopsis=synopsis,
                route=result.route,
                estimate=result.value,
                actual=actual,
                trace_id=result.trace_id,
                trace=result.trace,
            )
        return {"result": result.as_dict()}

    def _plan_verb(
        self,
        synopsis: str,
        text: str,
        entry,
        mode: str,
        tier: Optional[str] = None,
        slowlog: bool = True,
    ) -> Dict[str, Any]:
        """Serve one explain/execute request against a pinned entry.

        ``explain`` plans only (works on statistics-only synopses);
        ``execute`` needs the entry's system to hold its source document
        and raises :class:`~repro.errors.ExecutionUnsupportedError`
        (mapped to 409) otherwise.  Executed requests feed the slow-query
        log with the *exact* match count as ground truth — the one place
        the service learns its own estimation error for free.
        """
        if mode == "explain":
            plan = entry.system.explain(text)
            self.metrics.incr("explains_total")
            return {"plan": plan.as_dict()}
        execution = entry.system.execute(text)
        result = execution.estimate
        # Plan verbs always run for real (explain/execute are not
        # memoizable responses), so cache attribution is all-False.
        result = dataclasses.replace(
            result, tier=tier, cache={"plan": False, "result": False}
        )
        plan = execution.plan
        self.metrics.incr("executions_total")
        if plan.replans:
            self.metrics.incr("plan_replans_total", plan.replans)
        if slowlog:
            self.slow_log.observe(
                query=text,
                elapsed_ms=execution.elapsed_ms,
                synopsis=synopsis,
                route=result.route,
                estimate=result.value,
                actual=float(execution.match_count),
                trace_id=result.trace_id,
                trace=result.trace,
            )
        matches = list(execution.matches)
        truncated = len(matches) > MAX_WIRE_MATCHES
        return {
            "result": result.as_dict(),
            "plan": plan.as_dict(),
            "match_count": len(matches),
            "matches": matches[:MAX_WIRE_MATCHES],
            "matches_truncated": truncated,
        }

    def handle_estimate(
        self, payload: Any, tier: Optional[str] = None
    ) -> Dict[str, Any]:
        """Validate and serve one ``POST /estimate`` body; observes
        metrics (including for failed requests) and raises
        :class:`RequestError` with the proper HTTP status on bad input.

        ``tier`` is the already-admitted QoS lane (None with a flat
        gate): it picks the lane's deadline budget, stamps results, and
        lets bulk batches yield their slot between queries whenever
        higher-priority work is waiting.
        """
        started = time.perf_counter()
        deadline_s = self.request_deadline_s
        if self.tiered and tier is not None:
            policy = self.gate.policy(tier)
            if policy.deadline_s is not None:
                deadline_s = policy.deadline_s
        deadline = Deadline.after(deadline_s)
        # Brownout level 1 sheds observability work (tracing + slowlog)
        # before it touches any estimate.
        observability = self.brownout is None or self.brownout.allows_tracing()
        synopsis: Optional[str] = None
        queries: List[str] = []
        results: List[Dict[str, Any]] = []
        try:
            faults.fire("server.handle", payload)
            (
                synopsis,
                queries,
                batched,
                trace,
                actuals,
                mode,
            ) = self._parse_estimate_payload(payload)
            trace = (trace or self._sample_trace()) and observability
            if trace:
                self.metrics.incr("traced_requests_total")
            # Batch requests share one text -> result memo so duplicate
            # queries are estimated once (and all plans in the batch
            # reuse the same warm kernel).
            memo: Optional[Dict[str, Tuple[float, str, bool]]] = (
                {} if batched and not trace else None
            )
            # Pin one synopsis version for the whole request: every
            # query in a batch estimates against the same system and the
            # reported generation is the one that actually served — a
            # reload landing mid-batch waits for the next request rather
            # than splitting this one across two synopses.  The entry
            # object itself is hot-swapped in place by reloads, so the
            # pin must capture (generation, system), not the entry.
            entry = self.registry.get(synopsis)
            if hasattr(entry, "pinned"):
                entry = entry.pinned()
            for index, text in enumerate(queries):
                deadline.check("estimate request")
                if self.tiered and batched and index:
                    # Cooperative preemption: between queries a batch
                    # offers its slot to waiting higher-priority work,
                    # bounded by its own remaining deadline.
                    wait = min(5.0, deadline.remaining())
                    if self.gate.checkpoint(tier, max_wait_s=wait):
                        self.metrics.incr("preemption_yields_total")
                        deadline.check("estimate request")
                results.append(
                    self.estimate(
                        synopsis,
                        text,
                        trace=trace,
                        actual=actuals[index],
                        memo=memo,
                        entry=entry,
                        tier=tier,
                        slowlog=observability,
                        mode=mode,
                    )
                )
        except DeadlineExceededError:
            self.metrics.incr("deadline_exceeded_total")
            self._observe_failure(synopsis, started, len(queries))
            raise RequestError(
                504,
                "request exceeded its %.3fs deadline after %d of %d queries"
                % (deadline_s or 0.0, len(results), len(queries)),
                "deadline_exceeded",
            )
        except UnknownSynopsisError as error:
            self._observe_failure(None, started, len(queries))
            raise RequestError(404, "unknown synopsis %s" % error, "unknown_synopsis")
        except XPathSyntaxError as error:
            self._observe_failure(synopsis, started, len(queries))
            raise RequestError(400, "bad query: %s" % error, error_kind(error))
        except UnsupportedQueryError as error:
            self._observe_failure(synopsis, started, len(queries))
            raise RequestError(400, "unsupported query: %s" % error, "unsupported_query")
        except ExecutionUnsupportedError as error:
            # 409: the synopsis exists but is statistics-only (no source
            # document to run the plan against) — re-sending won't help.
            self._observe_failure(synopsis, started, len(queries))
            raise RequestError(409, str(error), error_kind(error))
        except ReproError as error:
            # Build/persist failures surfaced through the registry keep
            # their hierarchy slug (error.kind = "build", "persist", ...).
            self._observe_failure(synopsis, started, len(queries))
            raise RequestError(500, str(error), error_kind(error))
        except RequestError:
            self._observe_failure(synopsis, started, len(queries))
            raise
        generation = entry.generation
        elapsed = time.perf_counter() - started
        self.metrics.observe(synopsis, elapsed, queries=len(results))
        if tier is not None:
            self.metrics.observe_tier(tier, latency_s=elapsed)
        body: Dict[str, Any] = {"synopsis": synopsis, "generation": generation}
        if tier is not None:
            body["tier"] = tier
        if self.brownout is not None and self.brownout.level > 0:
            body["brownout"] = self.brownout.state
        if batched:
            body["results"] = results
            body["count"] = len(results)
        else:
            body.update(results[0])
        return body

    @staticmethod
    def _parse_estimate_payload(
        payload: Any,
    ) -> Tuple[str, List[str], bool, bool, List[Optional[float]], str]:
        """Returns ``(synopsis, queries, batched, trace, actuals, mode)``
        where ``actuals`` is aligned with ``queries`` (``None`` when the
        client supplied no ground truth for that query) and ``mode`` is
        the verb —
        ``"estimate"``, ``"explain"`` or ``"execute"`` (single-query
        requests only)."""
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        synopsis = payload.get("synopsis")
        if not isinstance(synopsis, str) or not synopsis:
            raise RequestError(400, "missing 'synopsis' field")
        trace = payload.get("trace", False)
        if not isinstance(trace, bool):
            raise RequestError(400, "'trace' must be a boolean")
        explain = payload.get("explain", False)
        execute = payload.get("execute", False)
        if not isinstance(explain, bool) or not isinstance(execute, bool):
            raise RequestError(400, "'explain'/'execute' must be booleans")
        if explain and execute:
            raise RequestError(400, "'explain' and 'execute' are mutually exclusive")
        mode = "execute" if execute else ("explain" if explain else "estimate")
        if "queries" in payload:
            if mode != "estimate":
                raise RequestError(
                    400, "'%s' applies to single-query requests only" % mode
                )
            queries = payload["queries"]
            if not isinstance(queries, list) or not all(
                isinstance(text, str) for text in queries
            ):
                raise RequestError(400, "'queries' must be a list of strings")
            if not queries:
                raise RequestError(400, "'queries' must not be empty")
            actuals = payload.get("actuals")
            if actuals is None:
                actuals = [None] * len(queries)
            elif (
                not isinstance(actuals, list)
                or len(actuals) != len(queries)
                or not all(
                    value is None or isinstance(value, (int, float))
                    for value in actuals
                )
            ):
                raise RequestError(
                    400, "'actuals' must be a list of numbers aligned with 'queries'"
                )
            return synopsis, queries, True, trace, list(actuals), mode
        text = payload.get("query")
        if not isinstance(text, str) or not text:
            raise RequestError(400, "missing 'query' field")
        actual = payload.get("actual")
        if actual is not None and not isinstance(actual, (int, float)):
            raise RequestError(400, "'actual' must be a number")
        return synopsis, [text], False, trace, [actual], mode

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def handle_delta(self, payload: Any) -> Dict[str, Any]:
        """Serve one ``POST /delta`` body: merge an uploaded delta partial
        into a registered synopsis without a rebuild.

        Body: ``{"synopsis": name, "partial": <partial_to_dict() dict>,
        "force_refresh": bool?}``.  Replies with the apply outcome —
        whether the served system refreshed (vs. the delta being absorbed
        under the drift threshold), the post-apply generation, and the
        current drift fraction.
        """
        from repro import persist
        from repro.cluster.delta import DeltaError, DeltaUnsupportedError

        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        synopsis = payload.get("synopsis")
        if not isinstance(synopsis, str) or not synopsis:
            raise RequestError(400, "missing 'synopsis' field")
        partial_dict = payload.get("partial")
        if not isinstance(partial_dict, dict):
            raise RequestError(400, "missing 'partial' field (partial_to_dict object)")
        force_refresh = payload.get("force_refresh", False)
        if not isinstance(force_refresh, bool):
            raise RequestError(400, "'force_refresh' must be a boolean")
        try:
            partial = persist.partial_from_dict(partial_dict)
        except ReproError as error:
            raise RequestError(400, "malformed partial: %s" % error, error_kind(error))
        try:
            entry, outcome = self.registry.apply_delta(
                synopsis, partial, force_refresh=force_refresh
            )
        except UnknownSynopsisError as error:
            raise RequestError(404, "unknown synopsis %s" % error, "unknown_synopsis")
        except DeltaUnsupportedError as error:
            # 409: the synopsis exists but cannot absorb deltas (plain
            # snapshot, kernelpack, live tree) — re-sending won't help.
            raise RequestError(409, str(error), error_kind(error))
        except DeltaError as error:
            raise RequestError(400, str(error), error_kind(error))
        except ReproError as error:
            raise RequestError(500, str(error), error_kind(error))
        self.metrics.incr("deltas_total")
        self.metrics.incr(
            "delta_refreshes_total" if outcome.refreshed else "delta_deferred_total"
        )
        return {
            "synopsis": synopsis,
            "generation": entry.generation,
            "refreshed": outcome.refreshed,
            "drift": outcome.drift,
            "elements_added": outcome.elements_added,
            "new_paths": outcome.new_paths,
            "stale": not outcome.refreshed,
            "elapsed_ms": outcome.elapsed_ms,
        }

    def _observe_failure(
        self, synopsis: Optional[str], started: float, queries: int
    ) -> None:
        self.metrics.observe(
            synopsis,
            time.perf_counter() - started,
            queries=max(1, queries),
            error=True,
        )

    # ------------------------------------------------------------------
    # Read-only endpoints
    # ------------------------------------------------------------------

    def synopses(self) -> Dict[str, Any]:
        return {"synopses": self.registry.describe()}

    def healthz(self) -> Dict[str, Any]:
        """Liveness plus degradation: a registry entry stuck on last-good
        state (corrupt/unreadable replacement snapshot) flips the status
        to ``"degraded"`` without taking the endpoint to non-200 — the
        server *is* serving, just not the newest synopsis.

        ``kernels`` maps each synopsis to its compiled-kernel readiness
        (``ready`` / ``pending`` / ``stale`` / ``disabled`` /
        ``unsupported``) *without* triggering a compile, so a load
        balancer can tell a warmed-up instance from one that would pay
        the build cost on its next estimate.  Under a worker pool the
        reply also carries per-worker ``{pid, generation, alive}`` from
        the shared arena — the remap generation each worker serves.
        """
        degraded = {}
        reload_failures = 0
        if hasattr(self.registry, "degraded"):
            degraded = self.registry.degraded()
        reload_failures = getattr(self.registry, "reload_failures", 0)
        body: Dict[str, Any] = {
            "status": "degraded" if degraded else "ok",
            "synopses": len(self.registry),
            "reload_failures": reload_failures,
            "kernels": self.kernel_states(),
        }
        if degraded:
            body["degraded"] = degraded
        # Brownout is degradation too: a load balancer reading /healthz
        # sees "degraded" plus which tiers are currently refused.
        if self.brownout is not None:
            snap = self.brownout.snapshot()
            body["brownout"] = snap
            if snap["level"] > 0:
                body["status"] = "degraded"
        if self.tiered:
            body["shed_tiers"] = sorted(self.gate.shed_tiers)
        if self.workers_liveness is not None:
            try:
                body["workers"] = self.workers_liveness()
            except Exception:  # pragma: no cover - defensive
                pass
        return body

    def kernel_states(self) -> Dict[str, str]:
        """Per-synopsis kernel readiness; never compiles anything (reads
        ``kernel_state`` which only peeks at the attached kernel)."""
        states: Dict[str, str] = {}
        names = getattr(self.registry, "names", lambda: [])()
        for name in names:
            try:
                entry = self.registry.get(name)
                state = getattr(entry.system, "kernel_state", lambda: "unknown")()
            except Exception:  # pragma: no cover - defensive
                state = "unknown"
            states[name] = state
        return states

    def metrics_document(self) -> Dict[str, Any]:
        document = self.metrics.snapshot(self.plan_cache.stats())
        reliability = dict(self.gate.stats())
        reliability["reload_failures"] = getattr(self.registry, "reload_failures", 0)
        reliability["pack_failures"] = getattr(self.registry, "pack_failures", 0)
        if self.brownout is not None:
            reliability["brownout"] = self.brownout.snapshot()
        document["reliability"] = reliability
        document["kernel"] = self.kernel_document()
        document["planner"] = self.planner_document()
        document["semcache"] = self.semcache_document()
        document["process"] = {"gc": gc_document()}
        if self.workers_view is not None:
            try:
                document["workers"] = self.workers_view()
            except Exception:  # pragma: no cover - defensive
                pass
        return document

    def kernel_document(self) -> Dict[str, Any]:
        """Aggregate compiled-kernel counters across the registry.

        Defensive by design: a synopsis that fails to load (or a system
        without a kernel) contributes nothing rather than failing the
        whole ``/metrics`` response.
        """
        totals: Dict[str, Any] = {
            "synopses": 0,
            "active": 0,
            "joins": 0,
            "fallbacks": 0,
            "tag_tables": 0,
            "pairs": 0,
            "plans": 0,
            "memo_entries": 0,
            "build_ms": 0.0,
            "hits": self.metrics.counter("kernel_hits_total"),
            "misses": self.metrics.counter("kernel_misses_total"),
            "packed": 0,
            "pack_hits": 0,
            "pack_misses": 0,
        }
        names = getattr(self.registry, "names", lambda: [])()
        for name in names:
            try:
                system = self.registry.get(name).system
                kernel_of = getattr(system, "kernel", None)
                if kernel_of is None:
                    continue
                totals["synopses"] += 1
                kernel = kernel_of()
                if kernel is None:
                    continue
                stats = kernel.stats()
                if system.kernel_active():
                    totals["active"] += 1
                for key in (
                    "joins", "fallbacks", "tag_tables", "pairs",
                    "plans", "memo_entries",
                ):
                    totals[key] += stats[key]
                totals["build_ms"] += stats["build_ms"]
                if stats.get("packed"):
                    totals["packed"] += 1
                totals["pack_hits"] += stats.get("pack_hits", 0)
                totals["pack_misses"] += stats.get("pack_misses", 0)
            except Exception:  # pragma: no cover - defensive
                continue
        totals["build_ms"] = round(totals["build_ms"], 3)
        return totals

    def semcache_document(self) -> Dict[str, Any]:
        """Aggregate semantic-result-cache counters across the registry.

        Sums each served system's :class:`~repro.semcache.SemCacheStats`
        (``generation`` takes the maximum — it is a per-cache invalidation
        stamp, not a fleet total); same defensive posture as
        :meth:`kernel_document`.  ``served_hits``/``served_misses`` are
        the service-level counters (they include within-batch CSE hits,
        which never reach the per-system caches).
        """
        totals: Dict[str, Any] = {
            "synopses": 0,
            "capacity": 0,
            "size": 0,
            "generation": 0,
            "hits": 0,
            "misses": 0,
            "admissions": 0,
            "rejections": 0,
            "evictions": 0,
            "expirations": 0,
            "served_hits": self.metrics.counter("semcache_hits_total"),
            "served_misses": self.metrics.counter("semcache_misses_total"),
        }
        names = getattr(self.registry, "names", lambda: [])()
        for name in names:
            try:
                cache = getattr(self.registry.get(name).system, "semcache", None)
                if cache is None:
                    continue
                stats = cache.stats()
                totals["synopses"] += 1
                for key in (
                    "capacity", "size", "hits", "misses", "admissions",
                    "rejections", "evictions", "expirations",
                ):
                    totals[key] += getattr(stats, key)
                if stats.generation > totals["generation"]:
                    totals["generation"] = stats.generation
            except Exception:  # pragma: no cover - defensive
                continue
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    def planner_document(self) -> Dict[str, Any]:
        """Aggregate cost-based planner counters across the registry.

        Sums each system's :class:`~repro.plan.ir.PlannerStats` snapshot
        (``max_drift`` takes the maximum); same defensive posture as
        :meth:`kernel_document` — a synopsis that fails to load
        contributes nothing.
        """
        totals: Dict[str, Any] = {
            "plans": 0,
            "executions": 0,
            "naive_plans": 0,
            "reordered_plans": 0,
            "replans": 0,
            "replanned_executions": 0,
            "max_drift": 0.0,
            "explains": self.metrics.counter("explains_total"),
            "served_executions": self.metrics.counter("executions_total"),
        }
        names = getattr(self.registry, "names", lambda: [])()
        for name in names:
            try:
                stats = getattr(
                    self.registry.get(name).system, "planner_stats", None
                )
                if stats is None:
                    continue
                snap = stats.snapshot()
                for key in (
                    "plans", "executions", "naive_plans", "reordered_plans",
                    "replans", "replanned_executions",
                ):
                    totals[key] += snap[key]
                if snap["max_drift"] > totals["max_drift"]:
                    totals["max_drift"] = snap["max_drift"]
            except Exception:  # pragma: no cover - defensive
                continue
        return totals

    def metrics_prom(self) -> str:
        """Prometheus text exposition of the same registry, enriched with
        point-in-time gauges (plan cache, admission gate, registry)."""
        cache = self.plan_cache.stats()
        gate = self.gate.stats()
        kernel = self.kernel_document()
        planner = self.planner_document()
        semcache = self.semcache_document()
        extra = {
            "semcache_hits": semcache["hits"],
            "semcache_misses": semcache["misses"],
            "semcache_admissions": semcache["admissions"],
            "semcache_evictions": semcache["evictions"],
            "semcache_size": semcache["size"],
            "semcache_generation": semcache["generation"],
            "planner_plans_total": planner["plans"],
            "planner_executions_total": planner["executions"],
            "planner_replans_total": planner["replans"],
            "planner_reordered_plans_total": planner["reordered_plans"],
            "planner_max_drift": planner["max_drift"],
            "plan_cache_hits": cache.hits,
            "plan_cache_misses": cache.misses,
            "plan_cache_size": cache.size,
            "plan_cache_evictions": cache.evictions,
            "inflight_requests": gate["inflight"],
            "shed_requests_total": gate["shed_total"],
            "reload_failures_total": getattr(self.registry, "reload_failures", 0),
            "kernel_joins_total": kernel["joins"],
            "kernel_fallbacks_total": kernel["fallbacks"],
            "kernel_active_synopses": kernel["active"],
            "kernel_build_ms_total": kernel["build_ms"],
        }
        if self.brownout is not None:
            extra["brownout_level"] = self.brownout.level
        return self.metrics.render_prom(extra)

    def slowlog_document(self, limit: Optional[int] = None) -> Dict[str, Any]:
        return self.slow_log.snapshot(limit)


def _make_handler(
    service: EstimationService, read_deadline_s: Optional[float] = None
) -> type:
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-estimation-service"
        protocol_version = "HTTP/1.1"
        # Sub-millisecond replies must not sit behind Nagle waiting for
        # the client's delayed ACK.
        disable_nagle_algorithm = True
        # Per-connection socket deadline (socketserver applies it via
        # settimeout): a slow-loris client stalling on the request line
        # is silently disconnected by handle_one_request's own
        # socket.timeout handling; stalls inside the body are mapped to
        # 408 in _read_json below.
        timeout = read_deadline_s

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging would swamp pytest output

        # -- plumbing --------------------------------------------------

        def _reply(
            self,
            status: int,
            body: Dict[str, Any],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _reply_text(self, status: int, text: str, content_type: str) -> None:
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _read_json(self) -> Any:
            length = int(self.headers.get("Content-Length", 0) or 0)
            try:
                raw = self.rfile.read(length) if length else b""
            except socket.timeout:
                # The client trickled its body past the read deadline:
                # reply 408 and drop the connection (the unread bytes
                # make it unusable for keep-alive anyway).
                self.close_connection = True
                raise RequestError(
                    408,
                    "timed out reading request body (read deadline %gs)"
                    % (read_deadline_s or 0.0),
                    "read_timeout",
                )
            if not raw:
                raise RequestError(400, "empty request body")
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise RequestError(400, "invalid JSON body: %s" % error)

        def _drain_body(self) -> None:
            """Consume the unread request body so a keep-alive client can
            reuse the connection (leftover bytes would be misparsed as
            the next request line)."""
            length = int(self.headers.get("Content-Length", 0) or 0)
            if not length:
                return
            try:
                self.rfile.read(length)
            except socket.timeout:
                self.close_connection = True

        # -- endpoints -------------------------------------------------

        def do_GET(self) -> None:
            try:
                parts = urlsplit(self.path)
                params = parse_qs(parts.query)
                if parts.path == "/healthz":
                    self._reply(200, service.healthz())
                elif parts.path == "/synopses":
                    self._reply(200, service.synopses())
                elif parts.path == "/metrics":
                    if params.get("format", [""])[0] == "prom":
                        self._reply_text(200, service.metrics_prom(), PROM_CONTENT_TYPE)
                    else:
                        self._reply(200, service.metrics_document())
                elif parts.path == "/debug/slowlog":
                    limit: Optional[int] = None
                    if "limit" in params:
                        try:
                            limit = int(params["limit"][0])
                        except ValueError:
                            raise RequestError(400, "'limit' must be an integer")
                    self._reply(200, service.slowlog_document(limit))
                else:
                    self._reply(
                        404, error_body("not_found", "no such endpoint %r" % self.path)
                    )
            except RequestError as error:
                self._reply(error.status, error_body(error.kind, str(error)))
            except Exception as error:  # pragma: no cover - defensive
                self._reply(500, error_body("internal", "internal error: %s" % error))

        def do_POST(self) -> None:
            try:
                if self.path == "/delta":
                    # Delta uploads mutate the registry, not the estimate
                    # path: they bypass the admission gate (registry's own
                    # lock serialises them) so an overloaded estimator can
                    # still be caught up.
                    self._reply(200, service.handle_delta(self._read_json()))
                    return
                if self.path != "/estimate":
                    self._reply(
                        404, error_body("not_found", "no such endpoint %r" % self.path)
                    )
                    return
                # Admission first: an overloaded (or draining) server
                # sheds with 503 + Retry-After instead of queueing the
                # request behind work it cannot finish in time.  With a
                # tiered gate, an X-Repro-Tier header selects the lane
                # before the body is read (a shed costs no parsing);
                # without one the body's "tier" field / request shape
                # decides, so the body is read first.
                payload: Any = None
                tier: Optional[str] = None
                header_tier = self.headers.get("X-Repro-Tier")
                if service.tiered and not header_tier:
                    payload = self._read_json()
                try:
                    tier = service.select_tier(payload, header=header_tier)
                except RequestError:
                    if payload is None:
                        self._drain_body()
                    raise
                try:
                    service.admit(tier)
                except OverloadedError as error:
                    if payload is None:
                        self._drain_body()
                    service.metrics.incr("shed_total")
                    if error.reason == "brownout":
                        service.metrics.incr("brownout_shed_total")
                    self._reply(
                        503,
                        error_body(
                            error.kind,
                            str(error),
                            tier=error.tier,
                            reason=error.reason,
                        ),
                        headers={"Retry-After": "%g" % error.retry_after_s},
                    )
                    return
                try:
                    if payload is None:
                        payload = self._read_json()
                    self._reply(200, service.handle_estimate(payload, tier=tier))
                finally:
                    service.release(tier)
            except RequestError as error:
                headers = (
                    {"Retry-After": "%g" % error.retry_after_s}
                    if error.retry_after_s is not None
                    else None
                )
                self._reply(
                    error.status, error_body(error.kind, str(error)), headers=headers
                )
            except Exception as error:  # pragma: no cover - defensive
                self._reply(500, error_body("internal", "internal error: %s" % error))

    return Handler


class ServiceServer:
    """A running (threaded) HTTP server around an :class:`EstimationService`.

    ``port=0`` binds an ephemeral port; read it back from ``.port``.
    Usable as a context manager::

        with ServiceServer(service, port=0) as server:
            client = EndpointClient(port=server.port)
            ...
    """

    def __init__(
        self,
        service: EstimationService,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        reuse_port: bool = False,
        read_deadline_s: Optional[float] = None,
    ):
        self.service = service
        # Bind deferred so SO_REUSEPORT can be set first: the pre-fork
        # worker pool binds N processes to the same (host, port) and the
        # kernel load-balances accepted connections across them.
        self.httpd = ThreadingHTTPServer(
            (host, port),
            _make_handler(service, read_deadline_s=read_deadline_s),
            bind_and_activate=False,
        )
        self.httpd.daemon_threads = True
        try:
            if reuse_port:
                self.httpd.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
            self.httpd.server_bind()
            self.httpd.server_activate()
        except BaseException:
            self.httpd.server_close()
            raise
        self.host, self.port = self.httpd.server_address[0], self.httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "ServiceServer":
        """Serve in a background daemon thread (tests, benchmarks)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self.httpd.serve_forever()

    def close(self, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown: stop admitting, drain in-flight estimates,
        then tear the listener down.

        New ``POST /estimate`` requests are shed (503) the moment the
        gate closes; requests already executing get up to
        ``drain_timeout_s`` to finish and write their responses.
        """
        self.service.gate.close()
        self.httpd.shutdown()
        self.service.gate.drain(drain_timeout_s)
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
