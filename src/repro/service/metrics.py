"""Service metrics: counters, latency percentiles, per-synopsis QPS.

Follows the conventions of :mod:`repro.harness.metrics` (a frozen
dataclass summary built from a sample sequence, percentile index
``min(n-1, int(q*n))`` over the sorted samples) but observes *request
latencies* instead of relative errors, and keeps only a bounded ring of
recent samples so a long-lived server stays O(1) in memory.

The counters behind :class:`ServiceMetrics` live in a typed
:class:`repro.obs.registry.MetricsRegistry` (counter / gauge / histogram
families) instead of ad-hoc dicts; the same registry renders both the
legacy JSON document (``GET /metrics``, shape unchanged) and Prometheus
text exposition (``GET /metrics?format=prom``).  The latency *ring*
stays alongside the registry's fixed-bucket histogram because precise
p50/p95/p99 need raw recent samples, not bucket bounds.

Everything is thread-safe; the HTTP handler threads call ``observe`` and
``GET /metrics`` renders ``snapshot()``.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

DEFAULT_RING_CAPACITY = 4096
DEFAULT_QPS_WINDOW = 30.0

# Serializes the catch-up of the process-wide collector counters into a
# registry, so two concurrent scrapes cannot both add the same delta.
_GC_SYNC_LOCK = threading.Lock()


def gc_document() -> Dict[str, object]:
    """The ``process.gc`` block of ``GET /metrics``: this process's
    per-generation collector counters and its thresholds.

    ``generations[2].collections`` climbing under cold traffic means
    full-heap collections, each a stall as long as the heap is large.
    """
    return {
        "generations": [
            {
                "collections": stats["collections"],
                "collected": stats["collected"],
                "uncollectable": stats["uncollectable"],
            }
            for stats in gc.get_stats()
        ],
        "threshold": list(gc.get_threshold()),
    }


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Same index convention as harness.metrics.ErrorSummary.p90."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass(frozen=True)
class LatencySummary:
    """Distribution summary of request latencies, in milliseconds."""

    count: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, seconds: Sequence[float]) -> "LatencySummary":
        if not seconds:
            return cls(0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(value * 1000.0 for value in seconds)
        return cls(
            count=len(ordered),
            p50_ms=_percentile(ordered, 0.50),
            p95_ms=_percentile(ordered, 0.95),
            p99_ms=_percentile(ordered, 0.99),
            max_ms=ordered[-1],
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }

    def __str__(self) -> str:
        return "n=%d p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms" % (
            self.count,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
        )


class LatencyRing:
    """Bounded ring of the most recent latency samples (seconds)."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY):
        self._samples: "deque[float]" = deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def summary(self) -> LatencySummary:
        with self._lock:
            samples = list(self._samples)
        return LatencySummary.from_samples(samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class ServiceMetrics:
    """Aggregated serving metrics, rendered by ``GET /metrics``.

    One ``observe`` per HTTP estimate request; ``queries`` counts the
    individual estimates inside it (a batch of 10 is one request, ten
    queries).  QPS is requests over a sliding ``qps_window`` seconds.

    All counters live as typed families in ``self.registry`` (a
    :class:`~repro.obs.registry.MetricsRegistry`, created per instance
    unless one is shared in), so the same numbers back the JSON document
    and the Prometheus exposition.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        qps_window: float = DEFAULT_QPS_WINDOW,
        registry: Optional[MetricsRegistry] = None,
    ):
        self._clock = clock
        self._started = clock()
        self._qps_window = qps_window
        self._lock = threading.Lock()  # guards the QPS stamp windows
        self._ring = LatencyRing(ring_capacity)
        self.registry = registry if registry is not None else MetricsRegistry()
        make = self.registry
        self._requests = make.counter(
            "repro_requests_total", "Estimate requests handled."
        )
        self._queries = make.counter(
            "repro_queries_total", "Individual query estimates served."
        )
        self._errors = make.counter(
            "repro_errors_total", "Failed estimate requests."
        )
        self._events = make.counter(
            "repro_events_total",
            "Named service events (shed, deadline exceeded, reload, ...).",
            labels=("event",),
        )
        self._latency = make.histogram(
            "repro_request_latency_seconds",
            "Estimate request latency.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._syn_requests = make.counter(
            "repro_synopsis_requests_total",
            "Estimate requests per synopsis.",
            labels=("synopsis",),
        )
        self._syn_queries = make.counter(
            "repro_synopsis_queries_total",
            "Query estimates per synopsis.",
            labels=("synopsis",),
        )
        self._syn_errors = make.counter(
            "repro_synopsis_errors_total",
            "Failed requests per synopsis.",
            labels=("synopsis",),
        )
        self._uptime = make.gauge(
            "repro_uptime_seconds", "Seconds since service start."
        )
        self._tier_requests = make.counter(
            "repro_tier_requests_total",
            "Estimate requests admitted per QoS tier.",
            labels=("tier",),
        )
        self._tier_shed = make.counter(
            "repro_tier_shed_total",
            "Estimate requests shed per QoS tier.",
            labels=("tier",),
        )
        self._gc_collections = make.counter(
            "repro_gc_collections_total",
            "Garbage collections run by this process, per generation.",
            labels=("generation",),
        )
        self._tier_rings: Dict[str, LatencyRing] = {}
        self._ring_capacity = ring_capacity
        self._stamps: Dict[str, "deque[float]"] = {}

    # ------------------------------------------------------------------

    def observe(
        self,
        synopsis: Optional[str],
        latency_s: float,
        queries: int = 1,
        error: bool = False,
    ) -> None:
        """Record one estimate request against ``synopsis`` (None when the
        request failed before a synopsis was resolved)."""
        now = self._clock()
        self._ring.observe(latency_s)
        self._latency.observe(latency_s)
        self._requests.inc()
        self._queries.inc(queries)
        if error:
            self._errors.inc()
        if synopsis is not None:
            self._syn_requests.labels(synopsis=synopsis).inc()
            self._syn_queries.labels(synopsis=synopsis).inc(queries)
            if error:
                self._syn_errors.labels(synopsis=synopsis).inc()
            with self._lock:
                stamps = self._stamps.setdefault(synopsis, deque())
                stamps.append(now)
                self._trim_window(stamps, now)

    def observe_tier(
        self,
        tier: str,
        latency_s: Optional[float] = None,
        shed: bool = False,
    ) -> None:
        """Record one admission outcome for a QoS ``tier``: a shed
        (``shed=True``), or a served request with its latency."""
        if shed:
            self._tier_shed.labels(tier=tier).inc()
            return
        self._tier_requests.labels(tier=tier).inc()
        if latency_s is not None:
            with self._lock:
                ring = self._tier_rings.get(tier)
                if ring is None:
                    ring = self._tier_rings[tier] = LatencyRing(self._ring_capacity)
            ring.observe(latency_s)

    def incr(self, name: str, delta: int = 1) -> None:
        """Bump a named reliability counter (``shed_total``,
        ``deadline_exceeded_total``, ``reload_failures``, ...); rendered
        under ``counters`` in the metrics document and as
        ``repro_events_total{event=...}`` in the Prometheus exposition."""
        self._events.labels(event=name).inc(delta)

    def counter(self, name: str) -> int:
        return int(self._events.labels(event=name).value)

    def _trim_window(self, stamps: "deque[float]", now: float) -> None:
        horizon = now - self._qps_window
        while stamps and stamps[0] < horizon:
            stamps.popleft()

    # ------------------------------------------------------------------

    def latency(self) -> LatencySummary:
        return self._ring.summary()

    def snapshot(self, plan_cache_stats: Optional[object] = None) -> Dict[str, object]:
        """A JSON-ready metrics document (shape pinned by the tests)."""
        now = self._clock()
        counters = {
            labels["event"]: int(child.value)
            for labels, child in self._events.children()
        }
        per_request = {
            labels["synopsis"]: int(child.value)
            for labels, child in self._syn_requests.children()
        }
        per_queries = {
            labels["synopsis"]: int(child.value)
            for labels, child in self._syn_queries.children()
        }
        per_errors = {
            labels["synopsis"]: int(child.value)
            for labels, child in self._syn_errors.children()
        }
        with self._lock:
            per_synopsis: Dict[str, object] = {}
            window = min(self._qps_window, max(now - self._started, 1e-9))
            for name in sorted(per_request):
                stamps = self._stamps.get(name, deque())
                self._trim_window(stamps, now)
                per_synopsis[name] = {
                    "requests": per_request.get(name, 0),
                    "queries": per_queries.get(name, 0),
                    "errors": per_errors.get(name, 0),
                    "qps": len(stamps) / window,
                }
        payload: Dict[str, object] = {
            "uptime_s": now - self._started,
            "requests_total": int(self._requests.value),
            "queries_total": int(self._queries.value),
            "errors_total": int(self._errors.value),
            "counters": counters,
            "latency_ms": self.latency().as_dict(),
            "synopses": per_synopsis,
        }
        tiers = self._tier_snapshot()
        if tiers:
            payload["tiers"] = tiers
        if plan_cache_stats is not None:
            payload["plan_cache"] = (
                plan_cache_stats.as_dict()
                if hasattr(plan_cache_stats, "as_dict")
                else plan_cache_stats
            )
        return payload

    def _tier_snapshot(self) -> Dict[str, object]:
        """Per-tier admitted/shed counts and latency summaries (empty
        when no tiered traffic has been observed)."""
        admitted = {
            labels["tier"]: int(child.value)
            for labels, child in self._tier_requests.children()
        }
        shed = {
            labels["tier"]: int(child.value)
            for labels, child in self._tier_shed.children()
        }
        with self._lock:
            rings = dict(self._tier_rings)
        tiers: Dict[str, object] = {}
        for name in sorted(set(admitted) | set(shed)):
            ring = rings.get(name)
            tiers[name] = {
                "requests": admitted.get(name, 0),
                "shed": shed.get(name, 0),
                "latency_ms": (
                    ring.summary().as_dict()
                    if ring is not None
                    else LatencySummary.from_samples(()).as_dict()
                ),
            }
        return tiers

    def render_prom(self, extra_values: Optional[Dict[str, float]] = None) -> str:
        """Prometheus text exposition (format 0.0.4) of the registry.

        ``extra_values`` publishes point-in-time numbers (plan-cache
        stats, in-flight gauge) as ``repro_<key>`` gauges before
        rendering; ``repro_gc_collections_total`` is brought up to the
        collector's own counts first.
        """
        self._uptime.set(self._clock() - self._started)
        with _GC_SYNC_LOCK:
            for generation, stats in enumerate(gc.get_stats()):
                child = self._gc_collections.labels(generation=str(generation))
                child.inc(max(0, stats["collections"] - child.value))
        for key, value in (extra_values or {}).items():
            gauge = self.registry.gauge(
                "repro_%s" % key, "Point-in-time service value."
            )
            gauge.set(float(value))
        return self.registry.render_prom()
