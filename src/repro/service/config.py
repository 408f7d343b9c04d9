"""Typed configuration for the estimation service and its client.

The server/client tuning knobs used to travel as long positional
parameter lists; they are now grouped into frozen dataclasses so a
config can be built once (by the CLI, a test harness, or an embedding
application) and handed to :func:`repro.service.serve` or
:class:`repro.service.EndpointClient` as a single value.  Every field has
the historical default, so ``ServerConfig()`` reproduces the pre-config
behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

DEFAULT_PORT = 8750

#: Per-connection socket read deadline of the serving daemons, seconds
#: (``repro serve``, its pool workers and control port, ``repro router``).
DEFAULT_READ_DEADLINE_S = 30.0

#: Collector thresholds that the serving daemons (``repro serve`` and
#: each pool worker) set once, after their registry scan.  A cold
#: estimate's working state outlives the interpreter's 700-allocation
#: young generation, so at the default every few dozen cold batches end
#: in a full collection that walks the whole heap; a 20 000-allocation
#: young generation lets that state die young.  Library constructors
#: and :meth:`ServiceServer.start` leave the interpreter defaults alone.
SERVING_GC_THRESHOLD = (20_000, 10, 10)


@dataclass(frozen=True)
class ServerConfig:
    """Tuning for :func:`repro.service.serve` / the ``repro serve`` CLI."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    plan_cache_capacity: int = 512
    #: Semantic result cache (repro.semcache) ring size per served
    #: synopsis; 0 disables result caching (plans still cache).
    semcache_capacity: int = 4096
    #: Optional TTL for semantic-cache entries, seconds (None = entries
    #: live until the next generation bump or LRU eviction).
    semcache_ttl_s: Optional[float] = None
    reload_interval_s: float = 2.0
    max_inflight: int = 64
    request_deadline_s: Optional[float] = None
    drain_timeout_s: float = 5.0
    # QoS tiers -------------------------------------------------------
    #: Tiered admission (``interactive`` / ``standard`` / ``bulk``
    #: priority lanes over the ``max_inflight`` pool).  Off = the flat
    #: single-lane :class:`~repro.reliability.shedding.AdmissionGate`.
    qos: bool = True
    #: Bulk lane in-flight cap (None = ``max_inflight // 4``).
    bulk_max_inflight: Optional[int] = None
    #: Bounded-wait queue depth for the standard lane (mid-tier work
    #: queues briefly instead of getting an instant 503).
    standard_queue: int = 32
    # Brownout --------------------------------------------------------
    #: Staged degradation under sustained overload: shed tracing and
    #: slow-query logging first, then bulk admission.  Only meaningful
    #: with ``qos`` on.
    brownout: bool = True
    brownout_window_s: float = 5.0
    brownout_enter_threshold: float = 0.10
    brownout_escalate_threshold: float = 0.30
    brownout_exit_threshold: float = 0.02
    brownout_dwell_s: float = 1.0
    brownout_cooloff_s: float = 3.0
    # Connection hygiene ----------------------------------------------
    #: Socket read deadline per connection, seconds: a client that trickles
    #: its request (slow-loris) or idles past this is disconnected instead
    #: of pinning a handler thread.  ``None`` disables.
    read_deadline_s: Optional[float] = DEFAULT_READ_DEADLINE_S
    # Worker pool ----------------------------------------------------
    #: Pre-forked ``SO_REUSEPORT`` worker processes (1 = classic
    #: single-process serving; N > 1 needs fork + SO_REUSEPORT).
    workers: int = 1
    #: Supervisor control-plane port for ``workers > 1`` (aggregated
    #: /metrics, /healthz, POST /reload); 0 binds an ephemeral port,
    #: None disables the control server.
    control_port: Optional[int] = 0
    # Observability --------------------------------------------------
    trace_sample_rate: float = 0.0
    slowlog_capacity: int = 256
    slowlog_threshold_ms: float = 0.0
    slowlog_top_k: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")
        if self.plan_cache_capacity < 0:
            raise ValueError("plan_cache_capacity must be >= 0")
        if self.semcache_capacity < 0:
            raise ValueError("semcache_capacity must be >= 0")
        if self.semcache_ttl_s is not None and self.semcache_ttl_s <= 0:
            raise ValueError("semcache_ttl_s must be > 0 (or None)")
        if self.slowlog_capacity <= 0:
            raise ValueError("slowlog_capacity must be > 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.standard_queue < 0:
            raise ValueError("standard_queue must be >= 0")
        if self.bulk_max_inflight is not None and self.bulk_max_inflight < 1:
            raise ValueError("bulk_max_inflight must be >= 1")
        if self.read_deadline_s is not None and self.read_deadline_s <= 0:
            raise ValueError("read_deadline_s must be > 0 (or None)")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ClientConfig:
    """Tuning for :class:`repro.service.EndpointClient` and
    :func:`repro.connect`."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    timeout: float = 30.0
    keep_alive: bool = True
    retry_budget_s: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
