"""Estimation service: a long-lived synopsis-serving daemon.

The paper's deployment story is that a compact synopsis replaces the
document at optimization time — summaries are built once and shipped to
query optimizers.  This package is that shipping lane, stdlib only:

* :mod:`repro.service.registry` — loads persisted synopses from a
  snapshot directory, hot-reloads them when the files change, and hosts
  *live* synopses maintained in place under appends
  (:mod:`repro.stats.maintenance`);
* :mod:`repro.service.plancache` — an LRU of compiled plans (parsed AST,
  chosen estimation route, scoped-axis rewrite variants, memoized
  estimate) so hot queries skip parsing and routing entirely;
* :mod:`repro.service.metrics` — registry-backed request/error counters,
  a latency ring buffer with p50/p95/p99, per-synopsis QPS and both JSON
  and Prometheus exposition;
* :mod:`repro.service.config` — frozen :class:`ServerConfig` /
  :class:`ClientConfig` dataclasses grouping the tuning knobs;
* :mod:`repro.service.server` — a threaded JSON-over-HTTP front end
  (``POST /estimate`` with per-request tracing, ``GET /synopses``,
  ``GET /healthz``, ``GET /metrics[?format=prom]``,
  ``GET /debug/slowlog``);
* :mod:`repro.service.client` — a small blocking client for one such
  endpoint (:class:`EndpointClient`; the cluster-aware front door is
  :func:`repro.connect`).

Run one with ``python -m repro serve --snapshot-dir <dir>`` after writing
snapshots with ``python -m repro snapshot``, or in-process::

    from repro.service import ServerConfig, serve
    server = serve(snapshot_dir, config=ServerConfig(port=0))

For multi-core serving, ``repro serve --workers N`` (or
:func:`serve_pool`) runs the :mod:`repro.shm` pre-fork pool instead: the
supervisor stages mmap-able kernelpacks once and N ``SO_REUSEPORT``
worker processes serve them zero-copy.
"""

from typing import Optional

from repro.obs.slowlog import SlowQueryLog
from repro.reliability.brownout import BrownoutController
from repro.reliability.shedding import (
    AdmissionGate,
    TieredAdmissionGate,
    default_tiers,
)
from repro.service.client import EndpointClient, ServiceError
from repro.service.config import DEFAULT_PORT, ClientConfig, ServerConfig
from repro.service.metrics import LatencySummary, ServiceMetrics
from repro.service.plancache import CompiledPlan, PlanCache, compile_plan
from repro.service.registry import (
    LiveSynopsis,
    SynopsisEntry,
    SynopsisRegistry,
    UnknownSynopsisError,
)
from repro.service.server import EstimationService, ServiceServer


def serve(
    snapshot_dir: str,
    *,
    config: Optional[ServerConfig] = None,
    registry: Optional[SynopsisRegistry] = None,
) -> ServiceServer:
    """Assemble a fully wired, **not yet started** service server.

    One :class:`ServerConfig` drives registry, plan cache, admission
    gate, slow-query log and trace sampling; call ``.start()`` (tests)
    or ``.serve_forever()`` (daemons) on the returned server.
    """
    cfg = config if config is not None else ServerConfig()
    if registry is None:
        registry = SynopsisRegistry(
            snapshot_dir, check_interval=cfg.reload_interval_s
        )
    if cfg.qos:
        gate = TieredAdmissionGate(
            tiers=default_tiers(
                cfg.max_inflight,
                bulk_max_inflight=cfg.bulk_max_inflight,
                standard_queue=cfg.standard_queue,
                request_deadline_s=cfg.request_deadline_s,
            ),
            max_total=cfg.max_inflight,
        )
        brownout = (
            BrownoutController(
                window_s=cfg.brownout_window_s,
                enter_threshold=cfg.brownout_enter_threshold,
                escalate_threshold=cfg.brownout_escalate_threshold,
                exit_threshold=cfg.brownout_exit_threshold,
                dwell_s=cfg.brownout_dwell_s,
                cooloff_s=cfg.brownout_cooloff_s,
            )
            if cfg.brownout
            else None
        )
    else:
        gate = AdmissionGate(max_inflight=cfg.max_inflight)
        brownout = None
    service = EstimationService(
        registry,
        plan_cache=PlanCache(cfg.plan_cache_capacity),
        gate=gate,
        semcache_capacity=cfg.semcache_capacity,
        semcache_ttl_s=cfg.semcache_ttl_s,
        request_deadline_s=cfg.request_deadline_s,
        slow_log=SlowQueryLog(
            capacity=cfg.slowlog_capacity,
            threshold_ms=cfg.slowlog_threshold_ms,
            top_k=cfg.slowlog_top_k,
        ),
        trace_sample_rate=cfg.trace_sample_rate,
        brownout=brownout,
    )
    return ServiceServer(
        service,
        host=cfg.host,
        port=cfg.port,
        read_deadline_s=cfg.read_deadline_s,
    )


def serve_pool(
    snapshot_dir: str,
    *,
    config: Optional[ServerConfig] = None,
):
    """Assemble a **not yet started** pre-fork worker pool (+ control
    server when ``config.control_port`` is set).

    Returns ``(pool, control)`` — call ``pool.start()`` then
    ``control.start()``; ``control`` is ``None`` when disabled.  Requires
    ``config.workers > 1`` support on the platform
    (:func:`repro.shm.pool_supported`).
    """
    from repro.shm import ControlServer, WorkerPool

    cfg = config if config is not None else ServerConfig()
    pool = WorkerPool(snapshot_dir, workers=cfg.workers, config=cfg)
    control = None
    if cfg.control_port is not None:
        control = ControlServer(pool, host=cfg.host, port=cfg.control_port)
    return pool, control


__all__ = [
    "ClientConfig",
    "CompiledPlan",
    "DEFAULT_PORT",
    "EndpointClient",
    "EstimationService",
    "LatencySummary",
    "LiveSynopsis",
    "PlanCache",
    "ServerConfig",
    "ServiceError",
    "ServiceMetrics",
    "ServiceServer",
    "SlowQueryLog",
    "SynopsisEntry",
    "SynopsisRegistry",
    "UnknownSynopsisError",
    "compile_plan",
    "serve",
    "serve_pool",
]
