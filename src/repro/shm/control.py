"""Parent-side control plane for the worker pool.

The pool's data path is worker-only (the parent never accepts on the
served port), so operations need a separate, tiny HTTP surface owned by
the supervisor:

``GET /healthz``
    Pool liveness and convergence: worker count, per-worker
    ``{pid, generation, alive}`` from the slab heartbeats, the current
    reload generation, restart count and whether every live worker has
    remapped to the latest generation (``converged``).  Status is
    ``"ok"`` when all workers are alive and converged, ``"degraded"``
    otherwise — the endpoint itself stays 200 (the pool *is* serving).
``GET /metrics``
    The aggregated pool document straight from the shared-memory arena:
    totals (true pool-wide latency percentiles from merged histogram
    buckets) plus the per-worker breakdown under ``workers.per_worker``.
    ``?format=prom`` renders the same numbers as Prometheus text
    exposition (format 0.0.4), labelled per worker.
``POST /reload``
    Stage fresh kernelpacks and bump the reload generation (the same
    operation ``SIGHUP`` triggers on the CLI supervisor).  Replies with
    the new generation and per-snapshot staging status; workers remap
    asynchronously — poll ``/healthz`` for ``converged``.

Everything here reads shared memory only; no request ever crosses into
a worker, so the control plane stays responsive while workers are
saturated.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.service.front import Front, Route
from repro.shm.pool import WorkerPool
from repro.shm.slab import LATENCY_BUCKET_BOUNDS_US

__all__ = ["ControlServer", "pool_health", "pool_metrics", "render_pool_prom"]


def pool_health(pool: WorkerPool) -> Dict[str, Any]:
    """The control ``/healthz`` document (also used by the CLI banner)."""
    workers = pool.liveness()
    converged = pool.reload_converged()
    alive = sum(1 for worker in workers if worker["alive"])
    healthy = alive == pool.workers and converged
    return {
        "status": "ok" if healthy else "degraded",
        "role": "pool-supervisor",
        "workers": pool.workers,
        "alive": alive,
        "converged": converged,
        "reload_generation": pool.arena.reload_generation if pool.arena else 0,
        "restarts": pool.restarts_total,
        "per_worker": workers,
    }


def pool_metrics(pool: WorkerPool) -> Dict[str, Any]:
    """The aggregated ``/metrics`` document: arena totals + breakdown."""
    if pool.arena is None:
        return {"workers": {"count": 0, "totals": {}, "per_worker": []}}
    document = pool.describe()
    document["workers"] = pool.arena.aggregate()
    return document


def render_pool_prom(pool: WorkerPool) -> str:
    """Prometheus exposition of the aggregated pool metrics."""
    lines = []

    def emit(name: str, value, help_text: str, labels: str = "") -> None:
        if not any(line.startswith("# HELP %s " % name) for line in lines):
            lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s gauge" % name)
        lines.append("%s%s %g" % (name, labels, value))

    emit("repro_pool_workers", pool.workers, "Configured worker count.")
    emit("repro_pool_restarts_total", pool.restarts_total,
         "Crashed-worker respawns since pool start.")
    if pool.arena is None:
        return "\n".join(lines) + "\n"
    aggregate = pool.arena.aggregate()
    emit("repro_pool_reload_generation", aggregate["reload_generation"],
         "Current hot-reload generation.")
    totals = aggregate["totals"]
    for field in sorted(totals):
        if field in ("latency_ms", "latency_count", "latency_sum_us"):
            continue
        emit("repro_pool_%s_total" % field, totals[field],
             "Pool-wide %s across worker slabs." % field.replace("_", " "))
    latency = totals["latency_ms"]
    for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
        emit(
            "repro_pool_latency_ms",
            latency[key],
            "Pool-wide request latency quantiles (merged histogram, "
            "bucket bounds up to %dus)." % LATENCY_BUCKET_BOUNDS_US[-1],
            '{quantile="%s"}' % quantile,
        )
    for worker in aggregate["per_worker"]:
        emit(
            "repro_pool_worker_requests_total",
            worker["requests"],
            "Requests handled per worker.",
            '{worker="%d"}' % worker["worker"],
        )
        emit(
            "repro_pool_worker_generation",
            worker["generation"],
            "Reload generation each worker serves.",
            '{worker="%d"}' % worker["worker"],
        )
    return "\n".join(lines) + "\n"


def _routes(pool: WorkerPool) -> Dict[Tuple[str, str], Route]:
    def metrics(request) -> Any:
        if request.params.get("format", [""])[0] == "prom":
            return 200, render_pool_prom(pool), None
        return 200, pool_metrics(pool), None

    def reload(request) -> Any:
        request.read_body()  # unused, but a stalled body is a 408, not a reload
        return 200, pool.reload(), None

    return {
        ("GET", "/healthz"): lambda request: (200, pool_health(pool), None),
        ("GET", "/metrics"): metrics,
        ("POST", "/reload"): reload,
    }


class ControlServer(Front):
    """The supervisor's HTTP server; binds its own (non-balanced) port."""

    def __init__(
        self,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        read_deadline_s: Optional[float] = None,
    ):
        self.pool = pool
        super().__init__(
            _routes(pool),
            host,
            port,
            name="repro-pool-control",
            read_deadline_s=read_deadline_s,
        )
