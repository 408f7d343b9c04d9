"""The ``SO_REUSEPORT`` pre-fork worker pool behind ``repro serve --workers N``.

One GIL-bound process caps the service's QPS no matter how fast the
compiled kernel is.  The classic escape (nginx, unicorn, gunicorn) is
pre-fork with kernel-level load balancing: N processes each ``bind()``
the same ``(host, port)`` with ``SO_REUSEPORT`` and ``listen()``; the
kernel hashes incoming connections across the listening sockets, so no
userspace proxy and no shared accept lock.

The parent process never serves requests.  It:

* **stages kernelpacks** — compiles each eligible ``*.json`` snapshot's
  kernel once and writes ``<name>.kernelpack`` next to it
  (:func:`stage_packs`), so workers mmap instead of recompiling; the
  read-only file-backed mappings share physical pages across workers;
* **reserves the port** — binds (without listening) a ``SO_REUSEPORT``
  socket first, which resolves ``port=0`` to a concrete port for the
  workers and keeps the port claimed across worker restarts;
* **creates the metrics arena** (:class:`~repro.shm.slab.SlabArena`)
  before forking, so every worker inherits the same shared pages;
* **forks and supervises** — each worker signals readiness over a pipe
  once its socket is listening; a crashed worker is reaped and respawned
  with the reliability subsystem's :class:`RetryPolicy` backoff;
* **coordinates hot reload** — :meth:`WorkerPool.reload` restages the
  packs, then bumps the arena's reload generation; each worker's watcher
  thread notices, rescans its registry (which maps the *new* pack — no
  recompilation anywhere) and publishes the generation it now serves in
  its slab, which is how ``/healthz`` proves the remap converged.

Workers are full, independent service processes: own registry, plan
cache, admission gate and slow-query log; their
:class:`~repro.service.metrics.ServiceMetrics` additionally mirror into
the worker's arena slab so the parent can aggregate pool-wide
``/metrics`` without any IPC on the hot path.
"""

from __future__ import annotations

import gc
import os
import select
import signal
import socket
import sys
import threading
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.trace import NULL_TRACER
from repro.persist import PersistError
from repro.reliability.policy import RetryPolicy
from repro.service.config import SERVING_GC_THRESHOLD, ServerConfig
from repro.shm.kernelpack import PACK_SUFFIX, KernelPackError, write_pack
from repro.shm.slab import SlabArena, WorkerSlab

__all__ = ["WorkerPool", "WorkerPoolError", "pool_supported", "stage_packs"]

#: Crashed-worker respawn backoff: effectively unbounded attempts (a
#: worker that keeps dying keeps being retried at the capped interval;
#: giving up would turn one bad request pattern into a dead pool).
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=1_000_000, base_backoff_s=0.1, multiplier=2.0, max_backoff_s=5.0
)

_READY_BYTE = b"R"
_SPAWN_TIMEOUT_S = 60.0


class WorkerPoolError(ReproError):
    """The pool cannot start or operate (platform, bind, worker spawn)."""

    kind = "worker_pool"


def pool_supported() -> bool:
    """True where the pre-fork pool can run: ``os.fork`` plus
    ``SO_REUSEPORT`` (Linux, modern BSDs/macOS).  Elsewhere ``repro
    serve`` falls back to single-process serving."""
    return hasattr(os, "fork") and hasattr(socket, "SO_REUSEPORT")


def stage_packs(
    snapshot_dir: str, force: bool = False, tracer=NULL_TRACER
) -> Dict[str, str]:
    """Write/refresh ``<name>.kernelpack`` beside every eligible
    ``<name>.json`` snapshot; returns name → ``"staged"`` / ``"fresh"`` /
    ``"skipped: <reason>"``.

    Staleness is by mtime: a pack at least as new as its snapshot is
    left alone unless ``force``.  Ineligible synopses (no compiled-kernel
    support) are skipped — the registry serves their JSON as before.
    Pack writes are atomic, so concurrent readers never see a torn file.
    """
    results: Dict[str, str] = {}
    with tracer.span("stage_packs") as span:
        for filename in sorted(os.listdir(snapshot_dir)):
            if not filename.endswith(".json"):
                continue
            name = filename[: -len(".json")]
            json_path = os.path.join(snapshot_dir, filename)
            pack_path = os.path.join(snapshot_dir, name + PACK_SUFFIX)
            if (
                not force
                and os.path.exists(pack_path)
                and os.stat(pack_path).st_mtime_ns >= os.stat(json_path).st_mtime_ns
            ):
                results[name] = "fresh"
                continue
            try:
                with open(json_path, "r", encoding="utf-8") as handle:
                    text = handle.read()
                size = write_pack(pack_path, synopsis_text=text, name=name)
            except (KernelPackError, PersistError, OSError) as error:
                results[name] = "skipped: %s" % error
                span.incr("skipped")
                continue
            results[name] = "staged"
            span.incr("staged")
            span.incr("bytes", size)
    return results


class _Worker:
    """Parent-side record of one live worker process."""

    __slots__ = ("index", "pid", "restarts")

    def __init__(self, index: int, pid: int, restarts: int = 0):
        self.index = index
        self.pid = pid
        self.restarts = restarts


class WorkerPool:
    """Parent supervisor for N pre-forked ``SO_REUSEPORT`` workers.

    ::

        pool = WorkerPool("snapshots/", workers=4, config=ServerConfig(port=0))
        pool.start()            # stage packs, reserve port, fork, wait ready
        ...                     # clients hit http://host:pool.port/
        pool.reload()           # restage packs, remap every worker
        pool.stop()             # SIGTERM, drain, reap

    The pool object lives in the parent only; worker processes never
    return from :meth:`_spawn` (they ``os._exit`` on any exit path, so a
    fork inside pytest can never run the harness's teardown twice).
    """

    def __init__(
        self,
        snapshot_dir: str,
        workers: int,
        config: Optional[ServerConfig] = None,
        restart_policy: Optional[RetryPolicy] = None,
        reload_poll_s: float = 0.2,
        stale_after_s: float = 30.0,
        tracer=NULL_TRACER,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        if workers < 1:
            raise WorkerPoolError("workers must be >= 1, got %d" % workers)
        if not pool_supported():
            raise WorkerPoolError(
                "pre-fork pool needs os.fork and SO_REUSEPORT "
                "(unavailable on this platform); run --workers 1"
            )
        self.snapshot_dir = snapshot_dir
        self.workers = workers
        self.config = config if config is not None else ServerConfig()
        self.restart_policy = (
            restart_policy if restart_policy is not None else DEFAULT_RESTART_POLICY
        )
        self.reload_poll_s = reload_poll_s
        self.stale_after_s = stale_after_s
        self.tracer = tracer
        self._on_event = on_event if on_event is not None else (lambda line: None)
        self.host = self.config.host
        self.port = self.config.port
        self.arena: Optional[SlabArena] = None
        self.restarts_total = 0
        self.pack_status: Dict[str, str] = {}
        self._reserve_sock: Optional[socket.socket] = None
        self._children: Dict[int, _Worker] = {}
        self._backoffs: List[Any] = []
        self._stopping = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle (parent)
    # ------------------------------------------------------------------

    def start(self) -> "WorkerPool":
        with self.tracer.span("pool_start") as span:
            self.pack_status = stage_packs(self.snapshot_dir, tracer=self.tracer)
            self._reserve_port()
            self.arena = SlabArena(self.workers)
            self._backoffs = [self.restart_policy.backoffs() for _ in range(self.workers)]
            try:
                for index in range(self.workers):
                    self._spawn(index)
            except Exception:
                self.stop()
                raise
            span.incr("workers", self.workers)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, drain_timeout_s: Optional[float] = None) -> None:
        """Graceful shutdown: SIGTERM every worker (each sheds new work
        and drains in-flight requests), reap, then SIGKILL stragglers."""
        budget = (
            drain_timeout_s
            if drain_timeout_s is not None
            else self.config.drain_timeout_s + 5.0
        )
        self._stopping.set()
        with self._lock:
            pids = list(self._children)
        for pid in pids:
            _kill_quietly(pid, signal.SIGTERM)
        deadline = _monotonic() + budget
        for pid in pids:
            if not _reap(pid, deadline):
                _kill_quietly(pid, signal.SIGKILL)
                _reap(pid, _monotonic() + 5.0)
            with self._lock:
                self._children.pop(pid, None)
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        if self._reserve_sock is not None:
            self._reserve_sock.close()
            self._reserve_sock = None
        if self.arena is not None:
            self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Hot reload (parent)
    # ------------------------------------------------------------------

    def reload(self, force: bool = False) -> Dict[str, Any]:
        """Stage fresh packs, then signal every worker to remap.

        The heavy lifting (kernel compilation into the new pack) happens
        *here*, once; workers only re-open and re-map files.  Returns the
        new generation and the per-snapshot staging status.
        """
        if self.arena is None:
            raise WorkerPoolError("pool is not running")
        with self.tracer.span("pool_reload") as span:
            self.pack_status = stage_packs(
                self.snapshot_dir, force=force, tracer=self.tracer
            )
            generation = self.arena.bump_reload_generation()
            span.incr("generation", generation)
        self._on_event("reload staged: generation %d" % generation)
        return {"generation": generation, "packs": dict(self.pack_status)}

    def reload_converged(self) -> bool:
        """True once every live worker serves the current generation."""
        if self.arena is None:
            return False
        target = self.arena.reload_generation
        return all(
            status["generation"] == target
            for status in self.arena.liveness(self.stale_after_s)
        )

    # ------------------------------------------------------------------
    # Introspection (parent; consumed by the control server)
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        arena = self.arena
        return {
            "workers": self.workers,
            "host": self.host,
            "port": self.port,
            "restarts": self.restarts_total,
            "reload_generation": arena.reload_generation if arena else 0,
            "packs": dict(self.pack_status),
        }

    def liveness(self) -> List[Dict[str, Any]]:
        if self.arena is None:
            return []
        return self.arena.liveness(self.stale_after_s)

    # ------------------------------------------------------------------
    # Internals (parent)
    # ------------------------------------------------------------------

    def _reserve_port(self) -> None:
        """Bind (but never listen) a ``SO_REUSEPORT`` socket: resolves
        ``port=0`` to the concrete port workers must share, and keeps the
        port owned by the pool while individual workers restart.  A bound
        socket that is not listening receives none of the load-balanced
        connections, so the parent stays out of the data path."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.config.host, self.config.port))
        except OSError as error:
            sock.close()
            raise WorkerPoolError(
                "cannot reserve %s:%d: %s"
                % (self.config.host, self.config.port, error)
            )
        self.host, self.port = sock.getsockname()[:2]
        self._reserve_sock = sock

    def _spawn(self, index: int) -> None:
        read_fd, write_fd = os.pipe()
        with self.tracer.span("worker_fork") as span:
            span.incr("worker", index)
            pid = os.fork()
        if pid == 0:  # ---- child: never returns ----
            status = 70  # EX_SOFTWARE unless the worker exits cleanly
            try:
                os.close(read_fd)
                status = self._child_main(index, write_fd)
            except BaseException:
                try:
                    traceback.print_exc()
                    sys.stderr.flush()
                except Exception:
                    pass
            finally:
                os._exit(status)
        # ---- parent ----
        os.close(write_fd)
        try:
            self._await_ready(read_fd, pid, index)
        finally:
            os.close(read_fd)
        with self._lock:
            self._children[pid] = _Worker(index, pid)

    def _await_ready(self, read_fd: int, pid: int, index: int) -> None:
        deadline = _monotonic() + _SPAWN_TIMEOUT_S
        while True:
            timeout = max(0.0, deadline - _monotonic())
            readable, _, _ = select.select([read_fd], [], [], min(timeout, 0.5))
            if readable:
                if os.read(read_fd, 1) == _READY_BYTE:
                    return
                raise WorkerPoolError(
                    "worker %d (pid %d) died before binding its socket"
                    % (index, pid)
                )
            if timeout <= 0.0:
                _kill_quietly(pid, signal.SIGKILL)
                _reap(pid, _monotonic() + 5.0)
                raise WorkerPoolError(
                    "worker %d (pid %d) not ready within %.0fs"
                    % (index, pid, _SPAWN_TIMEOUT_S)
                )

    def _supervise(self) -> None:
        """Reap dead workers and respawn them with backoff."""
        while not self._stopping.is_set():
            with self._lock:
                pids = list(self._children)
            for pid in pids:
                try:
                    reaped, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    reaped = pid
                if reaped != pid or self._stopping.is_set():
                    continue
                with self._lock:
                    worker = self._children.pop(pid, None)
                if worker is None:
                    continue
                self.restarts_total += 1
                pause = next(self._backoffs[worker.index], 5.0)
                self._on_event(
                    "worker %d (pid %d) exited; respawning in %.2gs"
                    % (worker.index, pid, pause)
                )
                if self._stopping.wait(pause):
                    return
                try:
                    self._spawn(worker.index)
                except WorkerPoolError as error:
                    self._on_event("respawn of worker %d failed: %s"
                                   % (worker.index, error))
            self._stopping.wait(0.2)

    # ------------------------------------------------------------------
    # Worker side (runs post-fork, exits via os._exit)
    # ------------------------------------------------------------------

    def _child_main(self, index: int, ready_fd: int) -> int:
        # The child inherited the parent's reservation socket; it must
        # not hold it (a dead parent's port would never free).
        if self._reserve_sock is not None:
            self._reserve_sock.close()
        arena = self.arena
        slab = arena.slab(index)
        service, server = self._build_worker_service(slab, arena)
        gc.set_threshold(*SERVING_GC_THRESHOLD)
        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_args: stop.set())
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        slab.mark_started(generation=arena.reload_generation)
        server.start()  # binds SO_REUSEPORT and serves on a daemon thread
        watcher = threading.Thread(
            target=self._watch_reload,
            args=(service, slab, arena, stop),
            name="repro-worker-remap",
            daemon=True,
        )
        watcher.start()
        os.write(ready_fd, _READY_BYTE)
        os.close(ready_fd)
        stop.wait()
        server.close(self.config.drain_timeout_s)
        return 0

    def _build_worker_service(self, slab: WorkerSlab, arena: SlabArena):
        from repro.service import build_service
        from repro.service.registry import SynopsisRegistry
        from repro.service.server import ServiceServer

        config = self.config
        registry = SynopsisRegistry(
            self.snapshot_dir, check_interval=config.reload_interval_s
        )
        registry.scan()
        service = build_service(registry, config, metrics=SlabMirrorMetrics(slab))
        # Any worker can render the pool-wide picture: the arena is
        # shared memory, readable from every process.
        service.workers_view = arena.aggregate
        service.workers_liveness = lambda: arena.liveness(self.stale_after_s)
        server = ServiceServer(
            service,
            host=self.host,
            port=self.port,
            reuse_port=True,
            read_deadline_s=config.read_deadline_s,
        )
        return service, server

    def _watch_reload(
        self,
        service,
        slab: WorkerSlab,
        arena: SlabArena,
        stop: threading.Event,
    ) -> None:
        """Worker-side reload watcher: polls the arena generation the
        parent bumps, rescans the registry when it moves (mapping the
        restaged packs — no kernel compile), and keeps the slab's
        heartbeat and kernel counters fresh."""
        seen = slab.get("generation")
        while not stop.wait(self.reload_poll_s):
            slab.heartbeat()
            _sync_pack_counters(service.registry, slab)
            current = arena.reload_generation
            if current == seen:
                continue
            with self.tracer.span("worker_remap") as span:
                span.incr("generation", current)
                service.registry.scan()
            seen = current
            slab.set("generation", current)
            slab.incr("remaps")
            service.metrics.incr("remaps_total")


def _sync_pack_counters(registry, slab: WorkerSlab) -> None:
    """Publish the worker's kernelpack hit/miss totals into its slab.

    Peeks at already-materialized kernels only (never triggers a compile
    or a reload) and tolerates any registry shape."""
    hits = misses = 0
    try:
        names = registry.names()
        for name in names:
            entry = registry._entries.get(name)  # peek; get() may reload
            if entry is None:
                continue
            kernel = getattr(entry.system, "kernel_peek", lambda: None)()
            if kernel is None:
                continue
            hits += getattr(kernel, "pack_hits", 0)
            misses += getattr(kernel, "pack_misses", 0)
    except Exception:
        return
    slab.set("pack_hits", hits)
    slab.set("pack_misses", misses)


class SlabMirrorMetrics:
    """A worker's :class:`ServiceMetrics` that also writes its slab.

    Inherits all in-process behaviour (the worker's own ``/metrics``
    stays fully functional) and mirrors the cross-process essentials —
    request/query/error counts, shed/deadline/kernel events and the
    latency histogram — into the shared slab for parent aggregation.
    """

    _EVENT_FIELDS = {
        "shed_total": "shed",
        "deadline_exceeded_total": "deadline_hits",
        "kernel_hits_total": "kernel_hits",
        "kernel_misses_total": "kernel_misses",
        "semcache_hits_total": "semcache_hits",
        "semcache_misses_total": "semcache_misses",
    }

    def __init__(self, slab: WorkerSlab, **kwargs):
        from repro.service.metrics import ServiceMetrics

        self._inner = ServiceMetrics(**kwargs)
        self._slab = slab

    def observe(self, synopsis, latency_s, queries=1, error=False) -> None:
        self._inner.observe(synopsis, latency_s, queries=queries, error=error)
        slab = self._slab
        slab.incr("requests")
        slab.incr("queries", queries)
        if error:
            slab.incr("errors")
        slab.observe_latency(latency_s)
        slab.heartbeat()

    def incr(self, name: str, delta: int = 1) -> None:
        self._inner.incr(name, delta)
        field = self._EVENT_FIELDS.get(name)
        if field is not None:
            self._slab.incr(field, delta)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _monotonic() -> float:
    import time

    return time.monotonic()


def _kill_quietly(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _reap(pid: int, deadline: float) -> bool:
    """Wait for ``pid`` until ``deadline``; True when it was reaped."""
    import time

    while True:
        try:
            reaped, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if reaped == pid:
            return True
        if _monotonic() >= deadline:
            return False
        time.sleep(0.02)
