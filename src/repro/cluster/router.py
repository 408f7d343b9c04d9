"""Scatter-gather estimation router: one front door over N backends.

The estimation tier scales horizontally by running several
:class:`~repro.service.server.ServiceServer` instances (each loading its
shard of the snapshot inventory) behind one :class:`RouterServer`.  The
router owns placement and failure handling so clients stay dumb:

* **Placement** — synopses map to backends by consistent hashing on the
  collection name (:class:`~repro.cluster.ring.HashRing`), replicated
  onto ``replication`` distinct backends.  The unit of sharding is the
  synopsis: one estimate never spans backends, so routing adds one hop
  and zero merge logic on the single-query path.
* **Failover** — replicas are tried **last-good first**; a backend that
  answered most recently for a synopsis gets the next request for it.
  Transport failures and 5xx move on to the next replica (each backend
  sits behind its own :class:`~repro.reliability.breaker.CircuitBreaker`
  so a dead instance is skipped without paying its timeout every
  request); 4xx — the backend answered, the request is bad — propagate
  immediately, except ``404 unknown_synopsis`` which also tries the next
  replica (an instance may lag a snapshot sync).  A ``503`` **shed** is
  neither: the backend is alive, just saturated, so it does *not* count
  against its breaker — instead its ``Retry-After`` starts a cooldown
  during which the router routes around it rather than hot-retrying into
  the overload.  When every replica fails the router gives up with kind
  ``replicas_exhausted`` (502) — or, when the replicas are merely
  shedding, with kind ``overloaded`` (503) and the soonest
  ``Retry-After`` so the client backs off instead of failing over.
* **QoS tiers** — an ``X-Repro-Tier`` request header (or body ``"tier"``
  field) rides through to the backends on both the single-backend path
  and every scatter chunk, so tier-aware admission happens where the
  work runs.
* **Scatter-gather** — batch requests over ``scatter_min`` queries split
  into contiguous chunks across the synopsis' replica set and execute in
  parallel; the gathered reply preserves query order.  A chunk whose
  replicas all fail degrades to per-item ``{"error": ...}`` entries with
  a top-level ``"degraded": true`` flag instead of failing the batch —
  partial answers beat none for a cost optimizer that can fall back to
  default selectivities.
* **Deltas** — ``POST /delta`` fans out to *all* replicas of the
  synopsis (each holds a full copy, each must absorb the delta); the
  reply carries per-replica outcomes and succeeds if any replica did.
* **Observability** — ``GET /healthz`` polls every backend and
  aggregates (``ok`` only when all replicas are), ``GET /metrics`` wraps
  the router's own :class:`~repro.service.metrics.ServiceMetrics`
  (requests, failovers, degraded batches) with per-backend counters, and
  ``GET /cluster`` reports the topology — the synopsis → replicas map a
  cluster-aware client uses to print placement.

Everything is stdlib: the router talks to backends with pooled
:class:`~repro.service.client.EndpointClient` instances (keep-alive
connections are not thread-safe, so a lease/return stack hands each
in-flight request its own client) and serves through the estimation
service's own HTTP front (:mod:`repro.service.front`): the same body
reader, read deadline, error mapping and lifecycle.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.errors import ReliabilityError
from repro.reliability.breaker import CircuitBreaker
from repro.service.client import EndpointClient, ServiceError
from repro.service.metrics import ServiceMetrics
from repro.service.front import Front, RequestError, Route, error_body

__all__ = [
    "ClusterError",
    "ReplicasExhaustedError",
    "RouterConfig",
    "ClusterRouter",
    "RouterServer",
    "DEFAULT_ROUTER_PORT",
]

DEFAULT_ROUTER_PORT = 8760


class ClusterError(ReliabilityError):
    """A cluster-level routing failure (no backend could serve)."""

    kind = "cluster"


class ReplicasExhaustedError(ClusterError):
    """Every replica of a synopsis refused or failed the request."""

    kind = "replicas_exhausted"


@dataclass(frozen=True)
class RouterConfig:
    """Tuning for :class:`ClusterRouter` / the ``repro router`` CLI."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_ROUTER_PORT
    #: Distinct backends holding each synopsis (1 = plain sharding, no
    #: redundancy; clamped to the backend count).
    replication: int = 2
    vnodes: int = DEFAULT_VNODES
    #: Per-backend request timeout (seconds).
    timeout: float = 30.0
    #: Batches of at least this many queries scatter across the replica
    #: set; smaller ones take the single-backend fast path.
    scatter_min: int = 4
    #: Consecutive failures that open a backend's circuit breaker, and
    #: how long it stays open before a probe is allowed through.
    breaker_threshold: int = 3
    breaker_recovery_s: float = 1.0

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.scatter_min < 2:
            raise ValueError("scatter_min must be >= 2")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` / ``http://host:port`` -> ``(host, port)``."""
    stripped = address.strip()
    for prefix in ("http://", "https://"):
        if stripped.startswith(prefix):
            stripped = stripped[len(prefix):]
            break
    stripped = stripped.rstrip("/")
    host, separator, port = stripped.rpartition(":")
    if not separator or not host:
        raise ValueError("backend address %r is not host:port" % address)
    try:
        return host, int(port)
    except ValueError:
        raise ValueError("backend address %r has a non-numeric port" % address)


class Backend:
    """One estimation instance: address, client pool, breaker, counters.

    Keep-alive :class:`EndpointClient` instances are not thread-safe, so
    concurrent router requests each lease a client from a stack (growing
    it on demand) and return it afterwards; a client that just suffered a
    transport error is dropped instead of returned, so a stale broken
    connection is never handed to the next request.
    """

    def __init__(
        self,
        address: str,
        timeout: float = 30.0,
        breaker_threshold: int = 3,
        breaker_recovery_s: float = 1.0,
        client_factory: Optional[Callable[[], Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.address = address
        host, port = parse_address(address)
        self._factory = client_factory or (
            lambda: EndpointClient(host=host, port=port, timeout=timeout)
        )
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold, recovery_after_s=breaker_recovery_s
        )
        self._clock = clock
        self._idle: List[Any] = []
        self._lock = threading.Lock()
        self.requests_total = 0
        self.failures_total = 0
        self.sheds_total = 0
        # Monotonic stamp until which this backend is "cooling": it shed
        # with a Retry-After and hot-retrying it would amplify overload.
        self._shed_until = 0.0

    def call(self, method: str, path: str, payload: Optional[Dict[str, Any]] = None):
        """One request through a leased client; raises ServiceError."""
        with self._lock:
            client = self._idle.pop() if self._idle else None
            self.requests_total += 1
        if client is None:
            client = self._factory()
        try:
            document = client._request(method, path, payload)
        except ServiceError:
            with self._lock:
                self.failures_total += 1
            # Transport state is suspect; start the next lease fresh.
            try:
                client.close()
            except Exception:  # pragma: no cover - defensive
                pass
            raise
        with self._lock:
            self._idle.append(client)
        return document

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for client in idle:
            try:
                client.close()
            except Exception:  # pragma: no cover - defensive
                pass

    def note_shed(self, retry_after_s: Optional[float]) -> None:
        """The backend shed (503 overloaded): honor its ``Retry-After``
        by cooling this backend instead of recording a breaker failure."""
        with self._lock:
            self.sheds_total += 1
            self._shed_until = max(
                self._shed_until, self._clock() + (retry_after_s or 1.0)
            )

    def shed_remaining(self) -> float:
        """Seconds of shed cooldown left (0 when serving normally)."""
        with self._lock:
            return max(0.0, self._shed_until - self._clock())

    @property
    def cooling(self) -> bool:
        return self.shed_remaining() > 0.0

    def describe(self) -> Dict[str, Any]:
        return {
            "address": self.address,
            "breaker": self.breaker.state,
            "requests_total": self.requests_total,
            "failures_total": self.failures_total,
            "sheds_total": self.sheds_total,
            "cooling": self.cooling,
        }


class ClusterRouter:
    """Transport-free scatter-gather core (the HTTP front is
    :class:`RouterServer`; tests and benchmarks can drive this object
    directly)."""

    def __init__(
        self,
        backends: Sequence[str],
        config: Optional[RouterConfig] = None,
        client_factory: Optional[Callable[[str], Any]] = None,
    ):
        self.config = config if config is not None else RouterConfig()
        self.ring = HashRing(backends, vnodes=self.config.vnodes)
        make = client_factory
        self.backends: Dict[str, Backend] = {
            address: Backend(
                address,
                timeout=self.config.timeout,
                breaker_threshold=self.config.breaker_threshold,
                breaker_recovery_s=self.config.breaker_recovery_s,
                client_factory=(lambda a=address: make(a)) if make else None,
            )
            for address in self.ring.backends
        }
        self.metrics = ServiceMetrics()
        # synopsis -> address of the replica that last answered for it.
        self._last_good: Dict[str, str] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def replicas(self, synopsis: str) -> List[Backend]:
        """The synopsis' replica set, last-good replica first."""
        addresses = self.ring.replicas_for(synopsis, self.config.replication)
        with self._lock:
            preferred = self._last_good.get(synopsis)
        if preferred in addresses:
            addresses.remove(preferred)
            addresses.insert(0, preferred)
        return [self.backends[address] for address in addresses]

    def _record_good(self, synopsis: str, backend: Backend) -> None:
        with self._lock:
            self._last_good[synopsis] = backend.address

    # ------------------------------------------------------------------
    # Failover primitive
    # ------------------------------------------------------------------

    def _try_replicas(
        self,
        synopsis: str,
        replicas: Sequence[Backend],
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]],
    ) -> Tuple[Backend, Dict[str, Any]]:
        """Run one request against the replica set with failover.

        Raises :class:`RequestError` (propagated 4xx, or 503
        ``overloaded`` with a ``Retry-After`` when every live replica is
        shedding) or :class:`ReplicasExhaustedError` (nothing answered).
        """
        last_error: Optional[str] = None
        tried = 0
        shed_retry_after: Optional[float] = None
        for backend in replicas:
            if not backend.breaker.allow():
                last_error = "%s: circuit open" % backend.address
                continue
            cooldown = backend.shed_remaining()
            if cooldown > 0.0:
                # Recently shed and still inside its Retry-After window:
                # hot-retrying it would amplify the very overload it
                # reported.  Route around it.
                shed_retry_after = (
                    cooldown
                    if shed_retry_after is None
                    else min(shed_retry_after, cooldown)
                )
                last_error = "%s: shedding (cooling %.2fs)" % (
                    backend.address,
                    cooldown,
                )
                continue
            tried += 1
            try:
                document = backend.call(method, path, payload)
            except ServiceError as error:
                if error.status == 503 and error.kind == "overloaded":
                    # A shed is not a failure: the backend answered,
                    # it is just saturated.  Keep its breaker healthy,
                    # start its cooldown, move on.
                    backend.breaker.record_success()
                    backend.note_shed(error.retry_after_s)
                    self.metrics.incr("backend_sheds_total")
                    pause = error.retry_after_s or 1.0
                    shed_retry_after = (
                        pause
                        if shed_retry_after is None
                        else min(shed_retry_after, pause)
                    )
                    last_error = "%s: shed (%s)" % (backend.address, error.message)
                    continue
                transient = error.retryable or error.status >= 500
                lagging = error.status == 404 and error.kind == "unknown_synopsis"
                if transient:
                    backend.breaker.record_failure()
                else:
                    backend.breaker.record_success()
                if transient or lagging:
                    # Try the next replica; remember why this one failed.
                    self.metrics.incr("failovers_total")
                    last_error = "%s: %s" % (backend.address, error)
                    continue
                # The backend answered and the request itself is bad —
                # no other replica will disagree.
                raise RequestError(error.status, error.message, error.kind)
            backend.breaker.record_success()
            self._record_good(synopsis, backend)
            return backend, document
        if shed_retry_after is not None:
            # Every live replica is shedding: the cluster is saturated,
            # not broken.  503 + the soonest Retry-After tells the client
            # to back off rather than treat this as a dead cluster.
            raise RequestError(
                503,
                "all replicas of %r are shedding load (last: %s)"
                % (synopsis, last_error),
                "overloaded",
                retry_after_s=shed_retry_after,
            )
        raise ReplicasExhaustedError(
            "all %d replica(s) of %r failed (tried %d; last: %s)"
            % (len(replicas), synopsis, tried, last_error or "none reachable")
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def handle_estimate(self, payload: Any) -> Dict[str, Any]:
        """Route one ``POST /estimate`` body (single or batch)."""
        started = time.perf_counter()
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        synopsis = payload.get("synopsis")
        if not isinstance(synopsis, str) or not synopsis:
            raise RequestError(400, "missing 'synopsis' field")
        queries = payload.get("queries")
        replicas = self.replicas(synopsis)
        try:
            if (
                isinstance(queries, list)
                and len(queries) >= self.config.scatter_min
                and len(replicas) > 1
            ):
                document = self._scatter_batch(synopsis, payload, queries, replicas)
            else:
                backend, document = self._try_replicas(
                    synopsis, replicas, "POST", "/estimate", payload
                )
                document.setdefault("backend", backend.address)
        except ReplicasExhaustedError as error:
            self.metrics.observe(
                synopsis, time.perf_counter() - started, queries=1, error=True
            )
            raise RequestError(502, str(error), error.kind)
        count = len(queries) if isinstance(queries, list) else 1
        self.metrics.observe(synopsis, time.perf_counter() - started, queries=count)
        return document

    def _scatter_batch(
        self,
        synopsis: str,
        payload: Dict[str, Any],
        queries: List[Any],
        replicas: List[Backend],
    ) -> Dict[str, Any]:
        """Split a batch into contiguous chunks, fan out, gather in order.

        Each chunk keeps the whole replica set for failover (rotated so
        chunk *i* starts on replica *i* — the parallelism) and a chunk
        only degrades when every replica failed it.

        Duplicate query texts are deduplicated *before* chunking
        (within-batch common-subexpression elimination at the routing
        layer: each distinct text ships and evaluates once) and the
        replies are fanned back out to the original positions.  Dedup
        is by exact text — canonical equivalence is the backends' job,
        where the parsed AST is available.
        """
        actuals = payload.get("actuals")
        aligned_actuals = (
            actuals if isinstance(actuals, list) and len(actuals) == len(queries)
            else None
        )
        expand: List[int] = []
        unique_queries: List[Any] = []
        unique_actuals: Optional[List[Any]] = (
            [] if aligned_actuals is not None else None
        )
        positions: Dict[str, int] = {}
        for offset, query in enumerate(queries):
            if isinstance(query, str):
                index = positions.get(query)
                if index is None:
                    index = len(unique_queries)
                    positions[query] = index
                    unique_queries.append(query)
                    if unique_actuals is not None:
                        unique_actuals.append(aligned_actuals[offset])
            else:
                # Non-string entries (the backend will 4xx them per-item)
                # are never merged.
                index = len(unique_queries)
                unique_queries.append(query)
                if unique_actuals is not None:
                    unique_actuals.append(aligned_actuals[offset])
            expand.append(index)

        chunk_count = min(len(replicas), len(unique_queries))
        bounds = []
        base, extra = divmod(len(unique_queries), chunk_count)
        start = 0
        for index in range(chunk_count):
            size = base + (1 if index < extra else 0)
            bounds.append((start, start + size))
            start += size

        outcomes: List[Optional[Dict[str, Any]]] = [None] * chunk_count
        errors: List[Optional[ReplicasExhaustedError]] = [None] * chunk_count

        def run(index: int, lo: int, hi: int) -> None:
            chunk_payload = dict(payload)
            chunk_payload["queries"] = unique_queries[lo:hi]
            if unique_actuals is not None:
                chunk_payload["actuals"] = unique_actuals[lo:hi]
            rotated = replicas[index % len(replicas):] + replicas[: index % len(replicas)]
            try:
                _, outcomes[index] = self._try_replicas(
                    synopsis, rotated, "POST", "/estimate", chunk_payload
                )
            except ReplicasExhaustedError as error:
                errors[index] = error
            except RequestError as error:
                # A per-chunk 4xx (e.g. one malformed query) degrades the
                # chunk rather than aborting sibling chunks mid-flight.
                errors[index] = ReplicasExhaustedError(str(error))

        threads = [
            threading.Thread(target=run, args=(index, lo, hi), daemon=True)
            for index, (lo, hi) in enumerate(bounds)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        if all(error is not None for error in errors):
            raise ReplicasExhaustedError(
                "batch scatter failed on every chunk: %s" % errors[0]
            )
        unique_results: List[Dict[str, Any]] = []
        degraded = False
        generation = 0
        for index, (lo, hi) in enumerate(bounds):
            outcome = outcomes[index]
            if outcome is None:
                degraded = True
                self.metrics.incr("degraded_chunks_total")
                failure = error_body("replicas_exhausted", str(errors[index]))
                unique_results.extend(dict(failure) for _ in range(hi - lo))
                continue
            generation = max(generation, int(outcome.get("generation", 0)))
            unique_results.extend(outcome.get("results", []))
        if degraded:
            self.metrics.incr("degraded_batches_total")
        # Fan the deduplicated replies back out to the original batch
        # positions (independent dict copies, so per-item consumers can
        # mutate without aliasing).
        results: List[Dict[str, Any]] = []
        for index in expand:
            if index < len(unique_results):
                results.append(dict(unique_results[index]))
            else:  # pragma: no cover - defensive against short replies
                results.append(error_body("short_reply", "backend returned "
                                          "fewer results than queries"))
        document: Dict[str, Any] = {
            "synopsis": synopsis,
            "generation": generation,
            "results": results,
            "count": len(results),
            "scattered": chunk_count,
        }
        if degraded:
            document["degraded"] = True
        return document

    def handle_delta(self, payload: Any) -> Dict[str, Any]:
        """Fan a delta out to every replica of its synopsis.

        Each replica holds a full copy of the synopsis, so each must
        absorb the delta; the reply carries per-replica outcomes and the
        call succeeds when at least one replica applied it (the others
        converge through snapshot write-back or a re-send).
        """
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        synopsis = payload.get("synopsis")
        if not isinstance(synopsis, str) or not synopsis:
            raise RequestError(400, "missing 'synopsis' field")
        replicas = self.replicas(synopsis)
        outcomes: List[Dict[str, Any]] = []
        applied = 0
        first_client_error: Optional[ServiceError] = None
        for backend in replicas:
            try:
                document = backend.call("POST", "/delta", payload)
            except ServiceError as error:
                if error.retryable or error.status >= 500:
                    backend.breaker.record_failure()
                else:
                    backend.breaker.record_success()
                    if first_client_error is None:
                        first_client_error = error
                outcomes.append(
                    {"backend": backend.address, **error_body(error.kind, error.message)}
                )
                continue
            backend.breaker.record_success()
            applied += 1
            entry = {"backend": backend.address}
            entry.update(document)
            outcomes.append(entry)
        self.metrics.incr("deltas_total")
        if applied == 0:
            if first_client_error is not None:
                # Every replica rejected it for the same client-side
                # reason (bad partial, delta-incapable synopsis).
                raise RequestError(
                    first_client_error.status,
                    first_client_error.message,
                    first_client_error.kind,
                )
            raise RequestError(
                502,
                "no replica of %r accepted the delta" % synopsis,
                ReplicasExhaustedError.kind,
            )
        return {
            "synopsis": synopsis,
            "replicas": outcomes,
            "applied": applied,
            "failed": len(outcomes) - applied,
        }

    # ------------------------------------------------------------------
    # Aggregated observability
    # ------------------------------------------------------------------

    def _poll(self, method: str, path: str) -> Dict[str, Any]:
        """One GET against every backend: address -> document or error."""
        replies: Dict[str, Any] = {}
        for address, backend in self.backends.items():
            try:
                replies[address] = backend.call(method, path)
            except ServiceError as error:
                replies[address] = error_body(error.kind, error.message)
        return replies

    def healthz(self) -> Dict[str, Any]:
        """Cluster liveness: ``ok`` only when every backend answered
        ``ok``; one degraded/unreachable backend makes the cluster
        ``degraded`` (it still serves through the other replicas)."""
        replies = self._poll("GET", "/healthz")
        status = "ok"
        for reply in replies.values():
            if "error" in reply or reply.get("status") != "ok":
                status = "degraded"
                break
        return {
            "status": status,
            "backends": replies,
            "replication": self.config.replication,
        }

    def synopses(self) -> Dict[str, Any]:
        """Union inventory across backends (deduplicated by name)."""
        merged: Dict[str, Dict[str, Any]] = {}
        for address, reply in self._poll("GET", "/synopses").items():
            for info in reply.get("synopses", []) or []:
                name = info.get("name")
                if isinstance(name, str):
                    merged.setdefault(name, dict(info)).setdefault(
                        "replicas", []
                    ).append(address)
        return {"synopses": sorted(merged.values(), key=lambda i: i["name"])}

    def cluster_document(self) -> Dict[str, Any]:
        """Topology: backends, ring parameters, synopsis placement."""
        names = set()
        for reply in self._poll("GET", "/synopses").values():
            for info in reply.get("synopses", []) or []:
                if isinstance(info.get("name"), str):
                    names.add(info["name"])
        return {
            "backends": [b.describe() for b in self.backends.values()],
            "replication": self.config.replication,
            "vnodes": self.config.vnodes,
            "placement": {
                name: self.ring.replicas_for(name, self.config.replication)
                for name in sorted(names)
            },
        }

    def metrics_document(self) -> Dict[str, Any]:
        document = self.metrics.snapshot()
        document["cluster"] = {
            "backends": [b.describe() for b in self.backends.values()],
            "failovers_total": self.metrics.counter("failovers_total"),
            "backend_sheds_total": self.metrics.counter("backend_sheds_total"),
            "degraded_batches_total": self.metrics.counter("degraded_batches_total"),
            "deltas_total": self.metrics.counter("deltas_total"),
        }
        return document

    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()


def _routes(router: ClusterRouter) -> Dict[Tuple[str, str], Route]:
    def estimate(request) -> Any:
        payload = request.read_json()
        # Propagate the QoS tier into the body so it rides through to
        # every backend (and scatter chunk).
        if request.tier and isinstance(payload, dict) and "tier" not in payload:
            payload["tier"] = request.tier
        return 200, router.handle_estimate(payload), None

    return {
        ("GET", "/healthz"): lambda request: (200, router.healthz(), None),
        ("GET", "/synopses"): lambda request: (200, router.synopses(), None),
        ("GET", "/cluster"): lambda request: (200, router.cluster_document(), None),
        ("GET", "/metrics"): lambda request: (200, router.metrics_document(), None),
        ("POST", "/estimate"): estimate,
        ("POST", "/delta"): lambda request: (
            200, router.handle_delta(request.read_json()), None
        ),
    }


class RouterServer(Front):
    """A running (threaded) HTTP front around a :class:`ClusterRouter`.

    Same lifecycle as :class:`~repro.service.server.ServiceServer`:
    ``port=0`` binds ephemeral, ``.start()`` serves on a daemon thread,
    usable as a context manager.  The router speaks the estimation
    service's wire protocol, so any service client — including the
    cluster-aware :func:`repro.connect` — can point at it unchanged.
    """

    def __init__(
        self,
        router: ClusterRouter,
        host: Optional[str] = None,
        port: Optional[int] = None,
        read_deadline_s: Optional[float] = None,
    ):
        self.router = router
        super().__init__(
            _routes(router),
            host if host is not None else router.config.host,
            port if port is not None else router.config.port,
            name="repro-cluster-router",
            read_deadline_s=read_deadline_s,
        )

    def on_close(self, drain_timeout_s: float) -> None:
        self.router.close()
