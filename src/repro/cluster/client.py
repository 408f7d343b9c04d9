"""The unified cluster-aware client: ``repro.connect(...) -> Client``.

One entry point covers every deployment shape the repo can serve:

* a single :class:`~repro.service.server.ServiceServer` instance,
* a pre-fork :mod:`repro.shm` worker pool (same wire protocol),
* a :class:`~repro.cluster.router.RouterServer` scatter-gather front,
* or a **seed list** of any of the above — the client fails over across
  seeds (last-good first) so one dead entry point does not strand it.

Compared with the per-endpoint :class:`~repro.service.client
.EndpointClient` it subsumes, :class:`Client` returns structured
:class:`~repro.core.result.EstimateResult` objects (parsed from the
versioned ``result`` wire object of each reply), knows about delta
uploads, and can report cluster topology when the seed is a router::

    import repro

    with repro.connect("localhost:8750") as client:
        result = client.estimate("SSPlays", "//PLAY/ACT/$SCENE")
        result.value, result.route, result.elapsed_ms
        for r in client.estimate_batch("SSPlays", ["//PLAY", "//ACT"]):
            print(r.query, r.value)

Configuration is keyword-only, either inline (``timeout=...``) or
grouped in a frozen :class:`~repro.service.config.ClientConfig`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.result import EstimateResult
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.policy import RetryPolicy
from repro.service.client import EndpointClient, ServiceError
from repro.service.config import ClientConfig

__all__ = ["Client", "connect"]


def _to_endpoint(target: Any) -> Dict[str, Any]:
    """One seed -> EndpointClient keyword arguments."""
    if isinstance(target, str):
        from repro.cluster.router import parse_address

        host, port = parse_address(target) if ":" in target.split("//")[-1] else (
            target,
            None,
        )
        kwargs: Dict[str, Any] = {"host": host}
        if port is not None:
            kwargs["port"] = port
        return kwargs
    if isinstance(target, (tuple, list)) and len(target) == 2:
        return {"host": str(target[0]), "port": int(target[1])}
    raise TypeError(
        "connect() target must be 'host:port', a URL, a (host, port) pair "
        "or a sequence of those; got %r" % (target,)
    )


class Client:
    """Cluster-aware estimation client over one or more seed endpoints.

    Each seed gets its own :class:`EndpointClient` (created lazily);
    every call walks the seeds last-good first and fails over on
    transport errors, so any one reachable entry point is enough.  Like
    the endpoint client it wraps, an instance is **not** thread-safe
    with keep-alive connections — one per thread.
    """

    def __init__(
        self,
        targets: Sequence[Any],
        *,
        config: Optional[ClientConfig] = None,
        timeout: Optional[float] = None,
        keep_alive: Optional[bool] = None,
        retry: Optional[RetryPolicy] = None,
        retry_budget_s: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        if not targets:
            raise ValueError("connect() needs at least one endpoint")
        base = config if config is not None else ClientConfig()
        self._endpoints: List[EndpointClient] = []
        for target in targets:
            kwargs = _to_endpoint(target)
            kwargs.setdefault("port", base.port)
            self._endpoints.append(
                EndpointClient(
                    timeout=timeout if timeout is not None else base.timeout,
                    keep_alive=keep_alive if keep_alive is not None else base.keep_alive,
                    retry=retry,
                    retry_budget_s=(
                        retry_budget_s
                        if retry_budget_s is not None
                        else base.retry_budget_s
                    ),
                    breaker=breaker,
                    **kwargs,
                )
            )
        # Index of the seed that answered most recently; tried first.
        self._preferred = 0

    # ------------------------------------------------------------------
    # Seed failover
    # ------------------------------------------------------------------

    @property
    def endpoints(self) -> List[str]:
        return ["%s:%d" % (e.host, e.port) for e in self._endpoints]

    def _call(self, method: str, *args, **kwargs) -> Any:
        """Run ``method`` on the preferred seed, failing over to the
        others on transport errors (a seed that *answered* — even with an
        HTTP error — is authoritative; its reply propagates)."""
        order = list(range(len(self._endpoints)))
        preferred = self._preferred
        order.remove(preferred)
        order.insert(0, preferred)
        last: Optional[ServiceError] = None
        for index in order:
            endpoint = self._endpoints[index]
            try:
                reply = getattr(endpoint, method)(*args, **kwargs)
            except ServiceError as error:
                if error.status == 0:  # transport: seed unreachable
                    last = error
                    continue
                raise
            self._preferred = index
            return reply
        assert last is not None
        raise last

    # ------------------------------------------------------------------
    # Estimation (structured results)
    # ------------------------------------------------------------------

    def estimate(
        self, synopsis: str, query: str, *, trace: bool = False
    ) -> EstimateResult:
        """One estimate as a structured :class:`EstimateResult`
        (float-coercible, so ``float(client.estimate(...))`` is the old
        bare number)."""
        reply = self._call("estimate_detail", synopsis, query, trace=trace)
        return EstimateResult.from_dict(reply["result"])

    def estimate_batch(
        self,
        synopsis: str,
        queries: Sequence[str],
        *,
        allow_partial: bool = False,
    ) -> List[Optional[EstimateResult]]:
        """A batch of structured results, in query order.

        Against a scatter-gather router a degraded batch carries
        per-item errors for the chunk whose replicas all failed; with
        ``allow_partial=True`` those slots come back as ``None`` (the
        answered ones are real), otherwise the first item error raises
        :class:`ServiceError`.
        """
        reply = self._call(
            "_request",
            "POST",
            "/estimate",
            {"synopsis": synopsis, "queries": list(queries)},
        )
        results: List[Optional[EstimateResult]] = []
        for item in reply.get("results", []):
            error = item.get("error")
            if error is not None:
                if not allow_partial:
                    raise ServiceError(
                        502,
                        str(error.get("message", "degraded batch item")),
                        str(error.get("kind", "replicas_exhausted")),
                    )
                results.append(None)
                continue
            results.append(EstimateResult.from_dict(item["result"]))
        return results

    def explain(self, synopsis: str, query: str) -> Dict[str, Any]:
        """The server-side plan IR for ``query`` (see
        :meth:`EndpointClient.explain`); fails over across seeds like
        every other call."""
        return self._call("explain", synopsis, query)

    def execute(self, synopsis: str, query: str) -> Dict[str, Any]:
        """Plan and run ``query`` on the serving instance, returning the
        full reply (``matches``, ``match_count``, executed ``plan``,
        structured ``result``).  Statistics-only synopses surface as
        :class:`ServiceError` kind ``execute_unsupported``."""
        return self._call("execute", synopsis, query)

    # ------------------------------------------------------------------
    # Maintenance + observability passthrough
    # ------------------------------------------------------------------

    def apply_delta(
        self, synopsis: str, partial, *, force_refresh: bool = False
    ) -> Dict[str, Any]:
        """Upload a delta (see :meth:`EndpointClient.apply_delta`);
        through a router this fans out to every replica."""
        return self._call(
            "apply_delta", synopsis, partial, force_refresh=force_refresh
        )

    def healthz(self) -> Dict[str, Any]:
        return self._call("healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._call("metrics")

    def synopses(self) -> List[Dict[str, Any]]:
        return self._call("synopses")

    def topology(self) -> Optional[Dict[str, Any]]:
        """The cluster topology (``GET /cluster``) when the seed is a
        router; ``None`` against a plain single-instance service."""
        try:
            return self._call("_request", "GET", "/cluster")
        except ServiceError as error:
            if error.status == 404:
                return None
            raise

    def close(self) -> None:
        for endpoint in self._endpoints:
            endpoint.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    target: Union[str, Sequence[Any], None] = None,
    *,
    config: Optional[ClientConfig] = None,
    timeout: Optional[float] = None,
    keep_alive: Optional[bool] = None,
    retry: Optional[RetryPolicy] = None,
    retry_budget_s: Optional[float] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> Client:
    """Open a cluster-aware :class:`Client`.

    ``target`` is one endpoint (``"host:port"`` or
    ``"http://host:port"`` — a service instance, a worker pool, or a
    router) or a seed list of them; ``None`` uses the
    :class:`ClientConfig` default (``127.0.0.1:8750``).  All tuning is
    keyword-only.
    """
    base = config if config is not None else ClientConfig()
    if target is None:
        targets: Sequence[Any] = [(base.host, base.port)]
    elif isinstance(target, str):
        targets = [target]
    elif (
        isinstance(target, (tuple, list))
        and len(target) == 2
        and isinstance(target[1], int)
    ):
        targets = [target]  # one (host, port) pair, not a seed list
    else:
        targets = list(target)
    return Client(
        targets,
        config=base,
        timeout=timeout,
        keep_alive=keep_alive,
        retry=retry,
        retry_budget_s=retry_budget_s,
        breaker=breaker,
    )
