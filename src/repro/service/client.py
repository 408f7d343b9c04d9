"""Blocking JSON client for one estimation-service endpoint.

:class:`EndpointClient` talks to a single ``host:port`` — it is the
transport brick that :func:`repro.connect` (the cluster-aware
:class:`repro.cluster.Client`) and the scatter-gather router build on.

By default the client keeps one HTTP/1.1 connection alive and reuses it
(reconnecting transparently if the server dropped it), which is what a
query optimizer embedding the client would do — connection setup
otherwise dominates the sub-millisecond estimate latency.  The kept
connection makes an instance **not** thread-safe; give each thread its
own client, or pass ``keep_alive=False`` for a stateless
connection-per-call client that can be shared freely.

    client = EndpointClient(port=8750)
    client.estimate("SSPlays", "//PLAY/ACT/$SCENE")     # -> float
    client.estimate_batch("SSPlays", ["//PLAY", "//ACT"])
    client.metrics()["latency_ms"]["p95_ms"]

Failure handling
----------------

Every failure surfaces as :class:`ServiceError` with a stable ``kind``:
the server's ``error.kind`` slug for non-2xx replies, or a client-side
transport slug — ``"connection"`` (refused/reset/broken pipe),
``"timeout"`` (socket timeout) or ``"bad_response"`` (a 2xx body that is
not valid JSON, e.g. an intermediary's HTML error page).  No raw
``socket``/``http.client``/``json`` exception escapes.

Optionally the client retries: pass ``retry=RetryPolicy(...)`` and
transient failures (transport errors and 502/503/504, honouring the
server's ``Retry-After`` hint) are retried with exponential backoff,
bounded by ``retry_budget_s``.  Pass ``breaker=CircuitBreaker(...)`` to
stop hammering a down server: after the threshold of consecutive
failures, calls fail fast with
:class:`~repro.reliability.breaker.CircuitOpenError` until the recovery
window elapses.  Estimates are pure reads, so every request is safe to
retry.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional

from repro.core.result import EstimateResult
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.policy import Deadline, RetryPolicy
from repro.service.config import DEFAULT_PORT, ClientConfig

#: Statuses worth retrying: the server (or an intermediary) said "not
#: right now", not "never".
RETRYABLE_STATUSES = frozenset({502, 503, 504})

#: Client-side transport kinds (always retryable; no reply was received).
TRANSPORT_KINDS = frozenset({"connection", "timeout"})


class ServiceError(RuntimeError):
    """A failed service call.

    ``kind`` is the stable error slug: the service's ``error.kind`` from
    the response body (e.g. ``"unknown_synopsis"``, ``"query_syntax"``,
    ``"overloaded"``), ``"internal"`` when a non-2xx body carried none,
    or a client-side transport slug (``"connection"``, ``"timeout"``,
    ``"bad_response"``).  ``status`` is the HTTP status, or ``0`` when no
    reply was received.  ``retry_after_s`` carries the server's
    ``Retry-After`` hint when one was sent.
    """

    def __init__(
        self,
        status: int,
        message: str,
        kind: str = "internal",
        retry_after_s: Optional[float] = None,
    ):
        super().__init__("HTTP %d [%s]: %s" % (status, kind, message))
        self.status = status
        self.message = message
        self.kind = kind
        self.retry_after_s = retry_after_s

    @property
    def retryable(self) -> bool:
        return self.kind in TRANSPORT_KINDS or self.status in RETRYABLE_STATUSES


class EndpointClient:
    """Minimal synchronous client for one estimation-service endpoint."""

    def __init__(
        self,
        host: Optional[str] = None,
        *,
        port: Optional[int] = None,
        timeout: Optional[float] = None,
        keep_alive: Optional[bool] = None,
        retry: Optional[RetryPolicy] = None,
        retry_budget_s: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep=time.sleep,
        config: Optional[ClientConfig] = None,
    ):
        base = config if config is not None else ClientConfig()
        self.host = host if host is not None else base.host
        self.port = port if port is not None else base.port
        self.timeout = timeout if timeout is not None else base.timeout
        self.keep_alive = keep_alive if keep_alive is not None else base.keep_alive
        self.retry = retry
        self.retry_budget_s = (
            retry_budget_s if retry_budget_s is not None else base.retry_budget_s
        )
        self.breaker = breaker
        self._sleep = sleep
        self._connection: Optional[http.client.HTTPConnection] = None
        #: TCP connections actually opened.  With keep-alive (the
        #: default) this stays at 1 across any number of requests unless
        #: the server drops the connection; the throughput benches report
        #: it to prove client-side connection churn is not the
        #: bottleneck being measured.
        self.connects_total = 0

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "EndpointClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self.keep_alive and self._connection is not None:
            return self._connection
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        # Nagle + delayed ACK stalls tiny request/response exchanges on a
        # reused connection by ~40ms; estimates are sub-millisecond.
        connection.connect()
        self.connects_total += 1
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.keep_alive:
            self._connection = connection
        return connection

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One logical request: retries (when configured) around
        :meth:`_request_once`, behind the circuit breaker."""
        deadline = Deadline.after(self.retry_budget_s)
        backoffs = self.retry.backoffs() if self.retry is not None else iter(())
        while True:
            if self.breaker is not None:
                self.breaker.check("estimation service %s:%d" % (self.host, self.port))
            try:
                document = self._request_once(method, path, payload)
            except ServiceError as error:
                dependency_failed = error.retryable or error.status >= 500
                if self.breaker is not None:
                    if dependency_failed:
                        self.breaker.record_failure()
                    else:
                        # 4xx means the service answered: it is healthy,
                        # the request was bad.
                        self.breaker.record_success()
                if not error.retryable:
                    raise
                pause = next(backoffs, None)
                if pause is None:
                    raise
                if error.retry_after_s is not None:
                    pause = max(pause, error.retry_after_s)
                if deadline.remaining() < pause:
                    raise
                self._sleep(pause)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return document

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None
        headers: Dict[str, str] = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        response = None
        try:
            for attempt in (1, 2):
                connection = self._connect()
                try:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    break
                except (http.client.HTTPException, ConnectionError, BrokenPipeError):
                    # A kept-alive connection the server has since
                    # closed; reconnect once, then give up.
                    self.close()
                    if not self.keep_alive or attempt == 2:
                        raise
            raw = response.read()
        except socket.timeout:
            self.close()
            raise ServiceError(
                0, "no reply within %.3gs" % self.timeout, "timeout"
            )
        except (http.client.HTTPException, ConnectionError, OSError) as error:
            self.close()
            raise ServiceError(
                0,
                "cannot reach %s:%d: %s" % (self.host, self.port, error),
                "connection",
            )
        try:
            try:
                document = json.loads(raw.decode("utf-8")) if raw else {}
                decoded = True
            except (UnicodeDecodeError, json.JSONDecodeError):
                document = {}
                decoded = False
            if response.status >= 400:
                retry_after = _parse_retry_after(
                    response.getheader("Retry-After")
                )
                error = document.get("error") if decoded else None
                if isinstance(error, dict):  # structured {"kind", "message"}
                    raise ServiceError(
                        response.status,
                        str(error.get("message", "")),
                        str(error.get("kind", "internal")),
                        retry_after_s=retry_after,
                    )
                raise ServiceError(
                    response.status,
                    str(error if error is not None else raw[:200]),
                    retry_after_s=retry_after,
                )
            if not decoded:
                # A 2xx that is not JSON (a proxy's splash page, a torn
                # reply): stable kind instead of a downstream KeyError.
                raise ServiceError(
                    response.status,
                    "response body is not JSON: %r..." % raw[:80],
                    "bad_response",
                )
            return document
        finally:
            if not self.keep_alive:
                connection.close()

    # ------------------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def synopses(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/synopses")["synopses"]

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def slowlog(self, limit: Optional[int] = None) -> Dict[str, Any]:
        path = "/debug/slowlog"
        if limit is not None:
            path += "?limit=%d" % limit
        return self._request("GET", path)

    def estimate_detail(
        self,
        synopsis: str,
        query: str,
        trace: bool = False,
        actual: Optional[float] = None,
        tier: Optional[str] = None,
    ) -> Dict[str, Any]:
        """The full single-estimate reply (``synopsis``, ``generation``
        and the versioned ``result`` object, plus ``tier``/``brownout``
        when set).  ``actual`` ships ground truth for the server's
        slow-query error ranking; ``tier`` requests a QoS lane
        (``"interactive"`` / ``"standard"`` / ``"bulk"``) on a
        tier-aware server."""
        payload: Dict[str, Any] = {"synopsis": synopsis, "query": query}
        if trace:
            payload["trace"] = True
        if actual is not None:
            payload["actual"] = actual
        if tier is not None:
            payload["tier"] = tier
        return self._request("POST", "/estimate", payload)

    def estimate(
        self, synopsis: str, query: str, tier: Optional[str] = None
    ) -> float:
        reply = self.estimate_detail(synopsis, query, tier=tier)
        return float(reply["result"]["value"])

    def estimate_traced(self, synopsis: str, query: str) -> EstimateResult:
        """One traced estimate as a structured
        :class:`~repro.core.result.EstimateResult` whose ``.trace`` is
        the server-side span tree."""
        reply = self.estimate_detail(synopsis, query, trace=True)
        return EstimateResult.from_dict(reply["result"])

    def explain(self, synopsis: str, query: str) -> Dict[str, Any]:
        """The server-side cost-based plan for ``query`` (the plan IR as
        a dict: ordered semijoin steps with expected cardinalities).  No
        execution happens; works against statistics-only synopses."""
        payload = {"synopsis": synopsis, "query": query, "explain": True}
        return self._request("POST", "/estimate", payload)["plan"]

    def execute(
        self, synopsis: str, query: str, tier: Optional[str] = None
    ) -> Dict[str, Any]:
        """Plan and run ``query`` on the server.

        Returns the full reply: ``matches`` (pre-orders, capped),
        ``match_count``, the executed ``plan`` (observed cardinalities,
        replans) and the structured ``result``.  Raises
        :class:`ServiceError` kind ``execute_unsupported`` (409) when the
        synopsis is statistics-only.
        """
        payload: Dict[str, Any] = {
            "synopsis": synopsis, "query": query, "execute": True,
        }
        if tier is not None:
            payload["tier"] = tier
        return self._request("POST", "/estimate", payload)

    def estimate_batch(
        self, synopsis: str, queries: List[str], tier: Optional[str] = None
    ) -> List[float]:
        payload: Dict[str, Any] = {"synopsis": synopsis, "queries": list(queries)}
        if tier is not None:
            payload["tier"] = tier
        reply = self._request("POST", "/estimate", payload)
        return [float(item["result"]["value"]) for item in reply["results"]]

    def apply_delta(
        self, synopsis: str, partial, *, force_refresh: bool = False
    ) -> Dict[str, Any]:
        """Upload a delta partial (``POST /delta``) and return the apply
        outcome (``refreshed``, ``generation``, ``drift``, ...).

        ``partial`` is a :class:`~repro.build.stream.PartialSynopsis` or
        an already-serialized :func:`repro.persist.partial_to_dict` dict.
        """
        if not isinstance(partial, dict):
            from repro.persist import partial_to_dict

            partial = partial_to_dict(partial)
        payload: Dict[str, Any] = {"synopsis": synopsis, "partial": partial}
        if force_refresh:
            payload["force_refresh"] = True
        return self._request("POST", "/delta", payload)


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    """Numeric ``Retry-After`` seconds (HTTP-date form is ignored)."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None
