"""The root exception hierarchy of the reproduction.

Every failure the package raises on purpose derives from
:class:`ReproError`, so embedders can catch one base class at the
boundary and the HTTP service can map any failure to a stable
``error.kind`` string (each class carries its slug in ``kind``):

* :class:`ParseError` (``"parse"``) — malformed XML input; the concrete
  :class:`repro.xmltree.parser.XmlParseError` adds the byte offset;
* :class:`QuerySyntaxError` (``"query_syntax"``) — malformed query text;
  the concrete :class:`repro.xpath.parser.XPathSyntaxError` adds the
  offset;
* :class:`PersistError` (``"persist"``) — synopsis (de)serialization
  failures (:class:`repro.persist.SynopsisLoadError` is its load-side
  subclass);
* :class:`BuildError` (``"build"``) — streaming/sharded synopsis
  construction failures (bad source, unbalanced shards, unsupported
  build options);
* :class:`PlanError` (``"plan"``) — planning / plan-execution
  failures (:mod:`repro.plan`); its concrete
  :class:`ExecutionUnsupportedError` (``"execute_unsupported"``) marks
  statistics-only systems asked to ``execute()`` a query;
* :class:`ReliabilityError` (``"reliability"``) — fault-handling
  outcomes surfaced by :mod:`repro.reliability`: the concrete
  :class:`repro.reliability.policy.DeadlineExceededError`
  (``"deadline_exceeded"``),
  :class:`repro.reliability.breaker.CircuitOpenError`
  (``"circuit_open"``) and
  :class:`repro.reliability.shedding.OverloadedError`
  (``"overloaded"``);
* :class:`ObservabilityError` (``"obs"``) — misconfigured tracing,
  metrics or slow-query logging (:mod:`repro.obs`);
* the cluster tier (:mod:`repro.cluster`) adds
  :class:`~repro.cluster.delta.DeltaError` (``"delta"``) /
  :class:`~repro.cluster.delta.DeltaUnsupportedError`
  (``"delta_unsupported"``) under :class:`BuildError`, and
  :class:`~repro.cluster.router.ClusterError` (``"cluster"``) /
  :class:`~repro.cluster.router.ReplicasExhaustedError`
  (``"replicas_exhausted"``) under :class:`ReliabilityError`.

The full slug → canonical-class mapping is exported as
:data:`WIRE_KINDS` (built lazily to avoid import cycles); the handful of
transport-only slugs that have no exception class behind them (HTTP
request validation, client socket failures) are listed in
:data:`TRANSPORT_WIRE_KINDS`.

All of them except :class:`ReliabilityError` also subclass
:class:`ValueError`: the concrete classes predate the hierarchy and were
plain ``ValueError`` subclasses, so existing ``except ValueError`` call
sites keep working.  The reliability family is new and models runtime
conditions, not bad values, so it subclasses :class:`RuntimeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every intentional failure raised by :mod:`repro`."""

    #: Stable machine-readable slug for this failure family; the service
    #: returns it as ``error.kind`` and never renames existing values.
    kind = "error"


class ParseError(ReproError, ValueError):
    """Malformed XML document text."""

    kind = "parse"


class QuerySyntaxError(ReproError, ValueError):
    """Malformed XPath query text."""

    kind = "query_syntax"


class PersistError(ReproError, ValueError):
    """Synopsis serialization or deserialization failure."""

    kind = "persist"


class BuildError(ReproError, ValueError):
    """Synopsis construction failure (streaming scan, sharding, merge)."""

    kind = "build"


class PlanError(ReproError, ValueError):
    """Planning or plan-execution failure (:mod:`repro.plan`)."""

    kind = "plan"


class ExecutionUnsupportedError(PlanError):
    """``execute()`` asked of a system that cannot run queries.

    Systems built from streamed sources or loaded from snapshots carry
    statistics only — no document to evaluate against.  Estimation and
    ``explain`` still work; execution needs a document (build from a
    parsed :class:`~repro.xmltree.document.XmlDocument`, or pass
    ``document=`` explicitly).
    """

    kind = "execute_unsupported"


class ReliabilityError(ReproError, RuntimeError):
    """A fault-handling outcome: deadline, open circuit, overload, ...

    Raised by :mod:`repro.reliability` when a guard refuses or abandons
    work on purpose — the condition is about the *runtime* (time budget
    spent, dependency unhealthy, server saturated), never about the
    request's content.
    """

    kind = "reliability"


class ObservabilityError(ReproError, ValueError):
    """Misuse of the observability subsystem (:mod:`repro.obs`).

    Bad metric/label names, re-registering a metric under a different
    type, invalid histogram bounds or sample rates.  Observability code
    fails loudly at registration/configuration time so it can never fail
    midway through a traced request.
    """

    kind = "obs"


def error_kind(error: BaseException) -> str:
    """The stable ``error.kind`` slug for any exception."""
    return getattr(error, "kind", "internal") if isinstance(error, ReproError) else "internal"


#: Wire kinds that exist only at the transport layer: HTTP request
#: validation on the server, socket failures on the client.  They have
#: no :class:`ReproError` class behind them but are equally stable.
TRANSPORT_WIRE_KINDS = frozenset(
    {
        "bad_request",
        "not_found",
        "internal",
        "connection",
        "timeout",
        "bad_response",
        "read_timeout",
        "unknown_tier",
    }
)


def _build_wire_kinds():
    """kind slug -> canonical exception class, one entry per slug.

    Local imports keep :mod:`repro.errors` import-cycle-free (everything
    imports it; it imports nothing from the package at module scope).
    """
    from repro.cluster.delta import DeltaError, DeltaUnsupportedError
    from repro.cluster.router import ClusterError, ReplicasExhaustedError
    from repro.core.transform import UnsupportedQueryError
    from repro.reliability.breaker import CircuitOpenError
    from repro.reliability.policy import DeadlineExceededError
    from repro.reliability.shedding import OverloadedError
    from repro.service.registry import UnknownSynopsisError
    from repro.shm.kernelpack import KernelPackError
    from repro.shm.pool import WorkerPoolError

    return {
        ReproError.kind: ReproError,
        ParseError.kind: ParseError,
        QuerySyntaxError.kind: QuerySyntaxError,
        PersistError.kind: PersistError,
        BuildError.kind: BuildError,
        PlanError.kind: PlanError,
        ExecutionUnsupportedError.kind: ExecutionUnsupportedError,
        ReliabilityError.kind: ReliabilityError,
        ObservabilityError.kind: ObservabilityError,
        UnsupportedQueryError.kind: UnsupportedQueryError,
        DeadlineExceededError.kind: DeadlineExceededError,
        CircuitOpenError.kind: CircuitOpenError,
        OverloadedError.kind: OverloadedError,
        UnknownSynopsisError.kind: UnknownSynopsisError,
        KernelPackError.kind: KernelPackError,
        WorkerPoolError.kind: WorkerPoolError,
        DeltaError.kind: DeltaError,
        DeltaUnsupportedError.kind: DeltaUnsupportedError,
        ClusterError.kind: ClusterError,
        ReplicasExhaustedError.kind: ReplicasExhaustedError,
    }


def __getattr__(name):
    """PEP 562: materialize ``WIRE_KINDS`` lazily (avoids import cycles)."""
    if name == "WIRE_KINDS":
        mapping = _build_wire_kinds()
        globals()[name] = mapping
        return mapping
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
