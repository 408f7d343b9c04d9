"""Reproduction of *An Estimation System for XPath Expressions* (ICDE 2006).

A selectivity estimator for XPath queries with and without order-based
axes, built on the path encoding scheme, p-/o-histograms and the join-based
estimation formulas of the paper — together with the substrates (XML tree
model and parser, path-id binary tree), baselines (XSketch-style graph
synopsis, Markov path models), synthetic datasets and the full experiment
harness.

Quickstart::

    import repro

    system = repro.build_synopsis("<Root><A><B/><C/></A></Root>")
    system.estimate("//A/$B")               # -> 1.0
    system.estimate("//A[/B/folls::$C]")    # order axis
    system.explain("//A/$B")                # -> cost-based Plan IR
    system.execute("//A/$B")                # -> matches + estimate + plan
    system.estimate(
        "//A/$B", options=repro.EstimateOptions(trace=True)
    )                                       # EstimateResult with span tree

``build_synopsis`` accepts XML text, a filesystem path, or a parsed
``XmlDocument``; pass ``workers=N`` to scan a large document in parallel
shards (the result is bit-identical either way).  See docs/API.md for the
full surface and DESIGN.md for the system inventory.

Against a running estimation service (one instance, a worker pool, or a
sharded cluster behind the scatter-gather router), the front door is
:func:`repro.connect`::

    with repro.connect("localhost:8750") as client:
        client.estimate("SSPlays", "//PLAY/ACT/$SCENE")   # EstimateResult
"""

from repro.build.builder import SynopsisBuilder, build_synopsis
from repro.core.options import EstimateOptions, ExecuteOptions, ExplainOptions
from repro.core.result import EstimateResult
from repro.core.system import EstimationSystem
from repro.errors import (
    BuildError,
    ObservabilityError,
    ParseError,
    PersistError,
    QuerySyntaxError,
    ReproError,
)
from repro.xmltree.parser import parse_xml
from repro.xpath.parser import parse_query

__version__ = "2.0.0"

#: The supported public surface.  Everything else lives in its home
#: submodule (``repro.xmltree``, ``repro.xpath``, ``repro.core``, ...).
__all__ = [
    "EstimateOptions",
    "EstimateResult",
    "EstimationSystem",
    "ExecuteOptions",
    "ExecutionResult",
    "ExplainOptions",
    "Plan",
    "SynopsisBuilder",
    "build_synopsis",
    "connect",
    "parse_xml",
    "parse_query",
    "ReproError",
    "ParseError",
    "QuerySyntaxError",
    "PersistError",
    "BuildError",
    "ObservabilityError",
    "__version__",
]

#: Lazily imported public names -> (module, attribute).  The plan IR sits
#: behind the execution machinery; importing it eagerly would make
#: ``import repro`` pay for the whole queryproc stack.
_LAZY = {
    "Plan": ("repro.plan.ir", "Plan"),
    "ExecutionResult": ("repro.plan.ir", "ExecutionResult"),
}


def connect(target=None, **kwargs):
    """Open a cluster-aware estimation client (lazy wrapper around
    :func:`repro.cluster.client.connect` so ``import repro`` does not pay
    for the service/cluster stack)."""
    from repro.cluster.client import connect as _connect

    return _connect(target, **kwargs)


def __getattr__(name):
    """PEP 562 hook: import the lazy public names on first use."""
    lazy = _LAZY.get(name)
    if lazy is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib

    value = getattr(importlib.import_module(lazy[0]), lazy[1])
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))
