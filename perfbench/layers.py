"""Per-layer timings, taken from outside the program.

Spans are recorded around calls into each layer's public functions; no
code under ``src/`` changes.  The estimator layers are timed by running
the public ``repro.core`` route functions with timing proxies in place of
``system.kernel()`` and the path/order statistics providers.  The path
proxy exposes ``_inner``, so ``SynopsisKernel.supports`` still accepts it
and the kernel path is the one measured.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional

from repro.core import estimate_no_order, estimate_with_order, rewrite_scoped_order_query
from repro.core.system import ROUTE_NO_ORDER, ROUTE_ORDER, ROUTE_SCOPED, EstimationSystem

now = time.perf_counter_ns

#: Layers inside the server-reported ``elapsed_ms`` of an estimate; with
#: ``service.wire`` (the rest of the round trip) they partition a read.
EXECUTE_LAYERS = (
    "semcache.lookup", "core.estimate", "kernel.join",
    "histograms.p_lookup", "histograms.o_lookup", "semcache.store",
)


class _Span:
    __slots__ = ("spans", "record")

    def __init__(self, spans: "Spans", name: str):
        self.spans = spans
        stack = spans._stack
        self.record = [name, 0, 0, stack[-1] if stack else -1, spans.request]

    def __enter__(self):
        spans = self.spans
        spans._stack.append(len(spans.records))
        spans.records.append(self.record)
        self.record[1] = now()
        return self

    def __exit__(self, *exc_info):
        self.record[2] = now()
        self.spans._stack.pop()


class Spans:
    """In-memory span log: ``[name, start_ns, end_ns, parent, request]``."""

    def __init__(self):
        self.records: List[list] = []
        self._stack: List[int] = []
        #: Identifier stamped on every span opened from now on.
        self.request: Optional[str] = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, duration_ns: int) -> None:
        """A finished leaf span measured by the caller."""
        end = now()
        stack = self._stack
        self.records.append([name, end - duration_ns, end, stack[-1] if stack else -1, self.request])

    def self_times(self) -> List[int]:
        """Per span: duration minus the time its children cover."""
        children: Dict[int, List[int]] = {}
        for index, record in enumerate(self.records):
            if record[3] >= 0:
                children.setdefault(record[3], []).append(index)
        result = []
        for index, (_, start, end, _, _) in enumerate(self.records):
            covered, reach = 0, start
            for child in sorted(children.get(index, ()), key=lambda i: self.records[i][1]):
                child_start, child_end = self.records[child][1], self.records[child][2]
                if child_end > reach:
                    covered += child_end - max(child_start, reach)
                    reach = child_end
            result.append(end - start - covered)
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.records:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "request": request}) + "\n")


# ----------------------------------------------------------------------
# Timing proxies for the estimator layers
# ----------------------------------------------------------------------


class _Timed:
    """Proxy base: the wrapped object is ``_inner``; whatever a subclass
    does not time is forwarded to it."""

    def __init__(self, inner, spans: Spans, counts: Dict[str, int]):
        self._inner = inner
        self._spans = spans
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedPathStats(_Timed):
    """p-histogram provider proxy (``_inner`` keeps the kernel engaged)."""

    def frequency_pairs(self, tag):
        self._counts["p_lookups"] += 1
        with self._spans.span("histograms.p_lookup"):
            return self._inner.frequency_pairs(tag)

    def frequency_map(self, tag):
        self._counts["p_lookups"] += 1
        with self._spans.span("histograms.p_lookup"):
            return self._inner.frequency_map(tag)


class TimedOrderStats(_Timed):
    """o-histogram provider proxy."""

    def order_count(self, tag, pid, other_tag, before):
        self._counts["o_lookups"] += 1
        with self._spans.span("histograms.o_lookup"):
            return self._inner.order_count(tag, pid, other_tag, before)


class TimedKernel(_Timed):
    """``system.kernel()`` proxy timing each bitset join.

    A kernel join reads one compiled p-histogram row per query node,
    which the system's own trace reports as p-histogram lookups; they
    are counted here as ``kernel_p_reads``.
    """

    def join(self, query, **kwargs):
        self._counts["joins"] += 1
        self._counts["kernel_p_reads"] += len(query.nodes())
        with self._spans.span("kernel.join"):
            return self._inner.join(query, **kwargs)


def new_counts() -> Dict[str, int]:
    return dict.fromkeys(("estimates", "joins", "p_lookups", "kernel_p_reads", "o_lookups", "variants"), 0)


def proxied_estimate(system: EstimationSystem, parsed, spans: Spans, counts: Dict[str, int]) -> float:
    """One estimate through the public route functions, every layer
    behind a timing proxy (mirrors ``EstimationSystem.estimate``)."""
    kernel = system.kernel()
    path = TimedPathStats(system.path_provider, spans, counts)
    order = TimedOrderStats(system.order_provider, spans, counts)
    timed_kernel = TimedKernel(kernel, spans, counts) if kernel is not None else None
    table = system.encoding_table

    def routed(query) -> float:
        route = EstimationSystem.select_route(query)
        if route == ROUTE_SCOPED:
            variants = rewrite_scoped_order_query(query, path, table, kernel=timed_kernel)
            counts["variants"] += len(variants)
            return sum(routed(variant) for variant in variants)
        if route == ROUTE_ORDER:
            return estimate_with_order(query, path, order, table, kernel=timed_kernel)
        assert route == ROUTE_NO_ORDER, route
        return estimate_no_order(query, path, table, kernel=timed_kernel)

    counts["estimates"] += 1
    with spans.span("core.estimate"):
        return routed(parsed)


# ----------------------------------------------------------------------
# In-process replay of a run's requests
# ----------------------------------------------------------------------


class Replay:
    """Two in-process copies of the served state, fed the same ops.

    ``service`` (an ``EstimationService`` over a copy of the snapshot
    directory, CLI defaults) times ``handle_estimate``/``handle_delta``;
    ``systems`` (``persist.load`` of the same snapshots, with their own
    semantic caches) replay a read layer by layer: registry lookup,
    uncached parse, canonicalization, semcache lookup, route, the proxied
    estimate on a miss, semcache store, and the JSON encoding of the
    handler's reply.
    """

    def __init__(self, snapshot_dir: str, names, spans: Spans):
        from repro import persist
        from repro.service import EstimationService, PlanCache, SynopsisRegistry

        registry = SynopsisRegistry(snapshot_dir, check_interval=0.0)
        registry.scan()
        self.service = EstimationService(registry, plan_cache=PlanCache(512), semcache_capacity=4096)
        self.systems = {name: persist.load("%s/%s.json" % (snapshot_dir, name)) for name in names}
        self.spans = spans
        self.counts = new_counts()
        self.mismatches = 0

    def system(self, name: str) -> EstimationSystem:
        system = self.systems[name]
        if system.incremental is not None:
            system = self.systems[name] = system.incremental.system
        if system.semcache.capacity != 4096:
            system.semcache.configure(4096, None)
        return system

    def run(self, op: dict, served: List[float], request: str) -> None:
        """Replay one op; ``served`` are the values the server returned
        for it, checked bit for bit."""
        from repro import persist
        from repro.semcache import canonical_key, options_fingerprint
        from repro.xpath import parse_query

        spans = self.spans
        spans.request = request
        name = op["synopsis"]
        if op["kind"] == "write":
            self.service.handle_delta({"synopsis": name, "partial": op["partial"]})
            self.system(name).incremental.apply(persist.partial_from_dict(op["partial"]))
            return
        queries = op["queries"]
        payload = {"synopsis": name, "queries": queries} if op["batched"] else {
            "synopsis": name, "query": queries[0]}
        started = now()
        body = self.service.handle_estimate(payload)
        spans.add("service.handle", now() - started)
        fingerprint = options_fingerprint(True, True)
        values = []
        with spans.span("request"):
            with spans.span("service.registry_get"):
                self.service.registry.get(name)
            system = self.system(name)
            for text in queries:
                with spans.span("xpath.parse"):
                    parsed = parse_query(text)
                with spans.span("semcache.canonical"):
                    key = canonical_key(parsed)
                with spans.span("semcache.lookup"):
                    hit, value = system.semcache.get(key, fingerprint)
                with spans.span("core.route"):
                    EstimationSystem.select_route(parsed)
                if not hit:
                    value = proxied_estimate(system, parsed, spans, self.counts)
                    if value != system.estimate(text):
                        self.mismatches += 1
                    with spans.span("semcache.store"):
                        system.semcache.put(key, fingerprint, value)
                values.append(value)
            with spans.span("service.json_encode"):
                json.dumps(body)
        if values != served:
            self.mismatches += 1


# ----------------------------------------------------------------------
# Probes of single layers
# ----------------------------------------------------------------------


def _median_ms(samples_ns: List[int]) -> float:
    return statistics.median(samples_ns) / 1e6


def setup_probe(inputs, names, folder: str, repeats: int = 3) -> Dict[str, float]:
    """The construction layers of one set-up, summed over the served
    synopses; medians of ``repeats`` passes."""
    from repro import persist
    from repro.build.builder import SynopsisBuilder
    from repro.histograms.ohistogram import OHistogramSet
    from repro.histograms.phistogram import PHistogramSet
    from repro.pathenc.bintree import PathIdBinaryTree

    samples: Dict[str, List[int]] = {key: [] for key in (
        "build.collect_ms", "histograms.build_ms", "pathenc.bintree_ms",
        "persist.save_ms", "persist.load_ms")}
    for _ in range(repeats):
        totals = dict.fromkeys(samples, 0)
        for name in names:
            with open(inputs.xml_path(name), encoding="utf-8") as handle:
                text = handle.read()
            t0 = now()
            tables = SynopsisBuilder().collect_text(text)
            t1 = now()
            phist = PHistogramSet.from_table(tables.pathid_table, 0.0)
            OHistogramSet.from_table(tables.order_table, phist, 0.0)
            t2 = now()
            PathIdBinaryTree(list(tables.distinct_pathids), tables.encoding_table.width).compress()
            t3 = now()
            system = SynopsisBuilder().from_text(text, name=name)
            path = "%s/%s.json" % (folder, name)
            t4 = now()
            persist.save(system, path)
            t5 = now()
            persist.load(path)
            t6 = now()
            for key, value in (("build.collect_ms", t1 - t0), ("histograms.build_ms", t2 - t1),
                               ("pathenc.bintree_ms", t3 - t2), ("persist.save_ms", t5 - t4),
                               ("persist.load_ms", t6 - t5)):
                totals[key] += value
        for key, value in totals.items():
            samples[key].append(value)
    return {key: _median_ms(values) for key, values in samples.items()}


def cluster_probe(snapshot_path: str, writes: List[dict], root_tag: str, count: int = 12) -> Dict[str, float]:
    """Delta-path layers on a replica of the incremental synopsis, over
    the run's first ``count`` writes: fragment scan, partial decode,
    forced refresh and the full kernel compile of the refreshed system."""
    from repro import persist
    from repro.build.stream import scan_text

    maintainer = persist.load(snapshot_path).incremental
    scans, decodes, refreshes, compiles = [], [], [], []
    for op in writes[:count]:
        t0 = now()
        scan_text(op["record"], (root_tag,))
        t1 = now()
        partial = persist.partial_from_dict(op["partial"])
        t2 = now()
        maintainer.apply(partial)
        t3 = now()
        system = maintainer.refresh()
        t4 = now()
        system.kernel().compile_full()
        t5 = now()
        scans.append(t1 - t0)
        decodes.append(t2 - t1)
        refreshes.append(t4 - t3)
        compiles.append(t5 - t4)
    return {
        "build.fragment_scan_ms": _median_ms(scans),
        "persist.partial_decode_ms": _median_ms(decodes),
        "cluster.refresh_ms": _median_ms(refreshes),
        "kernel.compile_ms": _median_ms(compiles),
    }


def p_lookup_probe(systems: Dict[str, EstimationSystem], texts: Dict[str, List[str]]) -> float:
    """Mean microseconds of one p-histogram provider lookup over the node
    tags of the run's queries (the served kernel path reads compiled rows
    instead, so the provider is probed directly)."""
    from repro.xpath import parse_query

    total, calls = 0, 0
    for name, queries in texts.items():
        provider = systems[name].path_provider
        tags = [node.tag for text in queries for node in parse_query(text).nodes()]
        started = now()
        for tag in tags:
            provider.frequency_pairs(tag)
        total += now() - started
        calls += len(tags)
    return total / max(1, calls) / 1e3
