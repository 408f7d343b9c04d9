"""Extra experiment — estimation-service throughput, plan cache on vs off.

The serving claim: a long-lived synopsis server with a compiled-plan LRU
(parsed AST + route + scoped rewrite + canonical key + kernel plan,
keyed by synopsis generation) answers hot queries without re-parsing,
re-routing or re-planning.  Both arms run the shipped configuration:
the semantic result cache stays on, so the A/B measures only what the
plan cache adds on top of it.  Each sweep starts from an empty semantic
cache, so its first requests execute their compiled plans and later
ones are served from the cache.  The load
generator drives an **in-process** threaded HTTP server — real sockets,
real JSON, real handler threads — with 8 concurrent clients sweeping
the Table-2 workload, and compares QPS and p95 latency between a warm
plan cache and a disabled one (capacity 0).

Correctness is pinned alongside the speed claim: every served estimate
is checked byte-for-byte against direct ``EstimationSystem.estimate``.
The semantic cache is emptied after the direct pass and before every
sweep, so each compared value was computed by a served plan, not read
back from the direct pass.
"""

from __future__ import annotations

import threading
import time

from repro.harness.tables import format_table, record_result
from repro.service import (
    EstimationService,
    PlanCache,
    EndpointClient,
    ServiceServer,
    SynopsisRegistry,
)

CLIENT_THREADS = 8
PASSES_PER_THREAD = 2
MAX_QUERIES = 120


def _drive(server, texts, passes=PASSES_PER_THREAD, threads=CLIENT_THREADS):
    """Sweep ``texts`` from ``threads`` concurrent clients; returns
    (qps, p95_ms, hit_rate, results-by-text from one thread)."""
    results = {}
    errors = []

    def worker(offset, collect):
        client = EndpointClient(port=server.port)
        rotated = texts[offset:] + texts[:offset]
        for _ in range(passes):
            for text in rotated:
                try:
                    value = client.estimate("SSPlays", text)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append((text, error))
                    return
                if collect:
                    results[text] = value

    start = time.perf_counter()
    pool = [
        threading.Thread(target=worker, args=(i * 7, i == 0))
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[:3]

    metrics = EndpointClient(port=server.port).metrics()
    qps = threads * passes * len(texts) / elapsed
    p95 = metrics["latency_ms"]["p95_ms"]
    hit_rate = metrics["plan_cache"]["hit_rate"]
    return qps, p95, hit_rate, results


def _drive_batch(server, texts, passes=PASSES_PER_THREAD, threads=CLIENT_THREADS):
    """Same sweep through the batch endpoint; returns (qps, results).

    Each pass is one ``POST /estimate`` with every text **twice**: the
    duplicate half exercises the batch-local memo (computed once, served
    twice), and all queries of the batch share one warm kernel.
    """
    batch = texts + texts
    results = {}
    errors = []

    def worker(offset, collect):
        client = EndpointClient(port=server.port)
        rotated = batch[offset:] + batch[:offset]
        for _ in range(passes):
            try:
                values = client.estimate_batch("SSPlays", rotated)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)
                return
            if collect:
                results.update(zip(rotated, values))

    start = time.perf_counter()
    pool = [
        threading.Thread(target=worker, args=(i * 7, i == 0))
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[:3]
    qps = threads * passes * len(batch) / elapsed
    return qps, results


def test_service_throughput(ctx, benchmark):
    system = ctx.factory("SSPlays").system(0, 0)
    workload = ctx.workload("SSPlays")
    items = (workload.simple + workload.branch + workload.order_branch)[:MAX_QUERIES]
    texts = [item.text for item in items]
    direct = {item.text: system.estimate(item.query) for item in items}
    system.semcache.clear()

    def run(cache_capacity, driver=_drive):
        system.semcache.clear()
        registry = SynopsisRegistry()
        registry.register("SSPlays", system)
        service = EstimationService(registry, plan_cache=PlanCache(cache_capacity))
        with ServiceServer(service, port=0) as server:
            return driver(server, texts)

    # Timing kernel for the benchmark harness: one cached sweep.
    benchmark.pedantic(lambda: run(1024), rounds=1, iterations=1)

    # Interleaved best-of-3 sweeps per arm: thread-pool timing on a
    # loaded host jitters far more than the cache effect at smoke scale,
    # and interleaving means a load swing hits both arms instead of
    # penalizing whichever happened to run second.
    on_measured = []
    off_measured = []
    for _ in range(3):
        on_measured.append(run(1024))
        off_measured.append(run(0))
    on_qps, on_p95, on_hit_rate, on_results = max(
        on_measured, key=lambda measured: measured[0]
    )
    off_qps, off_p95, off_hit_rate, off_results = max(
        off_measured, key=lambda measured: measured[0]
    )
    batch_qps, batch_results = run(1024, driver=_drive_batch)

    # Served numbers are the direct numbers — cache, batch or neither.
    assert on_results == direct
    assert off_results == direct
    assert batch_results == direct

    rows = [
        ["cache on (1024)", len(texts), "%.0f" % on_qps, "%.2f" % on_p95,
         "%.0f%%" % (100 * on_hit_rate)],
        ["cache off", len(texts), "%.0f" % off_qps, "%.2f" % off_p95,
         "%.0f%%" % (100 * off_hit_rate)],
        ["batch endpoint", 2 * len(texts), "%.0f" % batch_qps, "-", "-"],
        ["speedup", "-", "%.2fx" % (on_qps / max(off_qps, 1e-9)), "-", "-"],
        ["batch speedup", "-", "%.2fx" % (batch_qps / max(on_qps, 1e-9)), "-", "-"],
    ]
    record_result(
        "service_throughput",
        format_table(
            ["Plan cache", "#queries", "QPS", "p95 (ms)", "hit rate"],
            rows,
            title="Extra: service throughput, %d client threads (SSPlays workload)"
            % CLIENT_THREADS,
        ),
    )
    # The tentpole claim: the compiled-plan cache is a measurable win.
    assert on_hit_rate > 0.5 and off_hit_rate == 0.0
    assert on_qps > off_qps
    # Batching amortizes HTTP round trips and shares the per-batch memo
    # (duplicates are computed once), so it must beat per-query QPS.
    assert batch_qps > on_qps
