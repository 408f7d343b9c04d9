"""Extra experiment — estimation latency vs exact evaluation.

The reason estimators exist: an optimizer cannot afford to *evaluate* a
query to learn its cardinality.  Two claims are measured:

1. on the regular datasets the estimator is several times faster than
   exact evaluation even at bench scale;
2. estimation latency is (near) document-size independent — it works on
   the synopsis — while evaluation cost grows linearly with the document,
   so the gap widens with scale (the paper's corpora are 10-100x larger).

Every estimate timed here is computed: the system's semantic result
cache is at capacity 0 for the sweeps, so a repeat query is estimated
again rather than replayed from the cache.

XMark at bench scale is the adversarial case: ~1000 distinct path ids
make the join itself non-trivial while the document is still small enough
to evaluate quickly.  The scaling measurement runs on DBLP, whose path-id
inventory *saturates* (74 paths regardless of size): growing the corpus
leaves the synopsis — and the estimation latency — nearly unchanged while
evaluation cost grows with the document.  (XMark's recursion keeps
instantiating new path types as it grows, so its synopsis is not
scale-free; that caveat is the honest footnote to the crossover
argument.)
"""

import os
import time
from contextlib import contextmanager

from repro.core.noorder import estimate_no_order
from repro.datasets import generate
from repro.harness import SystemFactory
from repro.harness.tables import format_table, record_result
from repro.workload import WorkloadGenerator
from repro.xpath import Evaluator

#: Hard gate for the compiled-kernel join vs the legacy join on the
#: XMark workload.  The CI perf-smoke job runs at reduced scale where
#: the margin is thinner and overrides this to "no slower than legacy".
KERNEL_MIN_SPEEDUP = float(os.environ.get("REPRO_KERNEL_MIN_SPEEDUP", "2.0"))
KERNEL_REPEATS = 5


@contextmanager
def _uncached(system):
    """Estimate with ``system``'s semantic result cache at capacity 0,
    so every ``estimate`` call computes instead of replaying a hit."""
    cache = system.semcache
    capacity, ttl_s = cache.capacity, cache.ttl_s
    cache.configure(0, None)
    try:
        yield
    finally:
        cache.configure(capacity, ttl_s)


def _best_loop_s(actions, repeats):
    """Best-of-N loop time per action, samples interleaved round-robin
    (same low-noise harness as ``bench_obs_overhead``)."""
    best = [float("inf")] * len(actions)
    for _ in range(repeats):
        for index, action in enumerate(actions):
            start = time.perf_counter()
            action()
            elapsed = time.perf_counter() - start
            if elapsed < best[index]:
                best[index] = elapsed
    return best


def _kernel_vs_legacy(system, items, repeats=None):
    """Best-of sweep times (kernel path, legacy path) over ``items``.

    The kernel arm runs ``system.estimate`` uncached; the legacy arm
    calls the reference estimator (``estimate_no_order`` without
    ``kernel=``, the Section 4 dict join).  Both arms share the provider
    and the encoding table, so the only difference is the join
    representation.
    """
    path, table = system.path_provider, system.encoding_table

    def sweep_kernel():
        for item in items:
            system.estimate(item.query)

    def sweep_legacy():
        for item in items:
            estimate_no_order(item.query, path, table)

    with _uncached(system):
        sweep_kernel()  # warm: compiles tag tables and pairs
        sweep_legacy()  # warm: fills the legacy support caches
        return _best_loop_s(
            [sweep_kernel, sweep_legacy],
            KERNEL_REPEATS if repeats is None else repeats,
        )


def _latencies(document, count=250, factory=None, workload=None):
    factory = factory or SystemFactory(document)
    system = factory.system(0, 0)
    if workload is None:
        generator = WorkloadGenerator(document, seed=17)
        workload = generator.full_workload(300, 300, 0).no_order()
    workload = workload[:count]
    evaluator = Evaluator(document)
    with _uncached(system):
        for item in workload:  # warm every per-document cache (steady state)
            system.estimate(item.query)

        start = time.perf_counter()
        for item in workload:
            system.estimate(item.query)
        estimate_ms = (time.perf_counter() - start) / len(workload) * 1000

    start = time.perf_counter()
    for item in workload:
        evaluator.selectivity(item.query)
    evaluate_ms = (time.perf_counter() - start) / len(workload) * 1000
    return estimate_ms, evaluate_ms, len(workload)


def test_estimation_throughput(ctx, benchmark):
    system = ctx.factory("SSPlays").system(0, 0)
    items = ctx.workload("SSPlays").no_order()[:200]
    benchmark.pedantic(
        lambda: [system.estimate(i.query) for i in items], rounds=1, iterations=1
    )

    rows = []
    speedups = {}
    for name in ("SSPlays", "DBLP", "XMark"):
        estimate_ms, evaluate_ms, count = _latencies(
            ctx.document(name),
            factory=ctx.factory(name),
            workload=ctx.workload(name).no_order(),
        )
        speedups[name] = evaluate_ms / max(estimate_ms, 1e-9)
        rows.append(
            [name, count, "%.2f ms" % estimate_ms, "%.2f ms" % evaluate_ms,
             "%.1fx" % speedups[name]]
        )

    # Compiled kernel vs legacy join on the adversarial dataset: XMark's
    # ~1000 path ids are exactly what the containment bitmatrices and
    # the shared support memo are for.
    xmark_system = ctx.factory("XMark").system(0, 0)
    xmark_items = ctx.workload("XMark").no_order()[:250]
    kernel_s, legacy_s = _kernel_vs_legacy(xmark_system, xmark_items)
    kernel_speedup = legacy_s / max(kernel_s, 1e-9)
    rows.append(
        ["XMark join: kernel", len(xmark_items),
         "%.3f ms" % (1e3 * kernel_s / len(xmark_items)), "-",
         "%.1fx vs legacy" % kernel_speedup]
    )
    rows.append(
        ["XMark join: legacy", len(xmark_items),
         "%.3f ms" % (1e3 * legacy_s / len(xmark_items)), "-", "-"]
    )

    # Scaling: estimation is synopsis-bound, evaluation document-bound —
    # measured on DBLP, whose path-id inventory saturates with size.
    small = _latencies(generate("DBLP", scale=0.3))
    large = _latencies(generate("DBLP", scale=1.2))
    estimate_growth = large[0] / max(small[0], 1e-9)
    evaluate_growth = large[1] / max(small[1], 1e-9)
    rows.append(
        ["DBLP 0.3->1.2 scale", "-", "grows %.1fx" % estimate_growth,
         "grows %.1fx" % evaluate_growth, "-"]
    )
    record_result(
        "throughput",
        format_table(
            ["Dataset", "#queries", "estimate/query", "evaluate/query", "speedup"],
            rows,
            title="Extra: estimation latency vs exact evaluation",
        ),
    )
    # Regular datasets: the estimator wins outright even at bench scale.
    assert speedups["SSPlays"] > 2 and speedups["DBLP"] > 2
    # The compiled kernel flips the adversarial dataset: estimation now
    # beats exact evaluation on XMark too.
    assert speedups["XMark"] > 1
    # And the kernel join itself must clear its margin over the legacy
    # join (CI smoke relaxes the factor via REPRO_KERNEL_MIN_SPEEDUP).
    assert kernel_speedup >= KERNEL_MIN_SPEEDUP, (
        "kernel join only %.2fx faster than legacy (need %.1fx)"
        % (kernel_speedup, KERNEL_MIN_SPEEDUP)
    )
    # Evaluation cost must grow markedly faster with document size than
    # estimation cost (the crossover argument for XMark).
    assert evaluate_growth > estimate_growth * 1.3