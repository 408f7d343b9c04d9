"""Garbage-collector cost of cold serving traffic, measured in process.

Pushes perfbench's own ``cold-batch`` plan (its warm-up set, then batches
of 6 never-repeating queries round-robin over SSPlays, DBLP and XMark)
through ``EstimationService.handle_estimate`` with the ``repro serve``
defaults, and counts what the collector did: collections per
generation, the time spent in them, the longest single pause, the
GC-tracked objects still alive afterwards and the peak RSS.  It attributes
a ``read_p99_ms`` change on ``cold-batch`` to full collections or rules
them out.  It also counts the estimates asked for and the kernel joins
they ran (summed over the three served synopses), which attributes a
change in per-estimate CPU to the join stage.

    PYTHONPATH=src:. python3 benchmarks/gc_cold_batches.py --batches 1500

``--gc-threshold`` sets the young-generation threshold; it defaults to
the value the serving daemons set (``SERVING_GC_THRESHOLD``).  Pass 700
for the interpreter default.  The inputs come from perfbench's prep
cache, which is built first if this source tree has none (~100 s).
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def main(argv=None) -> int:
    from perfbench.drive import make_plan
    from perfbench.prep import DATASETS, build_snapshot, load_inputs
    from repro.service import EstimationService, PlanCache, SynopsisRegistry
    from repro.service.config import SERVING_GC_THRESHOLD

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--batches", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--gc-threshold", type=int, default=SERVING_GC_THRESHOLD[0],
        help="young-generation threshold (700 = interpreter default)",
    )
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inputs = load_inputs(log=lambda *parts: print(*parts, file=sys.stderr))
    plan = make_plan("cold-batch", inputs, args.seed)
    folder = tempfile.mkdtemp(prefix="gc-cold-")
    for name in DATASETS:
        build_snapshot(name, inputs.xml_path(name), folder)
    registry = SynopsisRegistry(folder)
    registry.scan()
    # The CLI defaults: plan cache 512, semcache 4096 per synopsis.
    service = EstimationService(
        registry, plan_cache=PlanCache(512), semcache_capacity=4096
    )
    for op in plan.warmup:
        service.handle_estimate(_payload(op))
    ops = plan.ops[: args.batches]
    gc.collect()
    gc.set_threshold(args.gc_threshold, *gc.get_threshold()[1:])

    pauses = []
    started = 0.0

    def on_gc(phase, info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            pauses.append((info["generation"], time.perf_counter() - started))

    joins_before = _kernel_joins(registry)
    before = [stats["collections"] for stats in gc.get_stats()]
    gc.callbacks.append(on_gc)
    cpu = time.process_time()
    for op in ops:
        service.handle_estimate(_payload(op))
    cpu = time.process_time() - cpu
    gc.callbacks.remove(on_gc)
    after = [stats["collections"] for stats in gc.get_stats()]
    full = [seconds for generation, seconds in pauses if generation == 2]
    kernel_joins = _kernel_joins(registry) - joins_before
    gc.collect()
    live = len(gc.get_objects())
    shutil.rmtree(folder)
    print(json.dumps({
        "batches": len(ops),
        "seed": args.seed,
        "gc_threshold": list(gc.get_threshold()),
        "collections": [b - a for a, b in zip(before, after)],
        "full_gc_s": round(sum(full), 3),
        "gc_s": round(sum(seconds for _, seconds in pauses), 3),
        "max_pause_ms": round(1000.0 * max((s for _, s in pauses), default=0.0), 1),
        "cpu_s": round(cpu, 2),
        "estimates": sum(len(op["queries"]) for op in ops),
        "kernel_joins": kernel_joins,
        "live_tracked_objects": live,
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }))
    return 0


def _kernel_joins(registry) -> int:
    return sum(
        registry.system(name).kernel().stats()["joins"]
        for name in registry.names()
    )


def _payload(op: dict) -> dict:
    return {"synopsis": op["synopsis"], "queries": op["queries"]}


if __name__ == "__main__":
    sys.exit(main())
