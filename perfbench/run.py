"""Service benchmark of the XPath selectivity estimator.

Drives a real ``repro serve --workers 1`` process from one
single-threaded client over one keep-alive connection, in a closed loop
(the next request leaves when the previous reply is in, as an optimizer
waits for each estimate)::

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
same workload with bench-side spans and prints the per-layer metrics.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every served value matched its in-process reference and the
workload passed its shape check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Time blocks of the timed phase; throughput, p50 and server CPU are
#: medians over the blocks.  An untraced run sets up once before the
#: first block and once between every two blocks, so its BLOCKS set-up
#: samples spread over the run like its blocks do: the host's speed
#: drifts over seconds, and set-ups taken back to back all see the same
#: moment of it.
BLOCKS = 8
#: Set-ups of a traced run (for service.start_ms), back to back.
TRACED_SETUPS = 3
#: read_p99_ms comes from the p99s of consecutive blocks of at least
#: P99_BLOCK reads: their lower decile when a run has P99_MIN_BLOCKS
#: blocks or more (zipf-hot), else their median (cold-batch).  Bursts
#: of host noise lift some blocks and, in a noisy stretch of the host,
#: most of them, while a tail the program causes in 1% of its reads is
#: in every block.  With few blocks a low quantile is just the smallest
#: block, on cold-batch its first, a transient: cold-batch's p99 is the
#: server's full garbage collections, whose pauses grow as its caches
#: fill.  See README.md.
P99_BLOCK = 1000
P99_MIN_BLOCKS = 10
P99_QUANTILE = 10
#: Shares of --seconds for the traced and the untraced phase of a
#: --trace 1 run.
TRACED_SHARE = 0.2
UNTRACED_SHARE = 0.4


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 100])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def steal_ticks():
    """(steal, total) CPU ticks of the host so far, from /proc/stat: the
    time a hypervisor ran something else on this machine's cores."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(field) for field in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def block_p99(values) -> float:
    """read_p99_ms of ``values``: the P99_QUANTILE-th percentile of the
    p99s of equal consecutive blocks of at least P99_BLOCK values, or
    their median when there are fewer than P99_MIN_BLOCKS blocks (one
    block when there are fewer values)."""
    blocks = max(1, len(values) // P99_BLOCK)
    size = len(values) // blocks
    p99s = [percentile(values[index * size:(index + 1) * size], 99) for index in range(blocks)]
    return percentile(p99s, P99_QUANTILE if blocks >= P99_MIN_BLOCKS else 50)


def workload_why(name: str):
    """The workload's reason from BENCHMARK.json (None without one)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            workloads = json.load(handle)["workloads"]
    except (OSError, ValueError, KeyError):
        return None
    return next((w["why"] for w in workloads if w["name"] == name), None)


def provenance(args) -> dict:
    from perfbench import prep

    revision, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src", "perfbench"],
                capture_output=True, text=True, check=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            revision, dirty = None, None
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "source_digest": prep.code_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": prep.SCALE,
        "host_cores": os.cpu_count(),
        # The client, the server and the set-ups all run on these cores
        # (one shared core; see server.shared_core).
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
    }


class Run:
    """One benchmark run: set-ups, warm-up, the timed phases, checks.

    The first set-up serves the run; later ones (spares) are started,
    timed and stopped at once.
    """

    def __init__(self, args, inputs):
        from perfbench import drive, server

        self.args = args
        self.inputs = inputs
        self.plan = drive.make_plan(args.workload, inputs, args.seed)
        self.core = server.shared_core()
        if self.core is not None:
            os.sched_setaffinity(0, {self.core})
        self.work = os.path.join(HERE, ".work", "%s-%d-%d" % (args.workload, args.seed, args.trace))
        self.out = os.path.join(HERE, ".out")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(self.out, exist_ok=True)
        self.setup_s = []
        self.start_s = []
        self.server = None

    def set_up(self) -> None:
        from perfbench import server

        folder = os.path.join(self.work, "snapshots-%d" % len(self.setup_s))
        # Objects alive now stay out of the set-up's garbage collections,
        # so the set-up costs the same whatever the run holds.
        gc.collect()
        gc.freeze()
        started, seconds, start_s = server.set_up(self.inputs, folder, self.core)
        self.setup_s.append(seconds)
        self.start_s.append(start_s)
        if self.server is None:
            self.server = started
            # The server writes DBLP back on each refreshing delta;
            # checks and replays start from the bytes it loaded.
            self.snapshots = os.path.join(self.work, "served")
            shutil.copytree(folder, self.snapshots)
        else:
            started.stop()
            shutil.rmtree(folder)

    def snapshot(self, name: str) -> str:
        return os.path.join(self.snapshots, name + ".json")

    def checker(self):
        from perfbench import drive, prep
        from repro import persist

        for name in prep.DATASETS:
            if prep.file_digest(self.snapshot(name)) != self.inputs.snapshot_sha[name]:
                raise RuntimeError(
                    "the served %s snapshot differs from the one the cached "
                    "references were taken on" % name)
        references = {name: self.inputs.reference(name) for name in prep.DATASETS}
        return drive.Checker(references, lambda: persist.load(self.snapshot(prep.APPEND)))

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def _reads(outcomes):
    return [o for o in outcomes if o.op["kind"] == "read" and o.error is None]


def _writes(outcomes):
    return [o for o in outcomes if o.op["kind"] == "write" and o.error is None]


def end_to_end(run, warm, blocks, hwm_kb) -> dict:
    """The end-to-end metrics of an untraced run; ``blocks`` are the
    timed phase's ``(outcomes, server cpu seconds)`` per time block."""
    from perfbench import prep

    reads = _reads([outcome for outcomes, _ in blocks for outcome in outcomes])
    rates, cpu_per_estimate, p50s = [], [], []
    for outcomes, cpu_s in blocks:
        estimates = sum(len(o.op["queries"]) for o in _reads(outcomes))
        wall_ns = outcomes[-1].start_ns + outcomes[-1].rtt_ns - outcomes[0].start_ns
        rates.append(estimates / (wall_ns / 1e9))
        cpu_per_estimate.append(cpu_s * 1e6 / estimates)
        p50s.append(percentile([o.rtt_ns / 1e6 for o in _reads(outcomes)], 50))

    from repro import persist
    from repro.harness.metrics import average_relative_error

    synopsis_bytes = 0.0
    for name in prep.DATASETS:
        synopsis_bytes += sum(persist.load(run.snapshot(name)).summary_sizes().values())
    # rel_error_mean: the fixed warm-up set as served at warm-up, the
    # same queries in every run.
    actual = {
        (name, item["text"]): item["actual"]
        for name in prep.DATASETS for item in run.inputs.warmup[name]
    }
    pairs = {}
    for outcome in _reads(warm):
        for text, value in zip(outcome.op["queries"], outcome.values):
            key = (outcome.op["synopsis"], text)
            if key in actual:
                pairs[key] = (value, actual[key])
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "estimates_per_s": (statistics.median(rates), "1/s"),
        "read_p50_ms": (statistics.median(p50s), "ms"),
        "read_p99_ms": (block_p99([o.rtt_ns / 1e6 for o in reads]), "ms"),
        "server_cpu_us_per_estimate": (statistics.median(cpu_per_estimate), "us"),
        "server_rss_mb": (hwm_kb / 1024.0, "MB"),
        "synopsis_kb": (synopsis_bytes / 1024.0, "KB"),
        "rel_error_mean": (average_relative_error(pairs.values()), "ratio"),
    }


def served_hit_rates(before: dict, after: dict):
    """(semcache hit rate, plan-cache hit rate) between two /metrics."""
    def delta(block, key):
        return after[block][key] - before[block][key]

    hits, misses = delta("semcache", "served_hits"), delta("semcache", "served_misses")
    plan_hits, plan_misses = delta("plan_cache", "hits"), delta("plan_cache", "misses")
    return (
        hits / max(1, hits + misses),
        plan_hits / max(1, plan_hits + plan_misses),
    )


def shape_check(workload: str, semcache_hit_rate: float) -> str:
    """'' when the workload did what it claims, else why not."""
    if workload == "cold-batch" and semcache_hit_rate != 0.0:
        return "cold-batch semcache hit rate %.4f, expected 0" % semcache_hit_rate
    if workload == "zipf-hot" and semcache_hit_rate < 0.9:
        return "zipf-hot semcache hit rate %.4f, expected >= 0.9" % semcache_hit_rate
    return ""


def untraced(run, client) -> tuple:
    from perfbench import drive

    warm = drive.drive(client, run.plan.warmup, None)
    before = client.metrics()
    steal = steal_ticks()
    blocks, sent = [], 0
    for index in range(BLOCKS):
        if sent == len(run.plan.ops):
            break  # a system fast enough to use up the pool
        if index:
            run.set_up()
        gc.disable()
        try:
            cpu0 = run.server.cpu_s()
            outcomes = drive.drive(client, run.plan.ops[sent:], run.args.seconds / BLOCKS)
            blocks.append((outcomes, run.server.cpu_s() - cpu0))
        finally:
            gc.enable()
        sent += len(outcomes)
    steal = [b - a for a, b in zip(steal, steal_ticks())]
    after = client.metrics()
    hwm_kb = run.server.peak_rss_kb()
    hit_rate, _ = served_hit_rates(before, after)
    metrics = end_to_end(run, warm, blocks, hwm_kb)
    problem = shape_check(run.args.workload, hit_rate)
    extra = {"semcache_hit_rate": hit_rate, "steal_pct": 100.0 * steal[0] / max(1, steal[1]),
             "setup_s_samples": run.setup_s,
             # Not a bounded metric: the p99 of all timed reads, every
             # burst of host noise included.
             "read_p99_pooled_ms": percentile(
                 [o.rtt_ns / 1e6 for outcomes, _ in blocks for o in _reads(outcomes)], 99)}
    return warm + [outcome for outcomes, _ in blocks for outcome in outcomes], metrics, problem, extra


def traced(run, client) -> tuple:
    """Traced phase (bench-side spans around each request), untraced
    phase, write tail; then the in-process replay and layer probes."""
    from perfbench import drive, layers, prep

    seconds = run.args.seconds
    spans = layers.Spans()
    warm = drive.drive(client, run.plan.warmup, None)
    ops = run.plan.ops
    traced_out = []
    deadline = None
    gc.disable()
    try:
        for index, op in enumerate(ops):
            spans.request = "r%d" % index
            with spans.span("client.request"):
                outcome = drive.send(client, op)
            traced_out.append(outcome)
            end = outcome.start_ns + outcome.rtt_ns
            deadline = deadline or outcome.start_ns + int(seconds * TRACED_SHARE * 1e9)
            if end >= deadline:
                break
        # The untraced phase continues where the traced one stopped, so
        # cold-batch never repeats a query.
        before = client.metrics()
        plain = drive.drive(client, ops[len(traced_out):], seconds * UNTRACED_SHARE)
        after = client.metrics()
    finally:
        gc.enable()
    tail = drive.drive(client, run.plan.tail, None)
    hit_rate, plan_hit_rate = served_hit_rates(before, after)
    problem = shape_check(run.args.workload, hit_rate)

    # In-process replay of warm-up + traced phase on copies of the
    # served snapshots, with per-layer spans.
    replay_dir = os.path.join(run.work, "replay")
    shutil.copytree(run.snapshots, replay_dir)
    replay = layers.Replay(replay_dir, prep.DATASETS, spans)
    for index, outcome in enumerate(warm):
        replay.run(outcome.op, outcome.values, "w%d" % index)
    for index, outcome in enumerate(traced_out):
        replay.run(outcome.op, outcome.values, "r%d" % index)

    metrics = layer_metrics(spans, replay, traced_out, plain, tail)
    metrics["semcache.hit_rate"] = (hit_rate, "ratio")
    metrics["service.plancache_hit_rate"] = (plan_hit_rate, "ratio")
    probe_dir = os.path.join(run.work, "probe")
    os.makedirs(probe_dir)
    for key, value in layers.setup_probe(run.inputs, prep.DATASETS, probe_dir).items():
        metrics[key] = (value, "ms")
    metrics["service.start_ms"] = (statistics.median(run.start_s) * 1e3, "ms")
    deltas = [op for op in run.plan.tail if op["kind"] == "write"]
    for key, value in layers.cluster_probe(run.snapshot(prep.APPEND), deltas, run.inputs.root_tag).items():
        metrics[key] = (value, "ms")
    texts = {}
    for outcome in warm + traced_out:
        if outcome.op["kind"] == "read":
            texts.setdefault(outcome.op["synopsis"], []).extend(outcome.op["queries"])
    metrics["histograms.p_lookup_us"] = (layers.p_lookup_probe(replay.systems, texts), "us")
    spans.write(os.path.join(run.out, "spans-%s-%d.jsonl" % (run.args.workload, run.args.seed)))
    if replay.mismatches:
        problem = problem or "%d replayed estimates differ from the served ones" % replay.mismatches
    return warm + traced_out + plain + tail, metrics, problem, {
        "replay_mismatches": replay.mismatches, "spans": len(spans.records)}


def layer_metrics(spans, replay, traced_out, plain, tail) -> dict:
    """Per-layer metrics from the span log and the HTTP outcomes."""
    from perfbench import layers

    selfs = spans.self_times()
    durations = {}
    per_request = {}
    for record, self_ns in zip(spans.records, selfs):
        name, start, end, _, request = record
        durations.setdefault(name, []).append(end - start)
        if request is not None and request.startswith("r"):
            per_request.setdefault(name, {}).setdefault(request, 0)
            per_request[name][request] += self_ns

    def median_us(name):
        values = durations.get(name)
        return statistics.median(values) / 1e3 if values else 0.0

    def mean_us(name):
        values = durations.get(name)
        return sum(values) / len(values) / 1e3 if values else 0.0

    counts = replay.counts
    estimates = max(1, counts["estimates"])
    estimate_selfs = [s for r, s in zip(spans.records, selfs) if r[0] == "core.estimate"]
    plain_reads = _reads(plain)
    wire = [o.rtt_ns / 1e3 - o.server_ms * 1e3 for o in plain_reads]
    untraced_p50_us = percentile([o.rtt_ns / 1e3 for o in plain_reads], 50)
    traced_p50_us = percentile([o.rtt_ns / 1e3 for o in _reads(traced_out)], 50)
    read_requests = [
        "r%d" % i for i, o in enumerate(traced_out) if o.op["kind"] == "read"
    ]
    explained = statistics.median(wire)
    for name in layers.EXECUTE_LAYERS:
        by_request = per_request.get(name, {})
        explained += statistics.median([by_request.get(r, 0) for r in read_requests]) / 1e3

    writes = _writes(tail)
    after_write = [
        tail[i + 1].rtt_ns / 1e6 for i, o in enumerate(tail[:-1])
        if o.op["kind"] == "write" and tail[i + 1].op["kind"] == "read"
    ]
    write_ms = [o.rtt_ns / 1e6 for o in writes]
    return {
        "kernel.join_us": (mean_us("kernel.join"), "us"),
        "kernel.joins_per_estimate": (counts["joins"] / estimates, "count"),
        "histograms.p_lookups_per_estimate": (
            (counts["p_lookups"] + counts["kernel_p_reads"]) / estimates, "count"),
        "histograms.o_lookup_us": (mean_us("histograms.o_lookup"), "us"),
        "histograms.o_lookups_per_estimate": (counts["o_lookups"] / estimates, "count"),
        "core.combine_us": (statistics.median(estimate_selfs) / 1e3, "us"),
        "core.scoped_variants_per_estimate": (counts["variants"] / estimates, "count"),
        "core.estimate_us": (median_us("core.estimate"), "us"),
        "service.wire_us": (statistics.median(wire), "us"),
        "service.handle_us": (median_us("service.handle"), "us"),
        "service.registry_get_us": (median_us("service.registry_get"), "us"),
        "service.json_encode_us": (median_us("service.json_encode"), "us"),
        "xpath.parse_us": (median_us("xpath.parse"), "us"),
        "core.route_us": (median_us("core.route"), "us"),
        "semcache.canonical_us": (median_us("semcache.canonical"), "us"),
        "semcache.lookup_us": (median_us("semcache.lookup"), "us"),
        "cluster.write_p50_ms": (percentile(write_ms, 50), "ms"),
        "cluster.write_p90_ms": (percentile(write_ms, 90), "ms"),
        "cluster.delta_apply_ms": (statistics.median(o.server_ms for o in writes), "ms"),
        "cluster.delta_refresh_rate": (
            sum(1 for o in writes if o.reply["refreshed"]) / len(writes), "ratio"),
        "service.read_after_write_ms": (statistics.median(after_write), "ms"),
        "trace.coverage": (explained / untraced_p50_us, "ratio"),
        "trace.overhead_pct": ((traced_p50_us - untraced_p50_us) / untraced_p50_us * 100.0, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro under %s; run it from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import drive, prep
    from repro.service import EndpointClient

    if args.workload not in drive.WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(drive.WORKLOADS)))
    # A terminated run still stops its server (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    inputs = prep.load_inputs(lambda message: print(message, file=sys.stderr, flush=True))
    run = Run(args, inputs)
    try:
        for _ in range(1 if args.trace == 0 else TRACED_SETUPS):
            run.set_up()
        checker = run.checker()
        with EndpointClient(run.server.host, port=run.server.port, timeout=120.0) as client:
            outcomes, metrics, problem, extra = (traced if args.trace else untraced)(run, client)
    finally:
        run.close()
    failed = sum(0 if checker.check(o) else 1 for o in outcomes)
    attempted = len(outcomes)
    correct = not failed and not problem
    info = provenance(args)
    info.update(extra)
    info.update(
        attempted=attempted, failed=failed, mismatches=checker.mismatches,
        error_rate=failed / max(1, attempted), shape_problem=problem or None,
        why=workload_why(args.workload),
    )
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print("%-36s %14.6g %s" % ("error_rate", info["error_rate"], "ratio"))
    if problem:
        print("shape check failed: " + problem)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(run.out, "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as handle:
        json.dump({"provenance": info, "result": result}, handle, indent=1, sort_keys=True)
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
