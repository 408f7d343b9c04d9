"""Extra experiment — service throughput and tail latency under faults.

The reliability claim: when a fraction of handlers stalls (a slow disk,
a GC pause, a wedged downstream), an admission gate turns the overload
into fast 503s for the excess instead of letting every request queue
behind the stalled ones.  The experiment injects a deterministic
``DelayFault`` into every 10th ``server.handle`` call and drives the
same concurrent workload twice:

* **shedding on** — a tight gate (``max_inflight``) refuses the excess
  immediately; clients retry with backoff and eventually land;
* **shedding off** — an effectively unbounded gate admits everything,
  so healthy requests wait behind stalled handler threads.

Before each sweep, ``TIGHT_INFLIGHT`` requests stall in their handlers
until one more request has been answered: the tight gate must shed that
one, so the shedding claim does not hang on how the client threads
happen to overlap.

Reported: goodput (successful estimates/s), p99 latency of successful
requests, and how many requests were shed.  Correctness is pinned: every
*successful* estimate equals the direct ``EstimationSystem.estimate``.
"""

from __future__ import annotations

import threading
import time

from repro.harness.tables import format_table, record_result
from repro.reliability import AdmissionGate, RetryPolicy, faults
from repro.reliability.faults import DelayFault, Fault, FaultInjector
from repro.service import (
    EstimationService,
    EndpointClient,
    ServiceError,
    ServiceServer,
    SynopsisRegistry,
)

CLIENT_THREADS = 8
MAX_QUERIES = 60
FAULT_EVERY = 10          # every 10th request stalls ...
FAULT_DELAY_S = 0.05      # ... for 50ms (an eternity next to ~0.1ms estimates)
TIGHT_INFLIGHT = 4        # shedding on: at most 4 concurrent estimates
LOOSE_INFLIGHT = 10_000   # shedding off: admit everything


class _HoldFault(Fault):
    """Stall a handler, holding its gate slot, until ``release`` is set."""

    def __init__(self, release: threading.Event, times: int):
        super().__init__(times=times)
        self.release = release

    def apply(self, payload):
        self.release.wait(timeout=10.0)
        return payload


def _saturate(server, injector, text, release):
    """Hold ``TIGHT_INFLIGHT`` gate slots with handlers stalled on
    ``release`` (the injector's first ``server.handle`` calls), send one
    more request while they are held, then let them finish."""
    holders = [
        threading.Thread(
            target=EndpointClient(port=server.port).estimate, args=("SSPlays", text)
        )
        for _ in range(TIGHT_INFLIGHT)
    ]
    for thread in holders:
        thread.start()
    try:
        deadline = time.monotonic() + 10.0
        while injector.fired("server.handle") < TIGHT_INFLIGHT:
            if time.monotonic() > deadline:
                raise RuntimeError("the holding requests never reached the handler")
            time.sleep(0.001)
        probe = EndpointClient(port=server.port, retry=RetryPolicy(max_attempts=1))
        try:
            probe.estimate("SSPlays", text)
        except ServiceError:
            pass  # shed: every slot of a tight gate is held
    finally:
        release.set()
        for thread in holders:
            thread.join()


def _drive_degraded(server, texts, direct):
    """Concurrent sweep against a fault-injected server; returns
    (goodput_qps, p99_ms, shed_count, mismatches)."""
    latencies = []
    mismatches = []
    lock = threading.Lock()

    def worker(offset):
        client = EndpointClient(
            port=server.port,
            retry=RetryPolicy(max_attempts=6, base_backoff_s=0.01),
            retry_budget_s=10.0,
        )
        rotated = texts[offset:] + texts[:offset]
        for text in rotated:
            started = time.perf_counter()
            try:
                value = client.estimate("SSPlays", text)
            except ServiceError:
                continue  # retries exhausted: dropped, not counted
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            with lock:
                latencies.append(elapsed_ms)
                if value != direct[text]:
                    mismatches.append(text)

    start = time.perf_counter()
    pool = [
        threading.Thread(target=worker, args=(i * 7,)) for i in range(CLIENT_THREADS)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start

    metrics = EndpointClient(port=server.port).metrics()
    shed = metrics["reliability"]["shed_total"]
    latencies.sort()
    p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else float("nan")
    return len(latencies) / elapsed, p99, shed, mismatches


def test_service_degraded(ctx, benchmark):
    system = ctx.factory("SSPlays").system(0, 0)
    workload = ctx.workload("SSPlays")
    items = (workload.simple + workload.branch + workload.order_branch)[:MAX_QUERIES]
    texts = [item.text for item in items]
    direct = {item.text: system.estimate(item.query) for item in items}

    def run(max_inflight):
        registry = SynopsisRegistry()
        registry.register("SSPlays", system)
        service = EstimationService(
            registry, gate=AdmissionGate(max_inflight=max_inflight, retry_after_s=0.01)
        )
        release = threading.Event()
        injector = (
            FaultInjector()
            .plan("server.handle", _HoldFault(release, times=TIGHT_INFLIGHT))
            .plan("server.handle", DelayFault(FAULT_DELAY_S, times=None, every=FAULT_EVERY))
        )
        with faults.inject(injector):
            with ServiceServer(service, port=0) as server:
                _saturate(server, injector, texts[0], release)
                return _drive_degraded(server, texts, direct)

    # Timing kernel for the benchmark harness: one shedding-on sweep.
    benchmark.pedantic(lambda: run(TIGHT_INFLIGHT), rounds=1, iterations=1)

    shed_qps, shed_p99, shed_count, shed_bad = run(TIGHT_INFLIGHT)
    open_qps, open_p99, open_count, open_bad = run(LOOSE_INFLIGHT)

    assert shed_bad == [] and open_bad == []

    rows = [
        ["shedding on (%d)" % TIGHT_INFLIGHT, "%.0f" % shed_qps,
         "%.2f" % shed_p99, shed_count],
        ["shedding off", "%.0f" % open_qps, "%.2f" % open_p99, open_count],
    ]
    record_result(
        "service_degraded",
        format_table(
            ["Admission", "goodput (est/s)", "p99 (ms)", "shed"],
            rows,
            title="Extra: service under %d%% injected 50ms stalls, %d client threads"
            % (100 // FAULT_EVERY, CLIENT_THREADS),
        ),
    )
    # The reliability claim: the tight gate actually sheds under the
    # injected stalls, and served results never degrade in either mode.
    assert shed_count > 0
    assert open_count == 0
