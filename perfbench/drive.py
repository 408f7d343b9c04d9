"""Workload plans (made from ``--seed``), the closed-loop client and the
output check.

An op is a dict: ``{"kind": "read", "synopsis", "queries", "batched"}``
or ``{"kind": "write", "synopsis", "partial"}`` (a
``persist.partial_to_dict`` payload of one held-back DBLP record).
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Dict, List, Optional

from perfbench.prep import APPEND, DATASETS

BATCH = 6
HOT_PER_DATASET = 160  # 3 x 160 plans fit the CLI's 512-entry plan cache
ZIPF_S = 1.1
TAIL_WRITES = 200
MAX_OPS = 200000
#: Items per cost stratum in a stratified order (see ``_stratified``).
STRATUM = 20

#: The workloads; BENCHMARK.json says why each was chosen.
WORKLOADS = ("cold-batch", "zipf-hot")


def read(synopsis: str, queries: List[str], batched: bool) -> dict:
    return {"kind": "read", "synopsis": synopsis, "queries": queries, "batched": batched}


class Plan:
    """Everything one run sends, fixed before the timed phase."""

    def __init__(self, warmup: List[dict], ops: List[dict], tail: List[dict]):
        self.warmup = warmup
        self.ops = ops
        #: Write tail, sent after the timed phase of a traced run to give
        #: the delta-path layer metrics.
        self.tail = tail


def _deltas(inputs, rng: random.Random) -> List[dict]:
    """Held-back DBLP records in a stratified seeded order (by element
    count, so every run writes the same mix of small and large records),
    one write each."""
    from repro import persist
    from repro.build.stream import scan_text

    writes = []
    for record in inputs.held:
        partial = scan_text(record, (inputs.root_tag,))
        writes.append({
            "kind": "write", "synopsis": APPEND, "record": record,
            "elements": partial.element_count, "partial": persist.partial_to_dict(partial),
        })
    return _stratified(rng, writes, key=lambda write: (write["elements"], write["record"]))


def _zipf_stream(rng: random.Random, items: List[tuple], count: int) -> List[tuple]:
    """``count`` draws from ``items`` with P(rank r) ~ 1/r^s; the rank
    order is a seeded shuffle."""
    ranked = list(items)
    rng.shuffle(ranked)
    cumulative, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += 1.0 / rank ** ZIPF_S
        cumulative.append(total)
    return [
        ranked[min(bisect.bisect_left(cumulative, rng.random() * total), len(ranked) - 1)]
        for _ in range(count)
    ]


def _warmup(inputs) -> List[dict]:
    """The fixed warm-up set, outside every pool and the same in every
    run: compiles the kernels and gives rel_error_mean."""
    return [
        read(name, [item["text"] for item in inputs.warmup[name][start:start + BATCH]], True)
        for start in range(0, len(inputs.warmup[DATASETS[0]]), BATCH)
        for name in DATASETS
    ]


def _cost_key(item: dict) -> tuple:
    """Queries by estimation cost: class, then scoped variants."""
    return (item["kind"] == "order_scoped", item["variants"], item["kind"], item["text"])


def _stratified(rng: random.Random, items: List[dict], key=_cost_key) -> List[dict]:
    """A seeded order of ``items`` whose every prefix spans their cost
    range evenly.

    Items sorted by ``key`` are cut into strata of STRATUM; each round
    takes one unused item of every stratum, strata in a seeded order.
    Each item is still equally likely at each place, but a run that uses
    only a prefix gets the pool's mix of cheap and costly items, not a
    seed's luck of the draw.
    """
    ordered = sorted(items, key=key)
    strata = [ordered[start:start + STRATUM] for start in range(0, len(ordered), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    result = []
    for index in range(STRATUM):
        rng.shuffle(strata)
        result.extend(stratum[index] for stratum in strata if index < len(stratum))
    return result


def _hot(inputs, rng: random.Random) -> List[tuple]:
    """(synopsis, text) of HOT_PER_DATASET seeded picks per dataset."""
    return [
        (name, item["text"])
        for name in DATASETS
        for item in _stratified(rng, inputs.pool[name])[:HOT_PER_DATASET]
    ]


def make_plan(workload: str, inputs, seed: int) -> Plan:
    rng = random.Random("%s/%d" % (workload, seed))
    warmup = _warmup(inputs)
    if workload == "cold-batch":
        # Each batch is one scoped query (the heavy class, ~20% of the
        # pool) and BATCH - 1 of the other four classes, so batches of
        # one dataset cost alike.
        scoped, other = {}, {}
        for name in DATASETS:
            pool = inputs.pool[name]
            scoped[name] = [i["text"] for i in _stratified(rng, [i for i in pool if i["kind"] == "order_scoped"])]
            other[name] = [i["text"] for i in _stratified(rng, [i for i in pool if i["kind"] != "order_scoped"])]
        # The write tail reads DBLP queries the timed phase never sees.
        tail_reads = other[APPEND][-TAIL_WRITES:]
        del other[APPEND][-TAIL_WRITES:]
        rest = BATCH - 1
        rounds = min(min(len(scoped[n]), len(other[n]) // rest) for n in DATASETS)
        ops = [
            read(name, [scoped[name][index]] + other[name][index * rest:(index + 1) * rest], True)
            for index in range(rounds) for name in DATASETS
        ]
        tail_reads = [read(APPEND, [text], False) for text in tail_reads]
        return Plan(warmup, ops, _tail(inputs, rng, tail_reads))
    if workload == "zipf-hot":
        hot = _hot(inputs, rng)
        # One op object per hot query, shared by all its draws.
        op_for = {key: read(key[0], [key[1]], False) for key in hot}
        ops = [op_for[key] for key in _zipf_stream(rng, hot, MAX_OPS)]
        dblp = [(name, text) for name, text in hot if name == APPEND]
        tail_reads = [read(name, [text], False) for name, text in _zipf_stream(rng, dblp, TAIL_WRITES)]
        warmup += [read(name, [text], False) for name, text in hot]
        return Plan(warmup, ops, _tail(inputs, rng, tail_reads))
    raise ValueError("unknown workload %r" % workload)


def _tail(inputs, rng: random.Random, reads: List[dict]) -> List[dict]:
    """The write tail: each delta followed by one DBLP read."""
    return [op for pair in zip(_deltas(inputs, rng)[:TAIL_WRITES], reads) for op in pair]


# ----------------------------------------------------------------------
# Closed-loop client
# ----------------------------------------------------------------------


class Outcome:
    """One sent op: start offset, client-observed time and the reply."""

    __slots__ = ("op", "start_ns", "rtt_ns", "values", "server_ms", "reply", "error")

    def __init__(self, op, start_ns, rtt_ns, values=None, server_ms=0.0, reply=None, error=None):
        self.op = op
        self.start_ns = start_ns
        self.rtt_ns = rtt_ns
        self.values = values
        self.server_ms = server_ms
        self.reply = reply
        self.error = error


def send(client, op: dict) -> Outcome:
    """One request over the kept-alive connection, timed client-side."""
    from repro.service import ServiceError

    started = time.perf_counter_ns()
    try:
        if op["kind"] == "write":
            reply = client.apply_delta(op["synopsis"], op["partial"])
            rtt = time.perf_counter_ns() - started
            return Outcome(op, started, rtt, server_ms=reply["elapsed_ms"], reply=reply)
        if op["batched"]:
            # estimate_batch keeps only the floats; the per-result
            # elapsed_ms is needed for the wire split.
            reply = client._request(
                "POST", "/estimate", {"synopsis": op["synopsis"], "queries": op["queries"]}
            )
            results = [item["result"] for item in reply["results"]]
        else:
            reply = client.estimate_detail(op["synopsis"], op["queries"][0])
            results = [reply["result"]]
        rtt = time.perf_counter_ns() - started
        return Outcome(
            op, started, rtt,
            values=[result["value"] for result in results],
            server_ms=sum(result["elapsed_ms"] for result in results),
        )
    except ServiceError as error:
        return Outcome(op, started, time.perf_counter_ns() - started, error=error)


def drive(client, ops: List[dict], seconds: Optional[float]) -> List[Outcome]:
    """Send ``ops`` in order, each after the previous reply, until they
    run out or ``seconds`` pass."""
    outcomes = []
    deadline = time.perf_counter_ns() + int(seconds * 1e9) if seconds is not None else None
    for op in ops:
        outcome = send(client, op)
        outcomes.append(outcome)
        if deadline is not None and outcome.start_ns + outcome.rtt_ns >= deadline:
            break
    return outcomes


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


class Checker:
    """Compares served values with in-process references, bit for bit.

    Reads before the first write are checked against ``references``
    (name -> text -> estimate of ``persist.load`` of the served snapshot,
    taken by :mod:`perfbench.prep` on the same snapshot bytes).  From the
    first write on, an ``IncrementalSynopsis`` replica loaded from the
    same DBLP snapshot is fed the same partials in the same order, and
    each read is checked against the replica's state for its write epoch.
    """

    def __init__(self, references: Dict[str, Dict[str, float]], load_dblp):
        self.references = references
        self._load_dblp = load_dblp
        self._replica = None
        self._epoch_values: Dict[str, float] = {}
        self.mismatches = 0
        self.refreshed = 0
        self.deferred = 0

    def _expected(self, name: str, text: str) -> float:
        if self._replica is None or name != APPEND:
            return self.references[name][text]
        value = self._epoch_values.get(text)
        if value is None:
            value = self._epoch_values[text] = self._replica.system.estimate(text)
        return value

    def check(self, outcome: Outcome) -> bool:
        """True when the op succeeded and matched its reference."""
        from repro import persist

        if outcome.error is not None:
            return False
        op = outcome.op
        if op["kind"] == "write":
            if self._replica is None:
                self._replica = self._load_dblp().incremental
            applied = self._replica.apply(persist.partial_from_dict(op["partial"]))
            self._epoch_values = {}
            if applied.refreshed:
                self.refreshed += 1
            else:
                self.deferred += 1
            if applied.refreshed != outcome.reply["refreshed"]:
                self.mismatches += 1
                return False
            return True
        for text, value in zip(op["queries"], outcome.values):
            if value != self._expected(op["synopsis"], text):
                self.mismatches += 1
                return False
        return True
