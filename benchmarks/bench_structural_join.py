"""Extra experiment — path-id pruning inside structural joins (ref. [8]).

The path encoding scheme was introduced to accelerate structural joins:
pruning candidate lists to surviving (tag, path id) groups keeps
irrelevant subtrees out of the merges.  This bench evaluates the no-order
workload through the structural-join processor with and without path-id
prefiltering and reports join-input sizes and wall time.

Expected shape: pruning removes a substantial fraction of join inputs on
branch-heavy workloads, results stay identical, and end-to-end time does
not regress (the path join itself is synopsis-cheap).

A third lane runs the same workload through ``system.execute``
(pruning on), which builds the annotated plan and records every step's
observed counts on top of the same semijoin loop.  Every lane's counts
are checked against the workload item's ``actual`` (computed by the
tree-walking evaluator); the execute lane's planning overhead is
reported in the same time column.
"""

import time

from benchmarks.conftest import DATASETS
from repro.harness.tables import format_table, record_result
from repro.queryproc import StructuralJoinProcessor


def test_structural_join_pruning(ctx, benchmark):
    document = ctx.document("SSPlays")
    processor = StructuralJoinProcessor(document, labeled=ctx.factory("SSPlays").labeled)
    items = ctx.workload("SSPlays").branch[:60]
    benchmark.pedantic(
        lambda: [processor.count(i.query) for i in items], rounds=1, iterations=1
    )

    rows = []
    reductions = {}
    for name in DATASETS:
        processor = StructuralJoinProcessor(
            ctx.document(name), labeled=ctx.factory(name).labeled
        )
        items = ctx.workload(name).no_order()

        pruned_inputs = 0
        unpruned_inputs = 0
        mismatches = 0
        start = time.perf_counter()
        for item in items:
            count = processor.count(item.query, use_path_ids=True)
            pruned_inputs += processor.last_candidate_count
            if count != item.actual:
                mismatches += 1
        pruned_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for item in items:
            count = processor.count(item.query, use_path_ids=False)
            unpruned_inputs += processor.last_candidate_count
            if count != item.actual:
                mismatches += 1
        unpruned_seconds = time.perf_counter() - start

        system = ctx.factory(name).system(0, 0)
        start = time.perf_counter()
        for item in items:
            if system.execute(item.text).match_count != item.actual:
                mismatches += 1
        execute_seconds = time.perf_counter() - start

        reduction = 1.0 - pruned_inputs / max(unpruned_inputs, 1)
        reductions[name] = reduction
        rows.append(
            [
                name,
                len(items),
                unpruned_inputs,
                pruned_inputs,
                "%.1f%%" % (reduction * 100),
                "%.2fs / %.2fs / %.2fs" % (
                    unpruned_seconds, pruned_seconds, execute_seconds
                ),
                mismatches,
            ]
        )
    record_result(
        "structural_join_pruning",
        format_table(
            ["Dataset", "#queries", "join inputs", "with pid pruning",
             "input reduction", "time (plain / pruned / execute)", "mismatches"],
            rows,
            title="Extra: path-id pruning in structural joins (ref. [8])",
        ),
    )
    # Exactness everywhere, meaningful pruning somewhere.
    assert all(row[-1] == 0 for row in rows)
    assert max(reductions.values()) > 0.2
