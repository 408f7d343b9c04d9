"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro stats --dataset XMark --scale 0.3
    python -m repro stats --file plays.xml
    python -m repro estimate --dataset SSPlays "//PLAY[/ACT/folls::\\$EPILOGUE]"
    python -m repro estimate --file dblp.xml "//article/\\$author" --explain
    python -m repro workload --dataset DBLP --raw 200
    python -m repro paths --dataset SSPlays --limit 10
    python -m repro validate --dataset XMark
    python -m repro report --output reproduction_report.txt
    python -m repro snapshot --dataset SSPlays --output snapshots/
    python -m repro serve --snapshot-dir snapshots/ --port 8750

Every subcommand accepts either ``--file <xml>`` (parsed with the built-in
parser) or ``--dataset {SSPlays,DBLP,XMark}`` with ``--scale``/``--seed``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import List, Optional

from repro.core.explain import explain
from repro.core.system import EstimationSystem
from repro.datasets import EXTENDED_DATASET_NAMES, generate
from repro.harness.tables import format_table
from repro.workload import WorkloadGenerator
from repro.xmltree.document import XmlDocument
from repro.xmltree.parser import parse_xml
from repro.xmltree.stats import document_stats
from repro.xpath import Evaluator, parse_query

def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--file", help="path to an XML document")
    source.add_argument(
        "--dataset", choices=EXTENDED_DATASET_NAMES, help="built-in synthetic dataset"
    )
    parser.add_argument("--scale", type=float, default=0.3, help="dataset scale")
    parser.add_argument("--seed", type=int, default=0, help="dataset seed (0 = default)")


def _load_document(args: argparse.Namespace) -> XmlDocument:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return parse_xml(handle.read(), name=args.file)
    return generate(args.dataset, scale=args.scale, seed=args.seed)


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = document_stats(_load_document(args))
    rows = [
        ["size", "%.2f MB" % stats.size_mb],
        ["elements", stats.total_elements],
        ["distinct tags", stats.distinct_tags],
        ["distinct root-to-leaf paths", stats.distinct_paths],
        ["max depth", stats.max_depth],
        ["max fanout", stats.max_fanout],
        ["avg fanout", "%.2f" % stats.avg_fanout],
        ["leaf elements", stats.leaf_count],
    ]
    print(format_table(["metric", "value"], rows, title="Document statistics"))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    document = _load_document(args)
    system = EstimationSystem.build(
        document, p_variance=args.p_variance, o_variance=args.o_variance
    )
    query = parse_query(args.query)
    estimate = system.estimate(query)
    print("estimate: %.3f" % estimate)
    if args.actual:
        print("actual:   %d" % Evaluator(document).selectivity(query))
    if args.explain:
        print(explain(system, query).render())
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    document = _load_document(args)
    generator = WorkloadGenerator(document, seed=args.workload_seed)
    workload = generator.full_workload(args.raw, args.raw, args.raw)
    row = workload.table2_row()
    print(
        format_table(
            ["simple", "branch", "total", "with order"],
            [[row["simple"], row["branch"], row["total"], row["with_order"]]],
            title="Workload sizes (raw=%d per class)" % args.raw,
        )
    )
    if args.show:
        for item in (workload.simple + workload.branch + workload.order_branch)[: args.show]:
            print("%-8s actual=%-8d %s" % (item.kind, item.actual, item.text))
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    document = _load_document(args)
    system = EstimationSystem.build(document)
    labeled = system.labeled
    print("distinct root-to-leaf paths: %d" % labeled.width)
    print("distinct path ids:           %d" % len(labeled.distinct_pathids()))
    print("path id size:                %d bytes" % labeled.pathid_size_bytes())
    tree = system.binary_tree
    if tree is not None:
        print(
            "binary tree:                 %d -> %d nodes after compression"
            % (tree.full_node_count, tree.compressed_node_count)
        )
    limit = args.limit if args.limit > 0 else labeled.width
    for encoding in range(1, min(limit, labeled.width) + 1):
        print("  %3d  %s" % (encoding, labeled.encoding_table.path_of(encoding)))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.harness.validation import validate_document

    report = validate_document(_load_document(args))
    print(report.render())
    return 0 if report.ok else 1


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro import persist
    from repro.build.builder import build_synopsis

    name = args.name
    if name is None:
        name = args.dataset or os.path.splitext(os.path.basename(args.file))[0]
    if args.incremental:
        # Delta-capable snapshot: the maintainer's exact tables are
        # embedded so 'repro delta' can merge appends without a rebuild.
        from repro.cluster.delta import IncrementalSynopsis

        source = args.file or generate(
            args.dataset, scale=args.scale, seed=args.seed
        )
        system = IncrementalSynopsis.build(
            source,
            p_variance=args.p_variance,
            o_variance=args.o_variance,
            workers=args.workers if args.file else 1,
            lenient=args.lenient,
            drift_threshold=args.drift_threshold,
            name=name,
        ).system
    elif args.file:
        # Stream (and with --workers > 1, shard) the file directly —
        # the document tree is never materialized.
        system = build_synopsis(
            args.file,
            p_variance=args.p_variance,
            o_variance=args.o_variance,
            workers=args.workers,
            lenient=args.lenient,
            name=name,
        )
    else:
        system = build_synopsis(
            generate(args.dataset, scale=args.scale, seed=args.seed),
            p_variance=args.p_variance,
            o_variance=args.o_variance,
            name=name,
        )
    output = args.output
    if output.endswith(os.sep) or os.path.isdir(output):
        os.makedirs(output, exist_ok=True)
        output = os.path.join(output, name + ".json")
    else:
        parent = os.path.dirname(output)
        if parent:
            os.makedirs(parent, exist_ok=True)
    persist.save(system, output)
    print(
        "snapshot %r written to %s (%d bytes)"
        % (name, output, os.path.getsize(output))
    )
    if args.pack and args.incremental:
        print(
            "warning: a staged kernelpack is preferred over the JSON at "
            "serve time and pack-served synopses cannot absorb deltas; "
            "re-stage the pack after each delta or skip --pack",
            file=sys.stderr,
        )
    if args.pack:
        from repro.shm import PACK_SUFFIX, KernelPackError, write_pack

        pack_path = os.path.splitext(output)[0] + PACK_SUFFIX
        try:
            size = write_pack(pack_path, system=system, name=name)
        except KernelPackError as error:
            print("warning: kernelpack not written: %s" % error, file=sys.stderr)
        else:
            print("kernelpack written to %s (%d bytes)" % (pack_path, size))
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from repro.shm import describe_pack, stage_packs

    if args.check:
        from repro.errors import ReproError

        status = 0
        for path in args.check:
            # Accept a pack path or a bare synopsis name (resolved in
            # --snapshot-dir): `pack --check SSPlays` and
            # `pack --check snapshots/SSPlays.kernelpack` both work.
            if not os.path.exists(path):
                named = os.path.join(args.snapshot_dir, path + ".kernelpack")
                if os.path.exists(named):
                    path = named
            try:
                info = describe_pack(path)
            except (ReproError, OSError) as error:
                print("%s: INVALID (%s)" % (path, error), file=sys.stderr)
                status = 1
                continue
            print(
                "%s: ok — %r v%d, %d tags, %d pairs, %d bytes"
                % (path, info["name"], info["version"], info["tags"],
                   info["pairs"], info["size_bytes"])
            )
        return status
    if not os.path.isdir(args.snapshot_dir):
        print("error: snapshot dir %r does not exist" % args.snapshot_dir,
              file=sys.stderr)
        return 1
    results = stage_packs(args.snapshot_dir, force=args.force)
    for name in sorted(results):
        print("%-24s %s" % (name, results[name]))
    if not results:
        print("no *.json snapshots in %r" % args.snapshot_dir, file=sys.stderr)
    return 0


def _server_config(args: argparse.Namespace):
    """The one :class:`ServerConfig` both ``repro serve`` paths run;
    ``ValueError`` names the first out-of-range flag value."""
    from repro.service import ServerConfig

    return ServerConfig(
        host=args.host,
        port=args.port,
        plan_cache_capacity=args.plan_cache,
        semcache_capacity=0 if args.no_semcache else args.semcache_capacity,
        semcache_ttl_s=args.semcache_ttl or None,
        reload_interval_s=args.reload_interval,
        max_inflight=args.max_inflight,
        request_deadline_s=args.deadline or None,
        drain_timeout_s=args.drain_timeout,
        workers=args.workers,
        control_port=None if args.control_port < 0 else args.control_port,
        trace_sample_rate=args.trace_sample_rate,
        slowlog_capacity=args.slowlog_capacity,
        slowlog_threshold_ms=args.slowlog_threshold_ms,
        slowlog_top_k=args.slowlog_top_k,
        qos=not args.no_qos,
        bulk_max_inflight=args.bulk_inflight,
        standard_queue=args.standard_queue,
        brownout=not args.no_brownout,
        read_deadline_s=args.read_deadline or None,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SynopsisRegistry, serve
    from repro.service.config import SERVING_GC_THRESHOLD

    if not os.path.isdir(args.snapshot_dir):
        print("error: snapshot dir %r does not exist" % args.snapshot_dir,
              file=sys.stderr)
        return 1
    try:
        config = _server_config(args)
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    if config.workers > 1:
        return _serve_pool(args.snapshot_dir, config)
    registry = SynopsisRegistry(
        args.snapshot_dir, check_interval=config.reload_interval_s
    )
    names = registry.scan()
    gc.set_threshold(*SERVING_GC_THRESHOLD)
    for name, error in sorted(registry.scan_errors.items()):
        print(
            "warning: skipping snapshot %r: %s" % (name, error),
            file=sys.stderr,
        )
    if not names:
        print(
            "warning: no *.json snapshots in %r yet (write some with "
            "'python -m repro snapshot'); new files are picked up live"
            % args.snapshot_dir,
            file=sys.stderr,
        )
    server = serve(args.snapshot_dir, config=config, registry=registry)
    print(
        "serving %d synopsis(es) [%s] on http://%s:%d (plan cache %d, "
        "semcache %d)"
        % (
            len(names), ", ".join(names), server.host, server.port,
            config.plan_cache_capacity, config.semcache_capacity,
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Graceful: shed new work, let in-flight estimates finish.
        server.close(config.drain_timeout_s)
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    """``repro traffic``: capacity sweep against a temporary server."""
    from repro.service import ServerConfig, SynopsisRegistry, serve
    from repro.traffic import (
        TrafficConfig,
        TrafficDriver,
        format_curve,
        generate_schedule,
        load_trace,
        save_trace,
        summarize,
    )

    if not os.path.isdir(args.snapshot_dir):
        print("error: snapshot dir %r does not exist" % args.snapshot_dir,
              file=sys.stderr)
        return 1
    registry = SynopsisRegistry(args.snapshot_dir)
    names = registry.scan()
    if not names:
        print("error: no *.json snapshots in %r" % args.snapshot_dir,
              file=sys.stderr)
        return 1
    synopsis = args.synopsis or names[0]
    if synopsis not in names:
        print("error: synopsis %r not in %s" % (synopsis, names),
              file=sys.stderr)
        return 1
    queries = ["//%s" % tag for tag in registry.system(synopsis).path_provider.tags()]

    duration = 1.0 if args.smoke else args.duration
    levels = args.qps or ([20.0, 60.0] if args.smoke else [50.0, 100.0, 200.0])
    shape = TrafficConfig(
        seed=args.seed,
        duration_s=duration,
        base_qps=levels[0],
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period_s=duration,
        burst_rate=args.burst_rate,
        slow_fraction=args.slow_fraction,
    )

    if args.save_trace:
        for qps in levels:
            events = generate_schedule(shape.scaled(qps), queries)
            path = "%s.%d.jsonl" % (args.save_trace, int(qps))
            save_trace(events, path)
            print("wrote %d events (%.0f qps offered) to %s"
                  % (len(events), qps, path))
        return 0

    server = serve(
        args.snapshot_dir,
        config=ServerConfig(
            port=0,
            max_inflight=args.max_inflight,
            qos=not args.no_qos,
        ),
        registry=registry,
    )
    server.start()
    try:
        driver = TrafficDriver(
            server.host, server.port, synopsis, workers=args.workers
        )
        points = []
        if args.replay_trace:
            schedules = [load_trace(args.replay_trace)]
        else:
            schedules = [
                generate_schedule(shape.scaled(qps), queries) for qps in levels
            ]
        for events in schedules:
            if not events:
                continue
            horizon = max(duration, events[-1].at_s)
            offered = len(events) / horizon
            report = driver.run(events)
            points.append(
                summarize(report.outcomes, max(report.wall_s, horizon), offered)
            )
            print(
                "offered %7.1f qps: served %d shed %d in %.2fs"
                % (offered, report.served, report.shed, report.wall_s),
                flush=True,
            )
    finally:
        server.close()
    print()
    print(
        format_curve(
            points,
            title="capacity sweep: %s (%s gate, max_inflight=%d)"
            % (synopsis, "flat" if args.no_qos else "tiered", args.max_inflight),
        )
    )
    return 0


def _serve_pool(snapshot_dir: str, config) -> int:
    """``repro serve --workers N``: the pre-fork SO_REUSEPORT pool."""
    import signal
    import threading

    from repro.service import serve_pool
    from repro.shm import WorkerPoolError, pool_supported

    if not pool_supported():
        print(
            "error: --workers %d needs os.fork and SO_REUSEPORT "
            "(unavailable on this platform); run --workers 1"
            % config.workers,
            file=sys.stderr,
        )
        return 1
    try:
        pool, control = serve_pool(snapshot_dir, config=config)
        pool._on_event = lambda line: print(line, file=sys.stderr, flush=True)
        pool.start()
    except WorkerPoolError as error:
        print("error: %s" % error, file=sys.stderr)
        return 1
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # SIGHUP = hot reload (classic pre-fork supervisor convention).
    if hasattr(signal, "SIGHUP"):
        signal.signal(signal.SIGHUP, lambda *_: pool.reload())
    # "staged" to the operator means "a pack backs this synopsis" —
    # whether this launch wrote it or an earlier one did ("fresh").
    staged = sum(1 for status in pool.pack_status.values()
                 if not status.startswith("skipped"))
    print(
        "serving with %d workers on http://%s:%d (%d kernelpack(s) staged%s)"
        % (
            config.workers, pool.host, pool.port, staged,
            "; control on http://%s:%d" % (control.host, control.port)
            if control is not None else "",
        ),
        flush=True,
    )
    if control is not None:
        control.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        if control is not None:
            control.close()
        pool.stop()
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    """``repro delta``: merge an appended XML fragment into a synopsis.

    Two modes share the flags:

    * **server mode** (default): scan the fragment locally, upload the
      partial to a running service or router (``POST /delta``) — the
      live system refreshes in place, no rebuild, no restart;
    * **offline mode** (``--snapshot-dir``): load the snapshot, apply
      the delta, write the merged snapshot back — a serving registry
      then picks it up through ordinary hot reload.
    """
    from repro.build.stream import scan_text
    from repro.errors import ReproError

    if args.fragment == "-":
        text = sys.stdin.read()
    else:
        with open(args.fragment, "r", encoding="utf-8") as handle:
            text = handle.read()

    if args.snapshot_dir:
        from repro import persist

        path = os.path.join(args.snapshot_dir, args.synopsis + ".json")
        if not os.path.exists(path):
            print("error: no snapshot %r" % path, file=sys.stderr)
            return 1
        try:
            system = persist.load(path)
            maintainer = system.incremental
            if maintainer is None:
                print(
                    "error: snapshot %r carries no incremental state; "
                    "rebuild it with 'repro snapshot --incremental'" % path,
                    file=sys.stderr,
                )
                return 1
            partial = maintainer.scan_fragment(text, lenient=args.lenient)
            # Offline there is no serving window to protect, so the
            # refresh always happens before write-back.
            outcome = maintainer.apply(partial, force_refresh=True)
        except ReproError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
        if args.dry_run:
            print(
                "dry run: +%d element(s), %d new path(s) — snapshot not written"
                % (outcome.elements_added, outcome.new_paths)
            )
            return 0
        persist.save(outcome.system, path)
        print(
            "delta applied to %s: +%d element(s), %d new path(s), %.1fms"
            % (path, outcome.elements_added, outcome.new_paths, outcome.elapsed_ms)
        )
        return 0

    if not args.root_tag:
        print(
            "error: server mode needs --root-tag (the served document's "
            "root element) to scan the fragment; or use --snapshot-dir "
            "for offline apply",
            file=sys.stderr,
        )
        return 1
    try:
        partial = scan_text(text, (args.root_tag,), lenient=args.lenient)
    except ReproError as error:
        print("error: cannot scan fragment: %s" % error, file=sys.stderr)
        return 1
    if args.dry_run:
        print(
            "dry run: fragment scans to %d element(s), %d path(s) — not uploaded"
            % (partial.element_count, len(partial.paths))
        )
        return 0
    from repro.service import EndpointClient, ServiceError

    with EndpointClient(host=args.host, port=args.port) as client:
        try:
            reply = client.apply_delta(
                args.synopsis, partial, force_refresh=args.force_refresh
            )
        except ServiceError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
    if "replicas" in reply:  # a router fanned the delta out
        print(
            "delta fanned out to %d replica(s): %d applied, %d failed"
            % (len(reply["replicas"]), reply.get("applied", 0), reply.get("failed", 0))
        )
        for item in reply["replicas"]:
            status = (
                "error: %s" % item["error"]["message"]
                if "error" in item
                else "generation %s%s"
                % (item.get("generation"), "" if item.get("refreshed") else " (deferred)")
            )
            print("  %-24s %s" % (item.get("backend", "?"), status))
    else:
        print(
            "delta applied to %r: generation %s, %s, drift %.3f"
            % (
                args.synopsis,
                reply.get("generation"),
                "refreshed" if reply.get("refreshed") else "deferred (stale)",
                reply.get("drift", 0.0),
            )
        )
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    """``repro router``: the scatter-gather front over N backends."""
    from repro.cluster.router import ClusterRouter, RouterConfig, RouterServer
    from repro.service.config import DEFAULT_READ_DEADLINE_S

    config = RouterConfig(
        host=args.host,
        port=args.port,
        replication=args.replication,
        vnodes=args.vnodes,
        timeout=args.timeout,
        scatter_min=args.scatter_min,
    )
    router = ClusterRouter(args.backend, config=config)
    server = RouterServer(router, read_deadline_s=DEFAULT_READ_DEADLINE_S)
    print(
        "routing %d backend(s) [%s] on http://%s:%d (replication %d)"
        % (
            len(args.backend),
            ", ".join(args.backend),
            server.host,
            server.port,
            min(config.replication, len(args.backend)),
        ),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()  # closes the router's backend connections too
    return 0


def _cmd_slowlog(args: argparse.Namespace) -> int:
    from repro.service import EndpointClient, ServiceError

    with EndpointClient(host=args.host, port=args.port) as client:
        try:
            document = client.slowlog(limit=args.limit)
        except ServiceError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
    section = {
        "recent": "recent",
        "latency": "top_latency",
        "error": "top_error",
    }[args.by]
    records = document.get(section, [])
    print(
        "slowlog @ %s:%d — %d observed, threshold %.3gms, showing %s"
        % (
            args.host,
            args.port,
            document.get("observed", 0),
            document.get("threshold_ms", 0.0),
            section,
        )
    )
    if not records:
        print("(empty)")
        return 0
    headers = ["seq", "ms", "synopsis", "route", "estimate", "rel_err", "query"]
    rows = []
    for record in records:
        rel = record.get("rel_error")
        rows.append(
            [
                str(record.get("seq", "")),
                "%.3f" % record.get("elapsed_ms", 0.0),
                record.get("synopsis", ""),
                record.get("route", ""),
                "%.3f" % record.get("estimate", 0.0)
                if record.get("estimate") is not None
                else "-",
                "%.3f" % rel if rel is not None else "-",
                record.get("query", ""),
            ]
        )
    print(format_table(headers, rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import write_report

    text = write_report(directory=args.results_dir, output=args.output)
    if not args.output:
        print(text)
    else:
        print("report written to %s" % args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Selectivity estimation for XPath expressions with order axes "
        "(reproduction of Li et al., ICDE 2006)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="document statistics (Table 1 row)")
    _add_source_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    estimate = commands.add_parser("estimate", help="estimate one query")
    _add_source_arguments(estimate)
    estimate.add_argument("query", help="XPath subset query; $tag marks the target")
    estimate.add_argument("--p-variance", type=float, default=0.0)
    estimate.add_argument("--o-variance", type=float, default=0.0)
    estimate.add_argument("--actual", action="store_true", help="also evaluate exactly")
    estimate.add_argument("--explain", action="store_true", help="show the rule applied")
    estimate.set_defaults(handler=_cmd_estimate)

    workload = commands.add_parser("workload", help="generate a Section-7 workload")
    _add_source_arguments(workload)
    workload.add_argument("--raw", type=int, default=200, help="raw candidates per class")
    workload.add_argument("--workload-seed", type=int, default=42)
    workload.add_argument("--show", type=int, default=0, help="print the first N queries")
    workload.set_defaults(handler=_cmd_workload)

    paths = commands.add_parser("paths", help="inspect the path encoding")
    _add_source_arguments(paths)
    paths.add_argument("--limit", type=int, default=20, help="paths to print (0 = all)")
    paths.set_defaults(handler=_cmd_paths)

    validate = commands.add_parser(
        "validate", help="run the system self-checks against a document"
    )
    _add_source_arguments(validate)
    validate.set_defaults(handler=_cmd_validate)

    snapshot = commands.add_parser(
        "snapshot", help="build a synopsis and persist it for serving"
    )
    _add_source_arguments(snapshot)
    snapshot.add_argument("--p-variance", type=float, default=0.0)
    snapshot.add_argument("--o-variance", type=float, default=0.0)
    snapshot.add_argument(
        "--output", default="snapshots" + os.sep,
        help="output file, or directory (trailing separator / existing dir) "
        "to write <name>.json into",
    )
    snapshot.add_argument(
        "--name", default=None,
        help="synopsis name (default: dataset name or XML file stem)",
    )
    snapshot.add_argument(
        "--workers", type=int, default=1,
        help="parallel scan processes for --file sources (the built "
        "synopsis is bit-identical regardless)",
    )
    snapshot.add_argument(
        "--lenient", action="store_true",
        help="recover past malformed XML in --file sources instead of "
        "aborting (damage is skipped; estimates stay exact elsewhere)",
    )
    snapshot.add_argument(
        "--pack", action="store_true",
        help="also write a mmap-able <name>.kernelpack next to the JSON "
        "(zero-copy kernel snapshot for serve --workers N)",
    )
    snapshot.add_argument(
        "--incremental", action="store_true",
        help="embed the exact statistics tables so the served synopsis "
        "can absorb 'repro delta' uploads without a rebuild",
    )
    snapshot.add_argument(
        "--drift-threshold", type=float, default=0.0,
        help="with --incremental: defer histogram refresh until deferred "
        "delta mass exceeds this fraction of the synopsis (0 = refresh "
        "on every delta)",
    )
    snapshot.set_defaults(handler=_cmd_snapshot)

    pack = commands.add_parser(
        "pack",
        help="stage mmap-able .kernelpack files for a snapshot directory",
    )
    pack.add_argument(
        "--snapshot-dir", required=True, help="directory of *.json synopses"
    )
    pack.add_argument(
        "--force", action="store_true",
        help="rewrite packs even when they are newer than their JSON",
    )
    pack.add_argument(
        "--check", nargs="+", metavar="PACK", default=None,
        help="validate existing pack files instead of staging new ones",
    )
    pack.set_defaults(handler=_cmd_pack)

    serve = commands.add_parser(
        "serve", help="serve estimates over JSON/HTTP from persisted synopses"
    )
    serve.add_argument(
        "--snapshot-dir", required=True, help="directory of *.json synopses"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--plan-cache", type=int, default=512,
        help="compiled-plan LRU capacity (0 disables the cache)",
    )
    serve.add_argument(
        "--semcache-capacity", type=int, default=4096,
        help="semantic result cache entries per synopsis (canonicalized "
        "estimate memoization; 0 disables result caching)",
    )
    serve.add_argument(
        "--semcache-ttl", type=float, default=0.0,
        help="TTL for semantic-cache entries in seconds (0 = entries "
        "live until the next synopsis generation bump)",
    )
    serve.add_argument(
        "--no-semcache", action="store_true",
        help="disable the semantic result cache (same as "
        "--semcache-capacity 0)",
    )
    serve.add_argument(
        "--reload-interval", type=float, default=0.0,
        help="seconds between snapshot freshness checks (0 = every "
        "request); a check stats the snapshot and its pack and re-reads "
        "and CRC32s the snapshot only when that stat stamp moved (or the "
        "files changed within the last 2 s)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="concurrent estimates before requests are shed with 503",
    )
    serve.add_argument(
        "--deadline", type=float, default=0.0,
        help="per-request time budget in seconds; exceeded requests get "
        "504 (0 = unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=0.0,
        help="fraction of requests traced server-side (0 = only "
        "requests that ask with \"trace\": true; 1 = every request)",
    )
    serve.add_argument(
        "--slowlog-capacity", type=int, default=256,
        help="slow-query ring size (entries over --slowlog-threshold-ms)",
    )
    serve.add_argument(
        "--slowlog-threshold-ms", type=float, default=0.0,
        help="latency floor for the slow-query ring (top-K boards see "
        "every query regardless)",
    )
    serve.add_argument(
        "--slowlog-top-k", type=int, default=32,
        help="size of the top-by-latency / top-by-error boards",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="pre-forked SO_REUSEPORT worker processes sharing the port "
        "(1 = classic single-process serving)",
    )
    serve.add_argument(
        "--control-port", type=int, default=0,
        help="supervisor control-plane port for --workers N (aggregated "
        "/metrics, /healthz, POST /reload); 0 = ephemeral, -1 disables",
    )
    serve.add_argument(
        "--no-qos", action="store_true",
        help="flat admission gate instead of QoS tiers "
        "(interactive/standard/bulk priority lanes)",
    )
    serve.add_argument(
        "--bulk-inflight", type=int, default=None,
        help="bulk-tier inflight cap (default: max-inflight // 4)",
    )
    serve.add_argument(
        "--standard-queue", type=int, default=32,
        help="bounded wait-queue depth for the standard tier",
    )
    serve.add_argument(
        "--no-brownout", action="store_true",
        help="disable brownout degradation (shedding observability and "
        "bulk admission under sustained overload)",
    )
    serve.add_argument(
        "--read-deadline", type=float, default=30.0,
        help="per-connection socket read deadline in seconds; slow "
        "clients get 408 (0 = unbounded)",
    )
    serve.set_defaults(handler=_cmd_serve)

    traffic = commands.add_parser(
        "traffic",
        help="sweep offered load against a temporary server and print the "
        "latency-vs-load curve with its capacity knee",
    )
    traffic.add_argument(
        "--snapshot-dir", required=True, help="directory of *.json synopses"
    )
    traffic.add_argument(
        "--synopsis", default=None,
        help="synopsis to target (default: first one in the directory)",
    )
    traffic.add_argument(
        "--qps", type=float, action="append", default=None, metavar="QPS",
        help="offered load level to measure (repeat; default 50 100 200)",
    )
    traffic.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds of schedule per load level",
    )
    traffic.add_argument("--seed", type=int, default=0, help="schedule seed")
    traffic.add_argument(
        "--diurnal-amplitude", type=float, default=0.3,
        help="rate swing as a fraction of qps over one diurnal period",
    )
    traffic.add_argument(
        "--burst-rate", type=float, default=0.2,
        help="burst windows per second (each multiplies the rate)",
    )
    traffic.add_argument(
        "--slow-fraction", type=float, default=0.0,
        help="fraction of events sent as slow clients (trickled bytes)",
    )
    traffic.add_argument(
        "--workers", type=int, default=16, help="driver worker threads"
    )
    traffic.add_argument(
        "--max-inflight", type=int, default=8,
        help="server concurrency limit for the temporary server",
    )
    traffic.add_argument(
        "--no-qos", action="store_true",
        help="measure a flat admission gate instead of QoS tiers",
    )
    traffic.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="write each level's schedule to PATH.<qps>.jsonl and exit "
        "without driving (pair with --replay-trace)",
    )
    traffic.add_argument(
        "--replay-trace", default=None, metavar="PATH",
        help="replay one JSONL trace instead of generating schedules",
    )
    traffic.add_argument(
        "--smoke", action="store_true",
        help="tiny fast sweep (CI wiring check, not a measurement)",
    )
    traffic.set_defaults(handler=_cmd_traffic)

    delta = commands.add_parser(
        "delta",
        help="merge an appended XML fragment into a synopsis (live upload "
        "or offline snapshot rewrite) without a full rebuild",
    )
    delta.add_argument("synopsis", help="synopsis name to apply the delta to")
    delta.add_argument(
        "--fragment", required=True,
        help="XML fragment file of appended top-level subtrees ('-' = stdin)",
    )
    delta.add_argument(
        "--root-tag", default=None,
        help="root element of the served document (server mode only; the "
        "fragment's subtrees are scanned as its children)",
    )
    delta.add_argument("--host", default="127.0.0.1")
    delta.add_argument(
        "--port", type=int, default=8750,
        help="service or router port for the live upload",
    )
    delta.add_argument(
        "--snapshot-dir", default=None,
        help="offline mode: apply to <dir>/<synopsis>.json and write it "
        "back instead of uploading",
    )
    delta.add_argument(
        "--force-refresh", action="store_true",
        help="refresh histograms even below the drift threshold",
    )
    delta.add_argument(
        "--lenient", action="store_true",
        help="recover past malformed XML in the fragment",
    )
    delta.add_argument(
        "--dry-run", action="store_true",
        help="scan and report the delta without uploading/writing",
    )
    delta.set_defaults(handler=_cmd_delta)

    router = commands.add_parser(
        "router",
        help="serve a scatter-gather front over N estimation backends",
    )
    router.add_argument(
        "--backend", action="append", required=True, metavar="HOST:PORT",
        help="estimation backend address (repeat for each instance)",
    )
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument(
        "--port", type=int, default=8760, help="router TCP port (0 = ephemeral)"
    )
    router.add_argument(
        "--replication", type=int, default=2,
        help="distinct backends holding each synopsis",
    )
    router.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per backend on the consistent-hash ring",
    )
    router.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-backend request timeout in seconds",
    )
    router.add_argument(
        "--scatter-min", type=int, default=4,
        help="batch size at which batches scatter across the replica set",
    )
    router.set_defaults(handler=_cmd_router)

    slowlog = commands.add_parser(
        "slowlog", help="show a running server's slow-query log"
    )
    slowlog.add_argument("--host", default="127.0.0.1")
    slowlog.add_argument("--port", type=int, default=8750)
    slowlog.add_argument(
        "--limit", type=int, default=10, help="entries to show per section"
    )
    slowlog.add_argument(
        "--by", choices=("recent", "latency", "error"), default="latency",
        help="which board to print",
    )
    slowlog.set_defaults(handler=_cmd_slowlog)

    report = commands.add_parser(
        "report", help="stitch bench_results/ into one reproduction report"
    )
    report.add_argument("--results-dir", default="bench_results")
    report.add_argument("--output", default=None, help="write to a file instead of stdout")
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
