"""Seed-independent inputs of the service benchmark, cached on disk.

The served corpora are fixed: the three paper datasets at ``SCALE`` with
their generators' default seeds, DBLP cut into a served base document
and held-back top-level records that later arrive as deltas.  Every run
therefore serves the same snapshot bytes.  What ``--seed`` changes is
chosen per run in :mod:`perfbench.drive`: which queries are asked, in
which order, which are hot, and in which order the held-back records
arrive.

Building the inputs is slow (exact counts for ~29k generated queries and
an in-process reference estimate for each), so they are cached under
``perfbench/.cache/<digest>/``; the digest covers the package source and
this file, so a changed estimator never reuses stale references.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(HERE, ".cache")

SCALE = 0.5
DATASETS = ("SSPlays", "DBLP", "XMark")
#: The delta-capable synopsis (served from a ``snapshot --incremental``
#: equivalent on every workload).
APPEND = "DBLP"
#: Fraction of DBLP's top-level records held back as delta material.
HELD_BACK = 0.5
#: Drift threshold of the incremental DBLP synopsis: a one-record delta
#: is ~0.1-0.2% of the base mass, so about every fourth write refreshes.
DRIFT_THRESHOLD = 0.005
#: Raw candidates per query class for ``repro.workload``.
RAW = 6000
POOL_SEED = 42
#: Per-dataset queries reserved for warm-up, disjoint from the pool.
WARMUP = 100
CLASSES = ("simple", "branch", "order_branch", "order_trunk", "order_scoped")


def code_digest() -> str:
    """Digest of the package source plus this file."""
    digest = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        paths.extend(
            os.path.join(folder, name) for name in sorted(files)
            if name.endswith(".py")
        )
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def build_snapshot(name: str, xml_path: str, out_dir: str) -> str:
    """Build one served synopsis from its XML through the public
    builders and persist it; returns the snapshot path."""
    from repro import persist

    if name == APPEND:
        from repro.cluster.delta import IncrementalSynopsis

        system = IncrementalSynopsis.build(
            xml_path, drift_threshold=DRIFT_THRESHOLD, name=name
        ).system
    else:
        from repro.build.builder import build_synopsis

        system = build_synopsis(xml_path, name=name)
    path = os.path.join(out_dir, name + ".json")
    persist.save(system, path)
    return path


class Inputs:
    """The cached inputs: XML paths, held-back records, query pools."""

    def __init__(self, folder: str):
        self.folder = folder
        with open(os.path.join(folder, "inputs.json"), encoding="utf-8") as handle:
            data = json.load(handle)
        self.root_tag: str = data["root_tag"]
        self.held: List[str] = data["held"]
        #: name -> [{"text", "kind", "actual", "ref", "variants"}]
        self.pool: Dict[str, List[dict]] = data["pool"]
        self.warmup: Dict[str, List[dict]] = data["warmup"]
        #: name -> sha256 of the snapshot the references were taken on.
        self.snapshot_sha: Dict[str, str] = data["snapshot_sha"]

    def xml_path(self, name: str) -> str:
        return os.path.join(self.folder, name + ".xml")

    def reference(self, name: str) -> Dict[str, float]:
        """text -> reference estimate for every pooled query of ``name``."""
        return {
            item["text"]: item["ref"]
            for item in self.pool[name] + self.warmup[name]
        }


def load_inputs(log=print) -> Inputs:
    """The cached inputs, built first if this source tree has none."""
    folder = os.path.join(CACHE_DIR, code_digest())
    if not os.path.exists(os.path.join(folder, "inputs.json")):
        if os.path.isdir(CACHE_DIR):
            shutil.rmtree(CACHE_DIR)  # other source trees' inputs
        staging = folder + ".tmp"
        os.makedirs(staging)
        _build_inputs(staging, log)
        os.rename(staging, folder)
    return Inputs(folder)


def _build_inputs(folder: str, log) -> None:
    from repro import persist
    from repro.core import rewrite_scoped_order_query
    from repro.datasets import generate
    from repro.semcache import canonical_key
    from repro.workload import WorkloadGenerator
    from repro.xmltree.parser import parse_xml
    from repro.xmltree.serializer import serialize
    from repro.xpath import parse_query

    started = time.perf_counter()
    data: Dict[str, object] = {"pool": {}, "warmup": {}, "snapshot_sha": {}}
    for name in DATASETS:
        document = generate(name, scale=SCALE)
        if name == APPEND:
            root = document.root
            records = [serialize(child) for child in root.children]
            keep = len(records) - int(len(records) * HELD_BACK)
            text = "<%s>%s</%s>" % (root.tag, "".join(records[:keep]), root.tag)
            document = parse_xml(text, name=name)
            data["root_tag"] = root.tag
            data["held"] = records[keep:]
        else:
            text = serialize(document)
        xml_path = os.path.join(folder, name + ".xml")
        with open(xml_path, "w", encoding="utf-8") as handle:
            handle.write(text)

        generator = WorkloadGenerator(document, seed=POOL_SEED)
        workload = generator.full_workload(RAW, RAW, RAW)
        generated = (
            workload.simple + workload.branch + workload.order_branch
            + workload.order_trunk + generator.scoped_order_queries(RAW)
        )
        # One entry per canonical form: no two pooled queries may share
        # a semantic-cache key, or a "cold" request could hit the cache.
        seen = set()
        items = []
        for item in generated:
            key = canonical_key(parse_query(item.text))
            if key in seen:
                continue
            seen.add(key)
            items.append(
                {"text": item.text, "kind": item.kind, "actual": item.actual}
            )

        snapshot = build_snapshot(name, xml_path, folder)
        data["snapshot_sha"][name] = file_digest(snapshot)
        reference = persist.load(snapshot)
        for item in items:
            item["ref"] = reference.estimate(item["text"])
            # Scoped variants set an estimate's cost; drive.py balances
            # every run's share of cheap and costly queries on them.
            query = parse_query(item["text"])
            item["variants"] = len(rewrite_scoped_order_query(
                query, reference.path_provider, reference.encoding_table
            )) if item["kind"] == "order_scoped" else 1
        os.remove(snapshot)
        # Warm-up entries are every step-th item, so they span the classes.
        step = len(items) // WARMUP
        data["warmup"][name] = items[::step][:WARMUP]
        data["pool"][name] = [
            item for index, item in enumerate(items)
            if index % step or index // step >= WARMUP
        ]
        log(
            "prep %s: %d pooled queries (%s)" % (
                name, len(items) - WARMUP,
                ", ".join(
                    "%s %d" % (kind, sum(1 for i in items if i["kind"] == kind))
                    for kind in CLASSES
                ),
            )
        )
    log("prep took %.1f s" % (time.perf_counter() - started))
    with open(os.path.join(folder, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(data, handle)
