"""Garbage-collection footprint of the serving path.

The plan cache is the only holder of a served AST (the parser's
text-keyed LRU stays out of the serving path), the daemons raise the
young-generation threshold while library servers keep the interpreter
defaults, and ``/metrics`` reports the collector's counters.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import urllib.request

import repro
from repro.service import (
    EndpointClient,
    EstimationService,
    PlanCache,
    ServiceMetrics,
    ServiceServer,
    SynopsisRegistry,
)
from repro.service.config import SERVING_GC_THRESHOLD
from repro.workload import WorkloadGenerator
from repro.xpath.ast import Query
from repro.xpath.parser import parse_query_cached

CAPACITY = 16


def _live_query_ids():
    gc.collect()
    return {id(obj) for obj in gc.get_objects() if isinstance(obj, Query)}


class TestPlanCacheHoldsServedAsts:
    def test_cold_texts_do_not_accumulate(self, ssplays_system, ssplays_small):
        workload = WorkloadGenerator(ssplays_small, seed=17).full_workload(60, 60, 60)
        texts = list(dict.fromkeys(
            item.text
            for kind in ("simple", "branch", "order_branch", "order_trunk")
            for item in getattr(workload, kind)
        ))[: 4 * CAPACITY]
        assert len(texts) == 4 * CAPACITY
        registry = SynopsisRegistry()
        registry.register("SSPlays", ssplays_system)
        service = EstimationService(registry, plan_cache=PlanCache(CAPACITY))
        before = _live_query_ids()
        parsed = parse_query_cached.cache_info()
        for text in texts:
            service.handle_estimate({"synopsis": "SSPlays", "query": text})
        after = parse_query_cached.cache_info()
        assert after.currsize == parsed.currsize
        assert after.misses == parsed.misses
        assert service.plan_cache.stats().evictions == 3 * CAPACITY
        # None of these texts is scoped, so each cached plan keeps exactly
        # its own AST (no clones or variants); the 48 evicted plans keep
        # nothing.
        assert len(_live_query_ids() - before) <= CAPACITY


class TestCollectorPolicy:
    def test_library_server_keeps_interpreter_threshold(self, snapshot_dir):
        threshold = gc.get_threshold()
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        with ServiceServer(EstimationService(registry), port=0) as server:
            client = EndpointClient(port=server.port)
            client.estimate("fig1", "//A/B")
            block = client.metrics()["process"]["gc"]
            client.close()
        assert gc.get_threshold() == threshold
        assert block["threshold"] == list(threshold)
        assert len(block["generations"]) == len(gc.get_stats())
        for generation in block["generations"]:
            assert set(generation) == {"collections", "collected", "uncollectable"}

    def test_prom_mirrors_collections(self, running_server):
        gc.collect()
        url = "http://%s:%d/metrics?format=prom" % (
            running_server.host, running_server.port,
        )
        with urllib.request.urlopen(url) as response:
            text = response.read().decode("utf-8")
        assert "# TYPE repro_gc_collections_total counter" in text
        counts = {
            line.split('"')[1]: int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_gc_collections_total{")
        }
        assert sorted(counts) == ["0", "1", "2"]
        assert counts["2"] >= 1

    def test_concurrent_scrapes_add_each_collection_once(self):
        metrics = ServiceMetrics()
        family = metrics.registry.get("repro_gc_collections_total")

        def scrape():
            for _ in range(50):
                metrics.render_prom()
                gc.collect(0)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scrape) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        # A double-added delta would push a count past the collector's.
        stats = gc.get_stats()
        for labels, child in family.children():
            assert child.value <= stats[int(labels["generation"])]["collections"]
        metrics.render_prom()
        young = family.labels(generation="0").value
        assert stats[0]["collections"] <= young <= gc.get_stats()[0]["collections"]

    def test_cli_serve_sets_serving_threshold(self, snapshot_dir):
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--snapshot-dir", str(snapshot_dir), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner
            port = int(banner.rsplit(":", 1)[1].split()[0].rstrip(")"))
            url = "http://127.0.0.1:%d/metrics" % port
            with urllib.request.urlopen(url) as response:
                block = json.loads(response.read())["process"]["gc"]
        finally:
            process.terminate()
            process.wait(timeout=10)
        assert block["threshold"] == list(SERVING_GC_THRESHOLD)
