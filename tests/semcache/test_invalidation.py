"""Invalidation races: a cached estimate must never outlive its synopsis.

Every path that changes synopsis content — registry hot reload,
re-registration, delta application, pre-fork pack remap — must bump the
semantic cache's generation so resident entries can never be served
again.  The converse also matters: paths that do *not* change content
(last-good degraded reloads) must keep the warm cache.

The companion invariant is bit-identity: with the cache enabled, every
estimate (cold, warm, batch, equivalent spelling) equals the uncached
float exactly.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import EstimationSystem, persist
from repro.build.builder import build_synopsis
from repro.cluster.delta import IncrementalSynopsis
from repro.semcache import canonical_key, options_fingerprint
from repro.service import EndpointClient, ServerConfig, SynopsisRegistry
from repro.shm import WorkerPool, pool_supported
from repro.workload import WorkloadGenerator
from repro.xpath.parser import parse_query

QUERY = "//A/$B"


def _touch(path, offset_ns=1):
    """Force a distinct mtime even on coarse-grained filesystems."""
    stamp = time.time_ns() + offset_ns
    os.utime(path, ns=(stamp, stamp))


def _workload_texts(document, limit=24):
    workload = WorkloadGenerator(document, seed=11).full_workload(
        raw_simple=60, raw_branch=60, raw_order=60
    )
    texts = [
        item.text
        for item in (
            workload.simple + workload.branch
            + workload.order_branch + workload.order_trunk
        )
    ]
    return texts[:limit]


@pytest.mark.parametrize("fixture", ["ssplays_small", "dblp_small", "xmark_small"])
class TestBitIdentity:
    def test_cached_estimates_are_bit_identical(self, fixture, request):
        document = request.getfixturevalue(fixture)
        system = EstimationSystem.build(document, p_variance=0, o_variance=0)
        texts = _workload_texts(document)
        assert texts, "workload generator produced no queries"
        # Ground truth with the cache disabled entirely.
        system.semcache.configure(0, None)
        uncached = [system.estimate(text) for text in texts]
        system.semcache.configure(4096, None)
        cold = [system.estimate(text) for text in texts]
        warm = [system.estimate(text) for text in texts]
        assert cold == uncached
        assert warm == uncached
        assert system.semcache.stats().hits >= len(texts)

    def test_batch_with_duplicates_matches_direct(self, fixture, request):
        document = request.getfixturevalue(fixture)
        system = EstimationSystem.build(document, p_variance=0, o_variance=0)
        texts = _workload_texts(document, limit=8)
        batch = texts + texts[::-1] + texts[:3]
        expected = {text: system.estimate(text) for text in texts}
        values = system.estimate(batch)
        assert values == [expected[text] for text in batch]


class TestEquivalentSpellings:
    def test_permuted_branches_share_one_entry(self, figure1):
        system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        spelled = "//A[/B][/C]/$D"
        permuted = "//A[/C][/B]/$D"
        # Branch permutation is value-preserving on the fixpoint path...
        system.semcache.configure(0, None)
        assert system.estimate(spelled) == system.estimate(permuted)
        # ...so both spellings read through one cache entry.
        system.semcache.configure(4096, None)
        value = system.estimate(spelled)
        before = system.semcache.stats()
        assert system.estimate(permuted) == value
        after = system.semcache.stats()
        assert after.hits == before.hits + 1
        assert after.size == before.size


class TestGenerationBump:
    def test_invalidate_kernel_bumps_the_semcache(self, figure1):
        system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        generation = system.semcache.generation
        system.invalidate_kernel()
        assert system.semcache.generation == generation + 1

    def test_poisoned_entry_dies_on_bump(self, figure1):
        """Direct proof that estimate() reads the cache — and that a bump
        cuts it off: plant a sentinel under the live key, watch it get
        served, bump, and watch the true value come back."""
        system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        truth = system.estimate(QUERY)
        key = canonical_key(parse_query(QUERY))
        fingerprint = options_fingerprint(True, True)
        sentinel = truth + 1234.5
        system.semcache.put(key, fingerprint, sentinel)
        assert system.estimate(QUERY) == sentinel  # the cache is live
        system.invalidate_kernel()
        assert system.estimate(QUERY) == truth  # the sentinel did not survive

    def test_detail_and_trace_bypass_the_cache(self, figure1):
        from repro.core.options import EstimateOptions

        system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        truth = system.estimate(QUERY)
        key = canonical_key(parse_query(QUERY))
        system.semcache.put(key, options_fingerprint(True, True), truth + 99.0)
        detailed = system.estimate(QUERY, options=EstimateOptions(detail=True))
        traced = system.estimate(QUERY, options=EstimateOptions(trace=True))
        assert detailed.value == truth
        assert traced.value == truth


class TestRegistryInvalidation:
    @pytest.fixture()
    def coarse_figure1(self, figure1):
        # Huge variance thresholds collapse the histograms, so the
        # reloaded system estimates differently from the exact one.
        return EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)

    def test_hot_reload_invalidates_the_replaced_system(
        self, tmp_path, figure1, coarse_figure1
    ):
        exact = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        path = str(tmp_path / "fig1.json")
        persist.save(exact, path)
        registry = SynopsisRegistry(str(tmp_path), check_interval=0.0)
        registry.scan()
        # The coarse histograms disagree with the exact ones on this
        # order query, so a stale cached float would be visible.
        query = "//A[/C/folls::$B]"
        old_system = registry.get("fig1").system
        warm_value = old_system.estimate(query)  # cache is now warm
        generation = old_system.semcache.generation

        persist.save(coarse_figure1, path)
        _touch(path)
        entry = registry.get("fig1")
        assert entry.generation == 2
        # The swapped-out system was invalidated: a captured reference
        # cannot serve its pre-reload cache entries.
        assert old_system.semcache.generation == generation + 1
        reloaded = entry.system.estimate(query)
        assert reloaded == pytest.approx(coarse_figure1.estimate(query))
        assert reloaded != warm_value

    def test_reregistration_invalidates_the_previous_system(
        self, figure1, coarse_figure1
    ):
        exact = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        registry = SynopsisRegistry()
        registry.register("demo", exact)
        exact.estimate(QUERY)
        generation = exact.semcache.generation
        registry.register("demo", coarse_figure1)
        assert exact.semcache.generation == generation + 1
        assert registry.get("demo").system is coarse_figure1

    def test_last_good_fallback_keeps_the_warm_cache(self, tmp_path, figure1):
        exact = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        path = str(tmp_path / "fig1.json")
        persist.save(exact, path)
        registry = SynopsisRegistry(str(tmp_path), check_interval=0.0)
        registry.scan()
        system = registry.get("fig1").system
        value = system.estimate(QUERY)
        generation = system.semcache.generation
        hits_before = system.semcache.stats().hits

        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        _touch(path)
        entry = registry.get("fig1")
        # Degraded: same system, same statistics — the cache stays warm
        # (nothing it holds went stale) and keeps serving hits.
        assert entry.degraded
        assert entry.system is system
        assert system.semcache.generation == generation
        assert entry.system.estimate(QUERY) == value
        assert system.semcache.stats().hits == hits_before + 1


class TestDeltaInvalidation:
    BASE = "".join(
        "<A><B/><C><D/></C></A>" if i % 2 else "<A><B/><B/></A>"
        for i in range(24)
    )

    @staticmethod
    def doc(body):
        return "<Root>" + body + "</Root>"

    def test_deferred_apply_still_bumps_the_generation(self):
        incremental = IncrementalSynopsis.build(
            self.doc(self.BASE), name="inc", drift_threshold=10.0
        )
        system = incremental.system
        value = system.estimate(QUERY)
        generation = system.semcache.generation
        outcome = incremental.apply(
            incremental.scan_fragment("<A><B/></A>")
        )
        assert not outcome.refreshed
        assert outcome.system is system
        # Stats were unchanged (deferred), so cached floats would still
        # be correct — but the invalidation contract must never depend
        # on the drift heuristic.  The bump is O(1), so it is always on.
        assert system.semcache.generation == generation + 1
        assert system.estimate(QUERY) == value  # recomputed, same stats

    def test_warm_cache_never_leaks_across_a_refresh(self):
        incremental = IncrementalSynopsis.build(self.doc(self.BASE), name="inc")
        old_system = incremental.system
        old_system.estimate(QUERY)  # warm the pre-delta cache
        fragment = "<A><B/><B/><B/></A>" * 4
        outcome = incremental.apply(incremental.scan_fragment(fragment))
        assert outcome.refreshed
        combined = build_synopsis(self.doc(self.BASE + fragment))
        assert outcome.system.estimate(QUERY) == combined.estimate(QUERY)
        assert outcome.system.estimate(QUERY) != old_system.estimate(QUERY)


@pytest.mark.skipif(
    not pool_supported(), reason="needs os.fork and SO_REUSEPORT"
)
class TestPreForkReload:
    def test_remap_smoke_no_worker_serves_a_stale_cached_estimate(
        self, tmp_path, ssplays_small
    ):
        from repro.datasets import generate_ssplays

        version_a = EstimationSystem.build(
            ssplays_small, p_variance=0, o_variance=0
        )
        version_b = EstimationSystem.build(
            generate_ssplays(scale=0.1, seed=5), p_variance=0, o_variance=0
        )
        query = "//SPEECH"
        value_a = version_a.estimate(query)
        value_b = version_b.estimate(query)
        assert value_a != value_b
        path = str(tmp_path / "SSPlays.json")
        persist.save(version_a, path)
        config = ServerConfig(port=0, workers=2, reload_interval_s=0.0)
        with WorkerPool(
            str(tmp_path), workers=2, config=config, reload_poll_s=0.05
        ) as pool:
            with EndpointClient(port=pool.port) as client:
                # Warm every worker's semcache on the hot query.
                for _ in range(16):
                    reply = client._request(
                        "POST",
                        "/estimate",
                        {"synopsis": "SSPlays", "query": query},
                    )
                    assert reply["result"]["value"] == value_a
                persist.save(version_b, path)
                pool.reload(force=True)
                deadline = time.monotonic() + 30.0
                while not pool.reload_converged():
                    assert time.monotonic() < deadline, "workers never remapped"
                    time.sleep(0.05)
                # Every worker now serves the new synopsis; a warm cache
                # entry from version A must never resurface.
                for _ in range(16):
                    reply = client._request(
                        "POST",
                        "/estimate",
                        {"synopsis": "SSPlays", "query": query},
                    )
                    assert reply["result"]["value"] == value_b
