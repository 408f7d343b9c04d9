"""Pre-fork worker pool integration tests (real fork, real sockets).

One module-scoped pool serves most tests (forking workers costs ~a
second each); assertions on counters use deltas so test order cannot
matter.  The crash test SIGKILLs a live worker and waits for the
supervisor to respawn it, which also re-arms the pool for later tests.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import time

import pytest

from repro import persist
from repro.service import ServerConfig, ServiceClient
from repro.service.config import SERVING_GC_THRESHOLD
from repro.shm import WorkerPool, pool_supported, stage_packs
from repro.shm.control import ControlServer, pool_health, pool_metrics, render_pool_prom

pytestmark = pytest.mark.skipif(
    not pool_supported(), reason="needs os.fork and SO_REUSEPORT"
)


def _wait(predicate, timeout_s=20.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def pool_dir(tmp_path_factory, ssplays_system):
    directory = tmp_path_factory.mktemp("pool-snapshots")
    persist.save(ssplays_system, str(directory / "SSPlays.json"))
    return directory


@pytest.fixture(scope="module")
def pool(pool_dir):
    config = ServerConfig(port=0, workers=2, reload_interval_s=0.0)
    with WorkerPool(
        str(pool_dir), workers=2, config=config, reload_poll_s=0.05
    ) as pool:
        yield pool


@pytest.fixture()
def client(pool):
    with ServiceClient(port=pool.port) as client:
        yield client


class TestServing:
    def test_estimates_through_balanced_port(self, pool, client, ssplays_system):
        expected = ssplays_system.estimate("//PLAY/ACT")
        assert client.estimate("SSPlays", "//PLAY/ACT") == expected

    def test_batch(self, client, ssplays_system):
        values = client.estimate_batch("SSPlays", ["//PLAY", "//ACT"])
        assert values == [
            ssplays_system.estimate("//PLAY"),
            ssplays_system.estimate("//ACT"),
        ]

    def test_workers_serve_from_packs_not_recompiles(self, pool, client):
        client.estimate("SSPlays", "//PLAY/ACT/$SCENE")
        assert _wait(
            lambda: pool.arena.aggregate()["totals"]["pack_hits"] > 0
        ), "no worker decoded a pack table"
        assert pool.arena.aggregate()["totals"]["pack_misses"] == 0
        assert pool.pack_status.get("SSPlays") in ("staged", "fresh")

    def test_healthz_reports_kernels_and_workers(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["kernels"] == {"SSPlays": "ready"}
        assert len(body["workers"]) == 2

    def test_worker_metrics_carry_pool_block(self, client):
        document = client.metrics()
        workers = document["workers"]
        assert workers["count"] == 2
        assert len(workers["per_worker"]) == 2
        # Each forked worker runs with the daemon's collector policy.
        assert document["process"]["gc"]["threshold"] == list(SERVING_GC_THRESHOLD)

    def test_describe(self, pool):
        info = pool.describe()
        assert info["workers"] == 2
        assert info["port"] == pool.port
        assert info["packs"]["SSPlays"] in ("staged", "fresh")


class TestAggregation:
    def test_aggregate_equals_sum_of_slabs(self, pool, client):
        for _ in range(7):
            client.estimate("SSPlays", "//PLAY")
        assert _wait(
            lambda: pool.arena.aggregate()["totals"]["requests"] >= 7
        )
        aggregate = pool.arena.aggregate()
        for field in ("requests", "queries", "errors", "latency_count"):
            assert aggregate["totals"][field] == sum(
                worker[field] for worker in aggregate["per_worker"]
            ), field

    def test_liveness_all_alive(self, pool):
        live = pool.liveness()
        assert len(live) == 2
        assert all(worker["alive"] for worker in live)
        assert all(worker["pid"] > 0 for worker in live)


class TestReload:
    def test_reload_converges_without_recompile(self, pool, client):
        before = pool.arena.aggregate()
        generation_before = before["reload_generation"]
        misses_before = before["totals"]["pack_misses"]
        reply = pool.reload(force=True)
        assert reply["generation"] == generation_before + 1
        assert reply["packs"]["SSPlays"] == "staged"
        assert _wait(pool.reload_converged), "workers never remapped"
        after = pool.arena.aggregate()
        assert all(
            worker["generation"] == reply["generation"]
            for worker in after["per_worker"]
        )
        assert after["totals"]["remaps"] >= 2
        # Still serving, still pack-backed: the remap decoded the staged
        # pack instead of recompiling the kernel in-process.
        client.estimate("SSPlays", "//PLAY/ACT")
        assert (
            pool.arena.aggregate()["totals"]["pack_misses"] == misses_before
        )

    def test_rewritten_snapshot_is_served_after_reload(
        self, pool, pool_dir, client, ssplays_system
    ):
        persist.save(ssplays_system, str(pool_dir / "SSPlays.json"))
        pool.reload(force=True)
        assert _wait(pool.reload_converged)
        assert client.estimate("SSPlays", "//PLAY") == (
            ssplays_system.estimate("//PLAY")
        )


class TestCrashRestart:
    def test_sigkilled_worker_is_respawned(self, pool, client):
        restarts_before = pool.restarts_total
        victim = pool.liveness()[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        assert _wait(
            lambda: pool.restarts_total > restarts_before
            and all(worker["alive"] for worker in pool.liveness())
            and victim not in [worker["pid"] for worker in pool.liveness()],
            timeout_s=30.0,
        ), "supervisor did not respawn the killed worker"
        # The pool keeps serving throughout.
        assert client.estimate("SSPlays", "//PLAY") > 0


class TestControlPlane:
    def test_health_document(self, pool):
        assert _wait(lambda: pool_health(pool)["status"] == "ok")
        body = pool_health(pool)
        assert body["alive"] == 2 and body["converged"]

    def test_metrics_document(self, pool):
        document = pool_metrics(pool)
        assert document["workers"]["count"] == 2
        assert "totals" in document["workers"]

    def test_prometheus_rendering(self, pool):
        text = render_pool_prom(pool)
        assert "repro_pool_workers 2" in text
        assert 'repro_pool_worker_generation{worker="0"}' in text
        assert 'repro_pool_latency_ms{quantile="0.99"}' in text

    def test_http_endpoints(self, pool):
        control = ControlServer(pool, port=0).start()
        try:
            connection = http.client.HTTPConnection(
                control.host, control.port, timeout=10
            )
            connection.request("GET", "/healthz")
            health = json.loads(connection.getresponse().read())
            assert health["role"] == "pool-supervisor"
            connection.request("POST", "/reload", body=b"")
            reload_reply = json.loads(connection.getresponse().read())
            assert reload_reply["generation"] > 0
            connection.request("GET", "/metrics?format=prom")
            response = connection.getresponse()
            assert response.getheader("Content-Type", "").startswith("text/plain")
            assert b"repro_pool_workers" in response.read()
            connection.request("GET", "/nope")
            assert connection.getresponse().status == 404
            connection.close()
        finally:
            control.close()
        assert _wait(pool.reload_converged)


class TestStagePacks:
    def test_stage_then_fresh(self, tmp_path, ssplays_system):
        persist.save(ssplays_system, str(tmp_path / "SSPlays.json"))
        first = stage_packs(str(tmp_path))
        assert first == {"SSPlays": "staged"}
        assert (tmp_path / "SSPlays.kernelpack").exists()
        second = stage_packs(str(tmp_path))
        assert second == {"SSPlays": "fresh"}
        assert stage_packs(str(tmp_path), force=True) == {"SSPlays": "staged"}
