"""The unified client: ``repro.connect`` target forms, seed failover,
structured results, and a warning-free EndpointClient."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import persist
from repro.cluster.client import Client, connect
from repro.cluster.delta import IncrementalSynopsis
from repro.core.result import EstimateResult
from repro.service import EstimationService, ServiceServer, SynopsisRegistry
from repro.service.client import EndpointClient, ServiceError

BODY = "".join("<A><B/><C/></A>" for _ in range(8))
DOC = "<Root>" + BODY + "</Root>"


@pytest.fixture()
def backend(tmp_path):
    maintainer = IncrementalSynopsis.build(DOC, name="demo")
    persist.save(maintainer.system, str(tmp_path / "demo.json"))
    registry = SynopsisRegistry(str(tmp_path))
    registry.scan()
    with ServiceServer(EstimationService(registry), port=0) as server:
        yield server, maintainer


class TestConnectTargets:
    def test_host_port_string(self, backend):
        server, _ = backend
        with repro.connect("%s:%d" % (server.host, server.port)) as client:
            result = client.estimate("demo", "//A/$B")
            assert isinstance(result, EstimateResult)
            assert result.query == "//A/$B"
            assert float(result) == result.value

    def test_url_string(self, backend):
        server, _ = backend
        with connect("http://%s:%d" % (server.host, server.port)) as client:
            assert client.estimate("demo", "//A/$B").value > 0

    def test_host_port_pair(self, backend):
        server, _ = backend
        with connect((server.host, server.port)) as client:
            assert client.estimate("demo", "//A/$B").value > 0

    def test_bad_target_rejected(self):
        with pytest.raises(TypeError):
            connect(42)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            Client([])


class TestSeedFailover:
    def test_dead_seed_falls_through_to_live_one(self, backend):
        server, _ = backend
        # First seed points nowhere (port 1 refuses), second is real.
        with connect(
            ["127.0.0.1:1", "%s:%d" % (server.host, server.port)], timeout=2.0
        ) as client:
            result = client.estimate("demo", "//A/$B")
            assert result.value > 0
            # The live seed is now preferred; a second call sticks.
            assert client.estimate("demo", "//A/$C").value >= 0

    def test_all_seeds_dead_raises_transport_error(self):
        with connect(["127.0.0.1:1", "127.0.0.1:2"], timeout=1.0) as client:
            with pytest.raises(ServiceError) as info:
                client.estimate("demo", "//A/$B")
            assert info.value.status == 0

    def test_http_error_from_a_live_seed_is_authoritative(self, backend):
        """A seed that answered — even with a 404 — wins; the client
        must not shop the request around the other seeds."""
        server, _ = backend
        address = "%s:%d" % (server.host, server.port)
        with connect([address, address]) as client:
            with pytest.raises(ServiceError) as info:
                client.estimate("nope", "//A/$B")
            assert info.value.status == 404


class TestStructuredResults:
    def test_batch_returns_results_in_order(self, backend):
        server, maintainer = backend
        queries = ["//A/$B", "//A/$C", "/Root/$A"]
        with connect("%s:%d" % (server.host, server.port)) as client:
            results = client.estimate_batch("demo", queries)
        assert [r.query for r in results] == queries
        for result in results:
            assert result.value == maintainer.system.estimate(result.query)

    def test_trace_passthrough(self, backend):
        server, _ = backend
        with connect("%s:%d" % (server.host, server.port)) as client:
            result = client.estimate("demo", "//A/$B", trace=True)
        assert result.trace is not None

    def test_topology_is_none_for_plain_service(self, backend):
        server, _ = backend
        with connect("%s:%d" % (server.host, server.port)) as client:
            assert client.topology() is None

    def test_health_and_synopses_passthrough(self, backend):
        server, _ = backend
        with connect("%s:%d" % (server.host, server.port)) as client:
            assert client.healthz()["status"] == "ok"
            names = {info["name"] for info in client.synopses()}
            assert "demo" in names

    def test_apply_delta_through_client(self, backend):
        server, maintainer = backend
        partial = maintainer.scan_fragment("<A><B/><B/></A>")
        with connect("%s:%d" % (server.host, server.port)) as client:
            outcome = client.apply_delta("demo", partial, force_refresh=True)
        assert outcome["refreshed"] is True
        assert outcome["generation"] >= 1


class TestDeprecationShim:
    """The deprecation cycle is over: the canonical client warns about
    nothing."""

    def test_endpoint_client_stays_silent(self, backend):
        server, _ = backend
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            client = EndpointClient(host=server.host, port=server.port)
            client.close()


class TestWireKinds:
    def test_cluster_error_kinds_registered(self):
        from repro.errors import WIRE_KINDS

        for kind in ("delta", "delta_unsupported", "cluster", "replicas_exhausted"):
            assert kind in WIRE_KINDS, kind
