"""Server + client under faults: shedding, deadlines, drain, retries.

The acceptance properties:

* slow handlers saturate the gate and later requests are shed with 503 +
  ``Retry-After`` instead of queueing;
* a client with a retry policy backs off and succeeds once faults clear;
* a truncated snapshot during hot reload never changes served estimates
  and surfaces through ``/healthz``;
* graceful shutdown drains in-flight requests.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.reliability import faults
from repro.reliability.breaker import CircuitBreaker, CircuitOpenError
from repro.reliability.faults import DelayFault, FaultInjector
from repro.reliability.policy import RetryPolicy
from repro.reliability.shedding import AdmissionGate
from repro.service import (
    EndpointClient,
    EstimationService,
    ServiceError,
    ServiceServer,
    SynopsisRegistry,
)


def tight_server(figure1_system, **service_kwargs):
    registry = SynopsisRegistry()
    registry.register("fig1", figure1_system)
    service = EstimationService(registry, **service_kwargs)
    return ServiceServer(service, port=0)


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestLoadShedding:
    def test_slow_handler_sheds_with_503_and_retry_after(self, figure1_system):
        gate = AdmissionGate(max_inflight=1, retry_after_s=0.05)
        injector = FaultInjector().plan("server.handle", DelayFault(0.8, times=1))
        with tight_server(figure1_system, gate=gate) as server:
            with faults.inject(injector):
                slow_done = threading.Event()

                def slow_request():
                    EndpointClient(port=server.port).estimate("fig1", "//A/B")
                    slow_done.set()

                slow = threading.Thread(target=slow_request)
                slow.start()
                assert wait_for(lambda: gate.inflight == 1)

                with pytest.raises(ServiceError) as info:
                    EndpointClient(port=server.port).estimate("fig1", "//A/B")
                assert info.value.status == 503
                assert info.value.kind == "overloaded"
                assert info.value.retry_after_s == pytest.approx(0.05)
                assert info.value.retryable

                slow.join(timeout=10)
                assert slow_done.is_set()
            metrics = EndpointClient(port=server.port).metrics()
            assert metrics["counters"]["shed_total"] >= 1
            assert metrics["reliability"]["shed_total"] >= 1
            assert metrics["reliability"]["max_inflight"] == 1

    def test_client_retries_succeed_once_faults_clear(self, figure1_system):
        gate = AdmissionGate(max_inflight=1, retry_after_s=0.05)
        injector = FaultInjector().plan("server.handle", DelayFault(0.6, times=1))
        with tight_server(figure1_system, gate=gate) as server:
            with faults.inject(injector):
                slow = threading.Thread(
                    target=EndpointClient(port=server.port).estimate,
                    args=("fig1", "//A/B"),
                )
                slow.start()
                assert wait_for(lambda: gate.inflight == 1)

                pauses = []

                def recording_sleep(seconds):
                    pauses.append(seconds)
                    time.sleep(seconds)

                client = EndpointClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=8, base_backoff_s=0.1),
                    sleep=recording_sleep,
                )
                value = client.estimate("fig1", "//A/B")
                assert value == figure1_system.estimate("//A/B")
                assert pauses  # at least one shed before success
                # Backoffs honour the server's Retry-After floor.
                assert all(pause >= 0.05 for pause in pauses)
                slow.join(timeout=10)

    def test_retry_budget_bounds_the_wait(self, figure1_system):
        gate = AdmissionGate(max_inflight=1)
        with tight_server(figure1_system, gate=gate) as server:
            gate.enter()  # wedge the server at capacity for good
            try:
                client = EndpointClient(
                    port=server.port,
                    retry=RetryPolicy(max_attempts=50, base_backoff_s=0.2),
                    retry_budget_s=0.3,
                    sleep=time.sleep,
                )
                started = time.monotonic()
                with pytest.raises(ServiceError) as info:
                    client.estimate("fig1", "//A/B")
                assert info.value.status == 503
                assert time.monotonic() - started < 2.0
            finally:
                gate.leave()


class TestDeadlines:
    def test_slow_request_times_out_with_504(self, figure1_system):
        injector = FaultInjector().plan("server.handle", DelayFault(0.3, times=1))
        with tight_server(figure1_system, request_deadline_s=0.05) as server:
            with faults.inject(injector):
                with pytest.raises(ServiceError) as info:
                    EndpointClient(port=server.port).estimate("fig1", "//A/B")
            assert info.value.status == 504
            assert info.value.kind == "deadline_exceeded"
            metrics = EndpointClient(port=server.port).metrics()
            assert metrics["counters"]["deadline_exceeded_total"] == 1

    def test_fast_requests_unaffected_by_deadline(self, figure1_system):
        with tight_server(figure1_system, request_deadline_s=5.0) as server:
            client = EndpointClient(port=server.port)
            assert client.estimate("fig1", "//A/B") == figure1_system.estimate("//A/B")


class TestHotReloadFallbackOverHTTP:
    def test_truncated_snapshot_never_changes_estimates(self, running_server):
        client = EndpointClient(port=running_server.port)
        baseline = client.estimate("fig1", "//A/B")
        assert client.healthz()["status"] == "ok"

        registry = running_server.service.registry
        path = os.path.join(registry.snapshot_dir, "fig1.json")
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 3])
        stamp = time.time_ns() + 1_000_000
        os.utime(path, ns=(stamp, stamp))

        for _ in range(3):
            assert client.estimate("fig1", "//A/B") == baseline
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["reload_failures"] == 1
        assert "fig1" in health["degraded"]
        assert client.metrics()["reliability"]["reload_failures"] == 1

        # Healing the file flips health back without a restart.
        with open(path, "w") as handle:
            handle.write(text)
        stamp += 1_000_000
        os.utime(path, ns=(stamp, stamp))
        assert client.estimate("fig1", "//A/B") == baseline
        assert client.healthz()["status"] == "ok"


class TestGracefulShutdown:
    def test_close_drains_inflight_requests(self, figure1_system):
        gate = AdmissionGate(max_inflight=4)
        injector = FaultInjector().plan("server.handle", DelayFault(0.4, times=1))
        server = tight_server(figure1_system, gate=gate)
        server.start()
        with faults.inject(injector):
            outcome = {}

            def slow_request():
                try:
                    outcome["value"] = EndpointClient(port=server.port).estimate(
                        "fig1", "//A/B"
                    )
                except Exception as error:  # pragma: no cover - failure detail
                    outcome["error"] = error

            slow = threading.Thread(target=slow_request)
            slow.start()
            assert wait_for(lambda: gate.inflight == 1)
            server.close(drain_timeout_s=10.0)
            slow.join(timeout=10)
        assert outcome.get("value") == figure1_system.estimate("//A/B")
        assert gate.closed


class TestClientTransportKinds:
    def test_connection_refused_maps_to_connection_kind(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with pytest.raises(ServiceError) as info:
            EndpointClient(port=dead_port, keep_alive=False).healthz()
        assert info.value.kind == "connection"
        assert info.value.status == 0
        assert info.value.retryable

    def test_non_json_2xx_maps_to_bad_response(self):
        # An intermediary's HTML splash page with a 200 status: the
        # client maps it to a stable kind instead of leaking JSON errors.
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class HtmlStub(BaseHTTPRequestHandler):
            def do_GET(self):
                body = b"<html>proxy splash page</html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), HtmlStub)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(ServiceError) as info:
                EndpointClient(port=httpd.server_address[1], keep_alive=False).healthz()
            assert info.value.kind == "bad_response"
            assert info.value.status == 200
            assert not info.value.retryable
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_breaker_fails_fast_after_threshold(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        breaker = CircuitBreaker(failure_threshold=2, recovery_after_s=60.0)
        client = EndpointClient(port=dead_port, keep_alive=False, breaker=breaker)
        for _ in range(2):
            with pytest.raises(ServiceError):
                client.healthz()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client.healthz()

    def test_breaker_recovers_after_service_returns(self, figure1_system):
        clock_now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_after_s=10.0, clock=lambda: clock_now[0]
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        down = EndpointClient(port=dead_port, keep_alive=False, breaker=breaker)
        with pytest.raises(ServiceError):
            down.healthz()
        assert breaker.state == "open"
        clock_now[0] = 10.0  # recovery window elapses
        with tight_server(figure1_system) as server:
            up = EndpointClient(port=server.port, breaker=breaker)
            assert up.healthz()["status"] == "ok"  # the half-open probe
            assert breaker.state == "closed"
