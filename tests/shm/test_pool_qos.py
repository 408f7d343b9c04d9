"""Pool workers serve with the QoS tiers and brownout the config asks
for, like a single-process ``serve()`` (both are on by default)."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import ServerConfig
from repro.shm import WorkerPool, pool_supported

pytestmark = pytest.mark.skipif(
    not pool_supported(), reason="needs os.fork and SO_REUSEPORT"
)


def _request(port, method, path, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_worker_replies_carry_tier_and_brownout_state(snapshot_dir):
    config = ServerConfig(port=0, workers=2)
    assert config.qos and config.brownout
    with WorkerPool(str(snapshot_dir), workers=2, config=config) as pool:
        status, reply = _request(
            pool.port, "POST", "/estimate",
            {"synopsis": "SSPlays", "query": "//PLAY/ACT"},
        )
        assert status == 200
        assert reply["tier"] == "interactive"
        status, health = _request(pool.port, "GET", "/healthz")
        assert status == 200
        assert health["shed_tiers"] == []
        assert health["brownout"]["state"] == "ok"
