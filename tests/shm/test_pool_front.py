"""The worker pool's two HTTP surfaces honour the configured read
deadline: each worker's service front and the supervisor's control
port answer a stalled request body with 408 ``read_timeout``."""

from __future__ import annotations

import pytest

from repro.service import ServerConfig, serve_pool
from repro.shm import WorkerPool, pool_supported
from tests.service.wire import parse_replies, stalled_body_reply

pytestmark = pytest.mark.skipif(
    not pool_supported(), reason="needs os.fork and SO_REUSEPORT"
)

CONFIG = ServerConfig(port=0, workers=2, read_deadline_s=0.3)


def assert_408(raw):
    (status, _, body), = parse_replies(raw)
    assert status == 408
    assert body["error"]["kind"] == "read_timeout"


def test_worker_answers_a_stalled_body_with_408(snapshot_dir):
    with WorkerPool(str(snapshot_dir), workers=1, config=CONFIG) as pool:
        assert_408(stalled_body_reply(pool.port))


def test_control_port_takes_the_configured_deadline(snapshot_dir):
    pool, control = serve_pool(str(snapshot_dir), config=CONFIG)
    with control:  # the pool itself need not run for /reload to read a body
        assert_408(stalled_body_reply(control.port, "/reload"))
