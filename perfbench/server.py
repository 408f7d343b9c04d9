"""The served process: set-up, start, health wait, /proc counters, stop."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from typing import Optional

from perfbench.prep import DATASETS, ROOT, SRC, build_snapshot

BANNER = re.compile(r"on http://([0-9.]+):(\d+)")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT_S = 60.0


def _pin(pid: int, cpu: Optional[int]) -> None:
    if cpu is not None and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu})


def shared_core() -> Optional[int]:
    """The core the client and the server share: the host's last one.

    In this closed loop the client and the server never compute at the
    same time, and on a virtual machine waking an idle second vCPU for
    every request costs more than a context switch: on a 2-vCPU host,
    zipf-hot read p50 was 0.91-0.97 ms on one shared core against
    1.13-1.31 ms on two, and p99 1.6-1.7 ms against 6.5-11.2 ms.  The
    other cores stay free for the rest of the system.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    return max(os.sched_getaffinity(0))


class ServerProcess:
    """One ``repro serve --workers 1`` process (CLI defaults otherwise)."""

    def __init__(self, snapshot_dir: str, log_path: str, cpu: Optional[int] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--snapshot-dir", snapshot_dir,
             "--port", "0", "--workers", "1"],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        _pin(self.proc.pid, cpu)
        self.host = "127.0.0.1"
        self.port = 0

    def wait_ready(self, expected: int) -> None:
        """Block until the banner names a port and /healthz reports
        ``expected`` synopses with status ok."""
        from repro.service import EndpointClient, ServiceError

        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start: %s" % self.log_tail())
            with open(self.log_path, encoding="utf-8") as handle:
                match = BANNER.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.002)
        with EndpointClient(self.host, port=self.port, timeout=5.0) as client:
            while True:
                try:
                    health = client.healthz()
                    if health.get("status") == "ok" and health.get("synopses") == expected:
                        return
                except ServiceError:
                    pass
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy: %s" % self.log_tail())
                time.sleep(0.002)

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server process so far."""
        with open("/proc/%d/stat" % self.proc.pid, encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def peak_rss_kb(self) -> int:
        """VmHWM of the server process, in kB."""
        with open("/proc/%d/status" % self.proc.pid, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc/%d/status" % self.proc.pid)

    def log_tail(self) -> str:
        with open(self.log_path, encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def stop(self) -> None:
        """Interrupt (the CLI drains and exits), then kill if it lingers;
        always waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def set_up(inputs, folder: str, cpu: Optional[int]):
    """Build every served synopsis from its XML, persist it, start the
    server and wait for its first healthy reply.

    Returns ``(server, seconds, start_s)``: the whole set-up and its
    part from spawning the server to the healthy reply.
    """
    os.makedirs(folder)
    started = time.perf_counter()
    for name in DATASETS:
        build_snapshot(name, inputs.xml_path(name), folder)
    built = time.perf_counter()
    server = ServerProcess(folder, folder + ".log", cpu=cpu)
    try:
        server.wait_ready(len(DATASETS))
    except BaseException:
        server.stop()
        raise
    ready = time.perf_counter()
    return server, ready - started, ready - built
