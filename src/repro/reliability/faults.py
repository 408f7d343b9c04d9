"""Deterministic fault injection for the reliability test suite.

Production code is sprinkled with cheap *fault points* —
``faults.fire("persist.write", text)`` — that are no-ops (one global
read) unless a :class:`FaultInjector` is installed with
:func:`inject`.  An injector carries *plans*: per-site fault objects that
fire on a deterministic schedule (the first ``times`` matching calls,
every ``every``-th call) and either raise, delay, or transform the
payload flowing through the point.  No randomness anywhere — a test that
plans "fail the first two writes" sees exactly the first two writes fail,
on every run, on every platform.

Sites currently wired in::

    persist.write      payload = snapshot text about to be written
    persist.replace    fired just before the atomic rename
    registry.load      fired at every snapshot freshness check (before the
                       stat stamp is taken, so also when it holds) and
                       before a first load
    server.handle      fired at the top of every estimate request
    build.scan         fired at the start of every in-process shard scan

Pool workers live in other processes, where the in-process injector is
invisible; :func:`worker_faults` covers them with an environment-variable
plan plus an exclusive-create marker directory, so "crash the first N
worker scans" is exact even across ``fork``/``spawn`` and across retries.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple, Type


class Fault:
    """One planned fault: schedule (``times``/``every``) plus an effect.

    ``times=None`` never exhausts; ``every=k`` fires on the k-th, 2k-th,
    ... matching call of the site (1-based).  Subclasses override
    :meth:`apply`, which runs *outside* the injector lock (it may sleep).
    """

    def __init__(self, times: Optional[int] = 1, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1, got %r" % (every,))
        self.times = times
        self.every = every
        self.fired = 0

    def matches(self, call_number: int) -> bool:
        """(Holding the injector lock.)  Claim this call if scheduled."""
        if self.times is not None and self.fired >= self.times:
            return False
        if call_number % self.every != 0:
            return False
        self.fired += 1
        return True

    def apply(self, payload: Any) -> Any:
        return payload


class FailFault(Fault):
    """Raise ``exc_type(*args)`` — a fresh instance per firing."""

    def __init__(
        self,
        exc_type: Type[BaseException] = OSError,
        *args: Any,
        times: Optional[int] = 1,
        every: int = 1,
    ):
        super().__init__(times=times, every=every)
        self.exc_type = exc_type
        self.args = args or ("injected fault",)

    def apply(self, payload: Any) -> Any:
        raise self.exc_type(*self.args)


class DelayFault(Fault):
    """Sleep ``delay_s`` (a slow disk, a stalled handler, a long GC)."""

    def __init__(self, delay_s: float, times: Optional[int] = 1, every: int = 1):
        super().__init__(times=times, every=every)
        self.delay_s = delay_s

    def apply(self, payload: Any) -> Any:
        time.sleep(self.delay_s)
        return payload


class TruncateFault(Fault):
    """Keep only a prefix of a str/bytes payload (a torn write)."""

    def __init__(self, keep: int, times: Optional[int] = 1, every: int = 1):
        super().__init__(times=times, every=every)
        self.keep = keep

    def apply(self, payload: Any) -> Any:
        if payload is None:
            return payload
        return payload[: self.keep]


class CorruptFault(Fault):
    """Flip a byte in the middle of a str payload (silent corruption)."""

    def apply(self, payload: Any) -> Any:
        if not payload:
            return payload
        middle = len(payload) // 2
        flipped = chr((ord(payload[middle]) ^ 0x01) or 0x31)
        return payload[:middle] + flipped + payload[middle + 1 :]


class FaultInjector:
    """Site → planned faults, with per-site call counting (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: Dict[str, List[Fault]] = {}
        self._calls: Dict[str, int] = {}
        self.log: List[Tuple[str, int, str]] = []  # (site, call#, fault class)

    def plan(self, site: str, fault: Fault) -> "FaultInjector":
        with self._lock:
            self._plans.setdefault(site, []).append(fault)
        return self

    def fire(self, site: str, payload: Any = None) -> Any:
        with self._lock:
            number = self._calls.get(site, 0) + 1
            self._calls[site] = number
            due = [
                fault
                for fault in self._plans.get(site, ())
                if fault.matches(number)
            ]
            for fault in due:
                self.log.append((site, number, type(fault).__name__))
        # Effects run unlocked: a DelayFault must not serialize the world.
        for fault in due:
            payload = fault.apply(payload)
        return payload

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def fired(self, site: str) -> int:
        with self._lock:
            return sum(1 for logged_site, _, _ in self.log if logged_site == site)


#: The process-wide active injector (None = every fault point is a no-op).
_active: Optional[FaultInjector] = None


def fire(site: str, payload: Any = None) -> Any:
    """The production-side fault point: free when nothing is injected."""
    injector = _active
    if injector is None:
        return payload
    return injector.fire(site, payload)


@contextmanager
def inject(injector: Optional[FaultInjector] = None) -> Iterator[FaultInjector]:
    """Install ``injector`` (or a fresh one) for the duration of a block."""
    global _active
    if injector is None:
        injector = FaultInjector()
    previous = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = previous


# ----------------------------------------------------------------------
# Cross-process worker faults
# ----------------------------------------------------------------------

#: Environment plan consumed by pool workers (inherited by fork *and*
#: spawn children).  JSON: {"dir", "kind", "times", "delay_s"}.
WORKER_FAULT_ENV = "REPRO_WORKER_FAULTS"

#: Exit code of a deliberately crashed worker (distinguishable from a
#: Python traceback's exit 1 when debugging the supervisor).
WORKER_CRASH_EXIT = 3


@contextmanager
def worker_faults(
    kind: str = "crash", times: int = 1, delay_s: float = 0.0
) -> Iterator[str]:
    """Plan faults inside pool worker processes for the enclosed block.

    ``kind="crash"`` hard-kills the worker (``os._exit``) at the top of a
    shard scan; ``kind="delay"`` sleeps ``delay_s`` there instead (a hung
    worker, from the supervisor's point of view).  Exactly ``times``
    scans fault, fleet-wide: each firing claims a marker file with
    ``O_CREAT | O_EXCL``, which is atomic across processes.
    """
    if kind not in ("crash", "delay"):
        raise ValueError("unknown worker fault kind %r" % (kind,))
    directory = tempfile.mkdtemp(prefix="repro-worker-faults-")
    spec = json.dumps(
        {"dir": directory, "kind": kind, "times": times, "delay_s": delay_s}
    )
    previous = os.environ.get(WORKER_FAULT_ENV)
    os.environ[WORKER_FAULT_ENV] = spec
    try:
        yield directory
    finally:
        if previous is None:
            os.environ.pop(WORKER_FAULT_ENV, None)
        else:
            os.environ[WORKER_FAULT_ENV] = previous
        try:
            for name in os.listdir(directory):
                os.unlink(os.path.join(directory, name))
            os.rmdir(directory)
        except OSError:
            pass


def worker_fault_point() -> None:
    """Called by every shard scan; faults if an environment plan says so."""
    spec = os.environ.get(WORKER_FAULT_ENV)
    if not spec:
        return
    try:
        config = json.loads(spec)
        directory = config["dir"]
        times = int(config["times"])
    except (ValueError, KeyError, TypeError):
        return
    for index in range(times):
        marker = os.path.join(directory, "fired-%d" % index)
        try:
            descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except (FileExistsError, OSError):
            continue
        os.close(descriptor)
        if config.get("kind") == "crash":
            os._exit(WORKER_CRASH_EXIT)
        time.sleep(float(config.get("delay_s", 0.0)))
        return
