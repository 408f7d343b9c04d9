"""Stale-kernel guard: hot reloads and applied deltas must invalidate.

A kernel compiled against a replaced synopsis must never serve again —
captured references (in-flight joins, cached plans) fall back to the
legacy path via ``supports()``.  The last-good degradation path keeps
both the system *and* its warm kernel, because the synopsis it serves
did not change.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import EstimationSystem, persist
from repro.build.stream import scan_text
from repro.cluster.delta import DeltaError
from repro.service import SynopsisRegistry
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument
from repro.xmltree.serializer import serialize

QUERY = "//A/B"


def _touch(path, offset_ns=1):
    stamp = time.time_ns() + offset_ns
    os.utime(path, ns=(stamp, stamp))


@pytest.fixture()
def snapshot_dir(tmp_path, figure1):
    system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
    persist.save(system, str(tmp_path / "fig1.json"))
    return tmp_path


def _warm(system, query=QUERY):
    """Estimate once so the lazy kernel exists and has compiled state."""
    value = system.estimate(query)
    kernel = system.kernel()
    assert kernel is not None and kernel.stats()["joins"] > 0
    return value, kernel


class TestHotReload:
    def test_reload_invalidates_replaced_kernel(self, snapshot_dir, figure1):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        old_system = registry.get("fig1").system
        value, old_kernel = _warm(old_system)

        path = str(snapshot_dir / "fig1.json")
        persist.save(EstimationSystem.build(figure1, p_variance=1e9), path)
        _touch(path)

        entry = registry.get("fig1")
        assert entry.system is not old_system
        assert old_kernel.invalidated
        assert not old_kernel.supports(
            old_system.path_provider, old_system.encoding_table
        )
        # The replacement serves on its own fresh kernel.
        entry.system.estimate(QUERY)
        assert entry.system.kernel_active()
        # The detached old system still answers (legacy or rebuilt
        # kernel), and identically to before.
        assert old_system.estimate(QUERY) == value

    def test_last_good_fallback_keeps_kernel_warm(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        system = registry.get("fig1").system
        value, kernel = _warm(system)

        path = str(snapshot_dir / "fig1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        _touch(path)

        entry = registry.get("fig1")
        assert entry.load_error is not None
        # Degraded entries keep serving the same system on the same
        # (still valid) kernel: the synopsis underneath never changed.
        assert entry.system is system
        assert system.kernel() is kernel
        assert not kernel.invalidated
        assert entry.system.estimate(QUERY) == value

    def test_recovery_after_fallback_invalidates(self, snapshot_dir, figure1):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        system = registry.get("fig1").system
        _, kernel = _warm(system)

        path = str(snapshot_dir / "fig1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        _touch(path)
        assert registry.get("fig1").system is system

        persist.save(EstimationSystem.build(figure1, p_variance=1e9), path)
        _touch(path, offset_ns=2)
        entry = registry.get("fig1")
        assert entry.system is not system
        assert kernel.invalidated


def _library_document():
    root = el(
        "lib",
        el("rec", el("author"), el("title")),
        el("rec", el("author"), el("author"), el("title")),
    )
    return XmlDocument(root)


def _append(registry, name, fragment):
    """Append top-level records to an incremental entry as one delta."""
    partial = registry.system(name).incremental.scan_fragment(fragment)
    return registry.apply_delta(name, partial)


class TestLiveAppend:
    def test_append_invalidates_kernel(self):
        registry = SynopsisRegistry()
        entry = registry.register_incremental("lib", serialize(_library_document()))
        system = entry.system
        value, kernel = _warm(system, "//rec/$author")
        assert value == pytest.approx(3.0)

        _append(registry, "lib", "<rec><author/><title/></rec>")
        assert kernel.invalidated
        after = registry.get("lib")
        assert after.system is not system
        assert after.system.estimate("//rec/$author") == pytest.approx(4.0)
        assert after.system.kernel_active()

    def test_failed_append_keeps_kernel(self):
        registry = SynopsisRegistry()
        entry = registry.register_incremental("lib", serialize(_library_document()))
        system = entry.system
        _, kernel = _warm(system, "//rec/$author")
        # A whole-document partial has no top-level record sequence to
        # append to, so the delta is rejected before anything merges.
        whole = scan_text("<lib><rec><editor/></rec></lib>")
        with pytest.raises(DeltaError):
            registry.apply_delta("lib", whole)
        assert not kernel.invalidated
        assert registry.get("lib").system is system


class TestSystemLevel:
    def test_invalidate_kernel_is_idempotent(self, figure1_system):
        figure1_system.estimate(QUERY)
        kernel = figure1_system.kernel()
        assert figure1_system.invalidate_kernel() is True
        assert kernel.invalidated
        assert figure1_system.invalidate_kernel() is False
        # A fresh kernel is compiled on demand afterwards.
        assert figure1_system.kernel() is not kernel
        assert figure1_system.kernel_active()
