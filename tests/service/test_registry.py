"""Registry: scanning, hot reload, failure tolerance, appends as deltas."""

import os
import time

import pytest

from repro import EstimationSystem, persist
from repro.service import SynopsisRegistry, UnknownSynopsisError
from repro.service import registry as registry_module
from repro.shm import PACK_SUFFIX, write_pack
from repro.build.stream import scan_text
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument
from repro.xmltree.serializer import serialize

QUERY = "//A/B"


def _touch(path, offset_ns=1):
    """Force a distinct mtime even on coarse-grained filesystems."""
    stamp = time.time_ns() + offset_ns
    os.utime(path, ns=(stamp, stamp))


class TestScanAndGet:
    def test_scan_loads_all_snapshots(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        assert registry.scan() == ["SSPlays", "fig1"]
        assert registry.names() == ["SSPlays", "fig1"]
        assert len(registry) == 2

    def test_served_estimates_match_direct(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        served = registry.system("fig1")
        assert served.estimate(QUERY) == pytest.approx(figure1_system.estimate(QUERY))

    def test_unknown_name(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        with pytest.raises(UnknownSynopsisError):
            registry.get("nope")

    def test_snapshot_appearing_after_scan(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        persist.save(figure1_system, str(snapshot_dir / "late.json"))
        assert registry.get("late").system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )

    def test_scan_skips_unloadable_snapshot(self, snapshot_dir):
        (snapshot_dir / "broken.json").write_text("{not json", encoding="utf-8")
        registry = SynopsisRegistry(str(snapshot_dir))
        assert registry.scan() == ["SSPlays", "fig1"]
        assert "broken" in registry.scan_errors
        assert "not valid JSON" in registry.scan_errors["broken"]
        # The bad file is also not servable through the late-load path.
        with pytest.raises(UnknownSynopsisError):
            registry.get("broken")

    def test_late_unloadable_snapshot_is_unknown(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        (snapshot_dir / "late.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(UnknownSynopsisError):
            registry.get("late")

    def test_describe_shape(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        info = {entry["name"]: entry for entry in registry.describe()}
        assert info["fig1"]["generation"] == 1
        assert info["fig1"]["paths"] == 4
        assert str(snapshot_dir) in info["fig1"]["source"]


class TestHotReload:
    def test_rewritten_snapshot_is_picked_up(self, snapshot_dir, figure1, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        before = registry.get("fig1")
        assert before.generation == 1

        coarse = EstimationSystem.build(figure1, p_variance=1e9, o_variance=1e9)
        path = str(snapshot_dir / "fig1.json")
        persist.save(coarse, path)
        _touch(path)

        after = registry.get("fig1")
        assert after.generation == 2
        assert after.system.estimate(QUERY) == pytest.approx(coarse.estimate(QUERY))

    def test_unchanged_snapshot_is_not_reloaded(self, snapshot_dir):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        first = registry.get("fig1").system
        assert registry.get("fig1").system is first

    def test_malformed_overwrite_keeps_serving(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        _touch(path)

        entry = registry.get("fig1")
        assert entry.generation == 1
        assert entry.load_error is not None and "reload failed" in entry.load_error
        assert entry.system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )
        assert "load_error" in entry.describe()

    def test_deleted_snapshot_keeps_serving(self, snapshot_dir, figure1_system):
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        os.unlink(str(snapshot_dir / "fig1.json"))
        entry = registry.get("fig1")
        assert entry.system.estimate(QUERY) == pytest.approx(
            figure1_system.estimate(QUERY)
        )
        assert "unreadable" in entry.load_error

    def test_check_interval_throttles_stat(self, snapshot_dir, figure1):
        fake = [0.0]
        registry = SynopsisRegistry(
            str(snapshot_dir), check_interval=10.0, clock=lambda: fake[0]
        )
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        persist.save(EstimationSystem.build(figure1, p_variance=1e9), path)
        _touch(path)
        # Within the interval: stale entry is served without a stat.
        fake[0] = 5.0
        assert registry.get("fig1").generation == 1
        # Past the interval: the change is noticed.
        fake[0] = 20.0
        assert registry.get("fig1").generation == 2


@pytest.fixture()
def reads(monkeypatch):
    """Paths handed to the full snapshot read, in order."""
    seen = []
    real = registry_module._read_snapshot

    def counting(path):
        seen.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(registry_module, "_read_snapshot", counting)
    return seen


def _frozen_clock(monkeypatch, mtime_ns):
    """Files whose mtime and ctime all read ``mtime_ns``: a filesystem
    whose clock does not tick between two writes."""
    real = registry_module._file_stamp

    def frozen(path):
        stamp = real(path)
        return None if stamp is None else stamp[:2] + (mtime_ns, mtime_ns)

    monkeypatch.setattr(registry_module, "_file_stamp", frozen)


def _same_size_garbage(path):
    """Bytes of the file's length that do not load (checksum mismatch)."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    middle = len(data) // 2
    data[middle] = ord("0") if data[middle] != ord("0") else ord("1")
    return bytes(data)


class TestStatStamp:
    def test_settled_snapshot_is_not_reread(self, snapshot_dir, reads, monkeypatch):
        monkeypatch.setattr(registry_module, "RACY_WINDOW_NS", 0)
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        assert sorted(reads) == ["SSPlays.json", "fig1.json"]
        for _ in range(5):
            assert registry.get("fig1").generation == 1
        assert sorted(reads) == ["SSPlays.json", "fig1.json"]

    def test_racy_snapshot_is_reread(self, snapshot_dir, reads):
        # Freshly written files are inside the racy window: their stamp is
        # not trusted, so every check reads them in full.
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        registry.get("fig1")
        registry.get("fig1")
        assert reads.count("fig1.json") == 3

    def test_same_mtime_in_place_rewrite_inside_racy_window(
        self, snapshot_dir, monkeypatch
    ):
        # Same inode, same size, and a clock that did not tick: the stat
        # stamp cannot move.  The file was stamped inside the racy
        # window, so the check reads it and its checksum gives it away.
        _frozen_clock(monkeypatch, time.time_ns())
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        data = _same_size_garbage(path)
        with open(path, "r+b") as handle:
            handle.write(data)
        entry = registry.get("fig1")
        assert entry.generation == 1
        assert "reload failed" in entry.load_error

    def test_renamed_replacement_with_same_size_and_mtime(
        self, snapshot_dir, monkeypatch
    ):
        # A settled stamp (times far in the past) is trusted; a temp+rename
        # replacement with identical size and times still has a new inode.
        _frozen_clock(monkeypatch, 1_000_000_000)
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        path = str(snapshot_dir / "fig1.json")
        data = _same_size_garbage(path)
        with open(path + ".tmp", "wb") as handle:
            handle.write(data)
        os.replace(path + ".tmp", path)
        entry = registry.get("fig1")
        assert entry.generation == 1
        assert "reload failed" in entry.load_error

    def test_staged_and_removed_pack_is_picked_up(
        self, snapshot_dir, ssplays_system, reads, monkeypatch
    ):
        monkeypatch.setattr(registry_module, "RACY_WINDOW_NS", 0)
        # An older JSON, so that the pack staged below is the newer file.
        _touch(str(snapshot_dir / "SSPlays.json"), -10_000_000_000)
        registry = SynopsisRegistry(str(snapshot_dir))
        registry.scan()
        assert not registry.get("SSPlays").packed
        assert reads.count("SSPlays.json") == 1

        pack = str(snapshot_dir / ("SSPlays" + PACK_SUFFIX))
        write_pack(pack, system=ssplays_system, name="SSPlays")
        entry = registry.get("SSPlays")
        assert entry.packed and entry.generation == 2
        assert registry.get("SSPlays").generation == 2

        os.unlink(pack)
        entry = registry.get("SSPlays")
        assert not entry.packed and entry.generation == 3
        assert entry.system.estimate("//PLAY/ACT") == ssplays_system.estimate("//PLAY/ACT")
        assert registry.get("SSPlays").generation == 3
        # One full read per stamp the pair of files went through.
        assert reads.count("SSPlays.json") == 3


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


class TestLiveSynopsis:
    def test_append_updates_estimates_without_restart(self):
        registry = SynopsisRegistry()
        registry.register_incremental("lib", serialize(_library_document()))
        assert registry.system("lib").estimate("//rec/$author") == pytest.approx(3.0)

        _append(registry, "lib", "<rec><author/><title/></rec>")
        entry = registry.get("lib")
        assert entry.generation == 2
        assert entry.system.estimate("//rec/$author") == pytest.approx(4.0)
        assert entry.describe()["source"] == "memory"

    def test_append_matches_full_rebuild(self):
        registry = SynopsisRegistry()
        document = _library_document()
        registry.register_incremental("lib", serialize(document))
        _append(registry, "lib", "<rec><author/><title/></rec>")
        document.root.append(el("rec", el("author"), el("title")))
        rebuilt = EstimationSystem.build(XmlDocument(document.root))
        for query in ("//rec/$author", "//lib/rec", "//rec[/author]/$title"):
            assert registry.system("lib").estimate(query) == pytest.approx(
                rebuilt.estimate(query)
            )

    def test_new_path_type_requires_rebuild(self):
        # The delta path absorbs a new root-to-leaf path type by widening
        # the bit layout; the result equals a rebuild of the grown document.
        registry = SynopsisRegistry()
        document = _library_document()
        registry.register_incremental("lib", serialize(document))
        _, outcome = _append(registry, "lib", "<rec><editor/></rec>")
        assert outcome.new_paths == 1
        document.root.append(el("rec", el("editor")))
        rebuilt = EstimationSystem.build(XmlDocument(document.root))
        for query in ("//rec/$author", "//rec/$editor", "//lib/rec"):
            assert registry.system("lib").estimate(query) == rebuilt.estimate(query)
        assert registry.system("lib").estimate("//rec/$editor") == pytest.approx(1.0)

    def test_append_to_non_live_entry(self, figure1_system):
        registry = SynopsisRegistry()
        registry.register("fig1", figure1_system)
        # DeltaUnsupportedError is a BuildError, hence a ValueError.
        with pytest.raises(ValueError):
            registry.apply_delta("fig1", scan_text("<x/>", ("Root",)))
