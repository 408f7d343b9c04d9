"""Synopsis registry: named estimation systems with hot reload.

A registry serves :class:`~repro.core.system.EstimationSystem` instances
under stable names.  Two kinds of entry coexist:

* **file-backed** — loaded from ``<snapshot_dir>/<name>.json`` via
  :func:`repro.persist.loads`; ``get`` stats the file and its
  ``.kernelpack`` and compares a *stat stamp* ``(st_ino, st_size,
  st_mtime_ns, st_ctime_ns)`` of each (an absent pack is a value) with
  the one recorded at the last full read.  Only when that stamp moved is
  the file re-read, and it is reloaded when its ``(mtime_ns, size,
  crc32)`` content stamp changed, so a snapshot can be rewritten
  underneath a running server without a restart.  A stat stamp is
  trusted only if both files' mtime and ctime were at least
  :data:`RACY_WINDOW_NS` old when it was recorded (git's "racy git"
  rule): a rewrite inside one mtime tick of the last read cannot then
  hide behind an unchanged stamp, and until the files age past the
  window every check reads and CRCs them.  ``persist`` writes by
  temp+rename (a new inode) and ``utime`` cannot set ctime back, so an
  in-place overwrite that restores the mtime still moves the stamp.  A
  truncated, corrupt (embedded-checksum mismatch) or
  malformed replacement never takes down the entry: the previous
  **last-good** system keeps serving, the entry reports itself degraded
  (``describe()``, ``/healthz``) and ``reload_failures`` counts the
  rejected swaps.  When a staged ``<name>.kernelpack`` sits beside the
  JSON at least as new as it, the entry loads *that* instead: the system
  comes from the pack's embedded synopsis and the compiled kernel is
  reconstructed zero-copy from the mapping — no in-process compile, and
  N worker processes mapping the same pack share one physical copy.  A
  corrupt or truncated pack (checksum) falls back to the JSON snapshot
  and lazy compilation (``pack_failures`` counts those).  A
  ``<name>.kernelpack`` with no JSON beside it serves alone, since the
  pack embeds the full synopsis;
* **in-memory** — registered programmatically (tests, benchmarks,
  embedding).  One built by :meth:`SynopsisRegistry.register_incremental`
  carries an :class:`~repro.cluster.delta.IncrementalSynopsis`, so
  appends arrive as deltas through :meth:`SynopsisRegistry.apply_delta`
  without a rebuild or a restart.

Every successful reload or refreshing delta bumps the entry's
``generation``; the plan cache keys on it, so stale compiled plans die
with the generation.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import persist
from repro.core.system import EstimationSystem
# The *base* PersistError: it covers both repro.persist load failures
# and repro.shm.kernelpack.KernelPackError, so every degraded path here
# catches rejected packs too.
from repro.errors import PersistError, ReproError
from repro.reliability import faults
from repro.shm.kernelpack import PACK_SUFFIX, load_pack, pack_stamp

SNAPSHOT_SUFFIX = ".json"

#: How old a file's mtime and ctime must be before its stat stamp is
#: trusted: 2 s covers the coarsest common mtime granularity (FAT).
RACY_WINDOW_NS = 2_000_000_000


class UnknownSynopsisError(ReproError, KeyError):
    """Requested synopsis name is not registered (and no snapshot exists).

    Part of the :class:`~repro.errors.ReproError` hierarchy with the
    stable wire kind ``"unknown_synopsis"`` (still a ``KeyError`` for
    the pre-hierarchy call sites).
    """

    kind = "unknown_synopsis"


class SynopsisEntry:
    """One registered synopsis and its serving state."""

    __slots__ = (
        "name",
        "system",
        "generation",
        "path",
        "stamp",
        "load_error",
        "last_check",
        "pack_stamp",
        "packed",
        "stat_stamp",
    )

    def __init__(
        self,
        name: str,
        system: EstimationSystem,
        path: Optional[str] = None,
        stamp: Optional[tuple] = None,
    ):
        self.name = name
        self.system = system
        self.generation = 1
        self.path = path
        # (mtime_ns, size, crc32) of the loaded snapshot file's content.
        self.stamp = stamp
        self.load_error: Optional[str] = None
        self.last_check = float("-inf")
        # Kernelpack serving state: the stamp of the usable pack beside
        # the snapshot at load time (None when there was none), and
        # whether the served system actually came from it.  The stamp is
        # recorded even when the pack was rejected, so a corrupt pack is
        # retried once, not on every freshness check.
        self.pack_stamp: Optional[tuple] = None
        self.packed = False
        # Stat stamp of the files behind the served system, recorded at
        # the last full read; None until the files are older than the
        # racy window (then every check reads them in full).
        self.stat_stamp: Optional[tuple] = None

    @property
    def source(self) -> str:
        return self.path if self.path is not None else "memory"

    @property
    def degraded(self) -> bool:
        """Serving last-good state because the newest snapshot is bad."""
        return self.load_error is not None

    def pinned(self) -> "PinnedEntry":
        """An immutable ``(name, generation, system)`` snapshot.

        The registry hot-swaps ``system``/``generation`` **in place** on
        this shared entry object when a reload or delta lands, so a
        request that must serve one consistent synopsis version end to
        end (a batch, most importantly) pins this value instead of the
        entry itself.  The retry loop re-pairs generation with system if
        a swap raced the two attribute reads; capturing ``system`` once
        is what guarantees every query in the request computes against
        the same version.
        """
        for _ in range(3):
            generation = self.generation
            system = self.system
            if self.generation == generation:
                break
        return PinnedEntry(self.name, generation, system)

    def describe(self) -> Dict[str, object]:
        table = self.system.encoding_table
        info: Dict[str, object] = {
            "name": self.name,
            "generation": self.generation,
            "source": self.source,
            "paths": len(table.all_paths()),
            "pathid_bits": table.width,
            "tags": len(self.system.path_provider.tags()),
            "packed": self.packed,
            "kernel": getattr(self.system, "kernel_state", lambda: "unknown")(),
        }
        if self.load_error is not None:
            info["load_error"] = self.load_error
            info["degraded"] = True
        return info


class PinnedEntry(NamedTuple):
    """One consistent synopsis version, pinned for a request's lifetime.

    Quacks like :class:`SynopsisEntry` for the read side (``name`` /
    ``generation`` / ``system``) but cannot change underneath the
    request: a hot reload landing mid-batch waits for the next request
    rather than splitting this one across two synopsis versions.
    """

    name: str
    generation: int
    system: EstimationSystem

    def pinned(self) -> "PinnedEntry":
        return self


def _read_snapshot(path: str) -> Tuple[str, tuple]:
    """One full read of the snapshot file: its text and its content stamp.

    The stamp is ``(mtime_ns, size, crc32)``; including the content
    checksum keeps a touched but unchanged file (a new stat stamp, the
    same bytes) from bumping the generation.
    """
    status = os.stat(path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return text, (status.st_mtime_ns, status.st_size, zlib.crc32(text.encode("utf-8")))


def _pack_path(json_path: str) -> str:
    return json_path[: -len(SNAPSHOT_SUFFIX)] + PACK_SUFFIX


def _file_stamp(path: str) -> Optional[tuple]:
    """``(st_ino, st_size, st_mtime_ns, st_ctime_ns)``, or None if absent."""
    try:
        status = os.stat(path)
    except FileNotFoundError:
        return None
    return (status.st_ino, status.st_size, status.st_mtime_ns, status.st_ctime_ns)


def _stat_stamp(path: str) -> tuple:
    """The stat stamp of an entry's files: the snapshot's (or the lone
    pack's) own, plus the pack's beside a JSON snapshot."""
    if path.endswith(PACK_SUFFIX):
        return (_file_stamp(path),)
    return (_file_stamp(path), _file_stamp(_pack_path(path)))


def _trusted(stamp: tuple) -> Optional[tuple]:
    """``stamp`` if every file in it is older than the racy window, else
    None: a file changed within its mtime granularity of being stamped
    could change again without moving the stamp."""
    settled = time.time_ns() - RACY_WINDOW_NS
    for part in stamp:
        if part is not None and max(part[2], part[3]) > settled:
            return None
    return stamp


class SynopsisRegistry:
    """Thread-safe name → synopsis map with stat-stamp hot reload.

    ``check_interval`` is the number of seconds between freshness checks
    of an entry (0 = check on every ``get``).  A check of a settled
    snapshot is two ``os.stat`` calls (the JSON and its pack) compared
    with the stamp of the last full read: a ``get`` costs ~5 µs on a
    2-vCPU host whatever the snapshot's size, where a full read and
    CRC32 costs 28 µs on a 14 KB snapshot and 130 µs on a 198 KB one.
    The file is re-read only when that stamp moved, or while the files
    are younger than :data:`RACY_WINDOW_NS`.  All mutation happens under
    one reentrant lock; estimation itself runs outside it.
    """

    def __init__(
        self,
        snapshot_dir: Optional[str] = None,
        check_interval: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.snapshot_dir = snapshot_dir
        self.check_interval = check_interval
        self._clock = clock
        self._entries: Dict[str, SynopsisEntry] = {}
        self._lock = threading.RLock()
        self.scan_errors: Dict[str, str] = {}
        #: Rejected hot-reload swaps (bad replacement kept out, last-good
        #: still serving).  Exposed via the service's /healthz + /metrics.
        self.reload_failures = 0
        #: Corrupt/truncated kernelpacks that were rejected (checksum,
        #: bad header) with the entry falling back to its JSON snapshot
        #: and in-process compilation.
        self.pack_failures = 0
        #: Called (name, entry) after every successful hot-reload swap —
        #: worker processes hook this to publish their remap progress.
        self.on_reload: Optional[Callable[[str, SynopsisEntry], None]] = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str, system: EstimationSystem) -> SynopsisEntry:
        """Register an in-memory system (tests, benchmarks, embedding).

        Re-registering an existing name continues its generation counter
        (never resets it): compiled plans are cached per (name,
        generation), so a reset would let plans compiled against the
        *previous* registration — pre-append rewrite variants, a stale
        kernel priming flag — serve the new system.
        """
        with self._lock:
            entry = SynopsisEntry(name, system)
            previous = self._entries.get(name)
            if previous is not None:
                entry.generation = previous.generation + 1
                previous.system.invalidate_kernel()
            self._entries[name] = entry
            return entry

    def register_source(
        self,
        name: str,
        source,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        workers: int = 1,
    ) -> SynopsisEntry:
        """Build a synopsis from raw XML (text, path, or document) and
        register it — the streaming builder, so the tree is never held.

        ``workers > 1`` shards the scan across a process pool; the served
        system is bit-identical regardless of worker count.
        """
        from repro.build.builder import build_synopsis

        system = build_synopsis(
            source,
            p_variance=p_variance,
            o_variance=o_variance,
            workers=workers,
            name=name,
        )
        return self.register(name, system)

    def register_incremental(
        self,
        name: str,
        source,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        workers: int = 1,
        drift_threshold: float = 0.0,
    ) -> SynopsisEntry:
        """Build a *delta-capable* synopsis from raw XML and register it.

        The served system carries its :class:`IncrementalSynopsis`
        maintainer, so :meth:`apply_delta` merges appended-subtree deltas
        without a rebuild; persisting the entry (``persist.save``) embeds
        the maintainer state, keeping the capability across restarts.
        """
        from repro.cluster.delta import IncrementalSynopsis

        maintainer = IncrementalSynopsis.build(
            source,
            p_variance=p_variance,
            o_variance=o_variance,
            workers=workers,
            drift_threshold=drift_threshold,
            name=name,
        )
        return self.register(name, maintainer.system)

    def apply_delta(
        self,
        name: str,
        partial,
        *,
        force_refresh: bool = False,
        write_back: bool = True,
    ):
        """Merge a delta partial into a registered synopsis.

        Returns ``(entry, outcome)``.  When the maintainer refreshed, the
        entry swaps to the new system under the registry lock: the
        generation bumps (compiled plans for the old system die with it),
        the replaced system's kernel is invalidated, any staged
        kernelpack stops being preferred (``packed`` drops; the JSON
        write-back below outdates the pack on disk), and the
        ``on_reload`` hook fires so pre-fork workers republish.

        ``write_back`` (file-backed entries only) persists the merged
        state to the entry's snapshot path atomically and re-stamps the
        entry, so the delta survives a restart — and, under the pre-fork
        pool, the *other* workers pick the post-delta snapshot up through
        their ordinary hot-reload check instead of needing the delta
        re-sent.  Raises
        :class:`~repro.cluster.delta.DeltaUnsupportedError` for entries
        without incremental state (plain snapshots, packs, systems
        registered without it).
        """
        from repro.cluster.delta import DeltaUnsupportedError

        with self._lock:
            entry = self._require(name)
            maintainer = getattr(entry.system, "incremental", None)
            if maintainer is None:
                raise DeltaUnsupportedError(
                    "synopsis %r was not loaded with incremental state; "
                    "rebuild its snapshot with --incremental (or register "
                    "via register_incremental) to apply deltas" % name
                )
            outcome = maintainer.apply(partial, force_refresh=force_refresh)
            if outcome.refreshed:
                previous = entry.system
                entry.system = outcome.system
                entry.generation += 1
                entry.packed = False
                entry.load_error = None
                previous.invalidate_kernel()
                if (
                    write_back
                    and entry.path is not None
                    and entry.path.endswith(SNAPSHOT_SUFFIX)
                ):
                    persist.save(outcome.system, entry.path)
                    stat_stamp = _stat_stamp(entry.path)
                    _, entry.stamp = _read_snapshot(entry.path)
                    # The freshly written JSON is now newer than any
                    # staged pack, so the pack probe will (correctly)
                    # decline it until a new pack is staged.
                    entry.pack_stamp = self._probe_pack(entry.path, stat_stamp)
                    entry.stat_stamp = _trusted(stat_stamp)
                if self.on_reload is not None:
                    try:
                        self.on_reload(entry.name, entry)
                    except Exception:  # pragma: no cover - observer must not break serving
                        pass
            return entry, outcome

    def scan(self) -> List[str]:
        """Load (or refresh) every ``*.json`` snapshot in the directory.

        An unloadable file must not take down the daemon (nor block the
        other synopses): it is skipped and recorded in ``scan_errors``.
        """
        if self.snapshot_dir is None:
            return []
        names = []
        with self._lock:
            self.scan_errors = {}
            listing = sorted(os.listdir(self.snapshot_dir))
            json_names = {
                filename[: -len(SNAPSHOT_SUFFIX)]
                for filename in listing
                if filename.endswith(SNAPSHOT_SUFFIX)
            }
            for filename in listing:
                if filename.endswith(SNAPSHOT_SUFFIX):
                    name = filename[: -len(SNAPSHOT_SUFFIX)]
                elif filename.endswith(PACK_SUFFIX):
                    # A pack with a JSON twin loads through the twin's
                    # entry; a pack alone serves from its embedded
                    # synopsis.
                    name = filename[: -len(PACK_SUFFIX)]
                    if name in json_names:
                        continue
                else:
                    continue
                try:
                    self._load_or_refresh(
                        name, os.path.join(self.snapshot_dir, filename)
                    )
                except (PersistError, OSError) as error:
                    self.scan_errors[name] = str(error)
                    continue
                names.append(name)
        return names

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> SynopsisEntry:
        """The entry for ``name``, hot-reloaded if its snapshot changed."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = self._load_unregistered(name)
            elif entry.path is not None:
                self._maybe_reload(entry)
            return entry

    def system(self, name: str) -> EstimationSystem:
        return self.get(name).system

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            return [self._entries[name].describe() for name in sorted(self._entries)]

    def degraded(self) -> Dict[str, str]:
        """Entries serving last-good state, with the reason (name → error)."""
        with self._lock:
            return {
                name: entry.load_error
                for name, entry in sorted(self._entries.items())
                if entry.load_error is not None
            }

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, name: str) -> SynopsisEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise UnknownSynopsisError(name)
        return entry

    def _snapshot_path(self, name: str) -> Optional[str]:
        if self.snapshot_dir is None:
            return None
        json_path = os.path.join(self.snapshot_dir, name + SNAPSHOT_SUFFIX)
        if os.path.exists(json_path):
            return json_path
        pack_path = os.path.join(self.snapshot_dir, name + PACK_SUFFIX)
        if os.path.exists(pack_path):
            return pack_path
        return json_path

    def _load_unregistered(self, name: str) -> SynopsisEntry:
        """A name we have not seen: pick up a snapshot that appeared after
        the initial scan, otherwise fail."""
        path = self._snapshot_path(name)
        if path is None or not os.path.exists(path):
            raise UnknownSynopsisError(name)
        try:
            return self._load_or_refresh(name, path)
        except (PersistError, OSError) as error:
            # A file with the right name but an unreadable payload is not
            # a servable synopsis; 404 rather than an internal error.
            raise UnknownSynopsisError("%s (unloadable: %s)" % (name, error))

    def _load_or_refresh(self, name: str, path: str) -> SynopsisEntry:
        entry = self._entries.get(name)
        if entry is not None and entry.path is None:
            # Staleness-race guard: an in-memory registration (register /
            # register_source / register_incremental, possibly already
            # delta-applied) is authoritative over a same-named snapshot
            # or kernelpack sitting in the directory.  Without this, a
            # scan() racing a delta would clobber the merged system with
            # the older file — resurrecting a pre-delta kernel — and a
            # pack-only twin would crash the scan outright (stat(None)).
            # The check runs under the registry lock, atomically with the
            # pack-preference probe below, so the decision cannot
            # interleave with a swap.
            return entry
        if entry is None:
            faults.fire("registry.load", path)
            stat_stamp = _stat_stamp(path)
            if path.endswith(PACK_SUFFIX):
                # Pack-only entry: the embedded synopsis serves alone.
                stamp = pack_stamp(path)
                loaded = load_pack(path)
                entry = SynopsisEntry(name, loaded.system, path=path, stamp=stamp)
                entry.pack_stamp = stamp
                entry.packed = True
            else:
                text, stamp = _read_snapshot(path)
                probe = self._probe_pack(path, stat_stamp)
                system, packed = self._load_preferring_pack(path, text, probe)
                entry = SynopsisEntry(name, system, path=path, stamp=stamp)
                entry.pack_stamp = probe
                entry.packed = packed
            entry.stat_stamp = _trusted(stat_stamp)
            entry.last_check = self._clock()
            self._entries[name] = entry
            return entry
        self._maybe_reload(entry, force=True)
        return entry

    def _probe_pack(self, json_path: str, stat_stamp: tuple) -> Optional[tuple]:
        """The stamp of the pack beside a JSON snapshot, if it should be
        used.

        ``stat_stamp`` is the entry's fresh :func:`_stat_stamp`, so the
        files are not statted again.  None when there is no usable pack
        (absent, or older than the JSON — a stale pack must not shadow a
        newer snapshot).  A pack whose header cannot even be read yields a
        surrogate stamp from its stat, so the same corrupt bytes are
        rejected once rather than re-tried on every freshness check.
        """
        json_stat, pack_stat = stat_stamp
        if pack_stat is None or (json_stat is not None and pack_stat[2] < json_stat[2]):
            return None
        try:
            return pack_stamp(_pack_path(json_path))
        except (PersistError, OSError):
            return ("unreadable", pack_stat[2], pack_stat[1])

    def _load_preferring_pack(
        self, json_path: str, text: str, probe: Optional[tuple]
    ) -> Tuple[EstimationSystem, bool]:
        """Load a system for a JSON-backed entry, preferring its staged
        pack (``probe`` from :meth:`_probe_pack`); returns ``(system,
        packed)``.

        A rejected pack (corrupt, truncated, version mismatch) falls back
        to the JSON text and lazy in-process kernel compilation — the
        pack is an accelerator, never a point of failure.
        """
        if probe is not None:
            try:
                return load_pack(_pack_path(json_path)).system, True
            except (PersistError, OSError):
                self.pack_failures += 1
        return persist.loads(text), False

    def _maybe_reload(self, entry: SynopsisEntry, force: bool = False) -> None:
        now = self._clock()
        if not force and now - entry.last_check < self.check_interval:
            return
        entry.last_check = now
        path: str = entry.path  # type: ignore[assignment]
        try:
            faults.fire("registry.load", path)
            stat_stamp = _stat_stamp(path)
            if stat_stamp == entry.stat_stamp:
                # Disk matches what we serve; a transient read failure (if
                # any) is over, so the entry is healthy again.
                entry.load_error = None
                return
            if path.endswith(PACK_SUFFIX):
                self._maybe_reload_pack_only(entry, stat_stamp)
                return
            text, stamp = _read_snapshot(path)
        except OSError as error:
            self._unreadable(entry, error)
            return
        probe = self._probe_pack(path, stat_stamp)
        if stamp == entry.stamp and probe == entry.pack_stamp:
            entry.load_error = None
            entry.stat_stamp = _trusted(stat_stamp)
            return
        try:
            system, packed = self._load_preferring_pack(path, text, probe)
        except PersistError as error:
            # Truncated, corrupt (checksum mismatch) or malformed
            # replacement: keep the last-good system and surface the
            # failure instead of flapping.  The JSON stamp is *not*
            # advanced, so a fixed snapshot is picked up on the next
            # check; the pack stamp *is*, so the same corrupt pack bytes
            # are not re-parsed every check (a fixed pack stamps anew).
            if entry.load_error is None:
                self.reload_failures += 1
            entry.load_error = "reload failed: %s" % error
            entry.pack_stamp = probe
            return
        self._swap(entry, system, stamp, probe, packed, stat_stamp)

    def _maybe_reload_pack_only(self, entry: SynopsisEntry, stat_stamp: tuple) -> None:
        """Full check of an entry served from a pack with no JSON twin:
        the stamp is the pack's own (read from its 24-byte header, no
        full-file hash)."""
        try:
            stamp = pack_stamp(entry.path)  # type: ignore[arg-type]
        except (PersistError, OSError) as error:
            self._unreadable(entry, error)
            return
        if stamp == entry.stamp:
            entry.load_error = None
            entry.stat_stamp = _trusted(stat_stamp)
            return
        try:
            loaded = load_pack(entry.path)  # type: ignore[arg-type]
        except (PersistError, OSError) as error:
            self.pack_failures += 1
            if entry.load_error is None:
                self.reload_failures += 1
            entry.load_error = "reload failed: %s" % error
            return
        self._swap(entry, loaded.system, stamp, stamp, True, stat_stamp)

    def _unreadable(self, entry: SynopsisEntry, error: Exception) -> None:
        """Snapshot deleted or unreadable mid-flight: keep serving the
        last-good system, degraded."""
        if entry.load_error is None:
            self.reload_failures += 1
        entry.load_error = "snapshot unreadable: %s" % error

    def _swap(
        self,
        entry: SynopsisEntry,
        system: EstimationSystem,
        stamp: tuple,
        pstamp: Optional[tuple],
        packed: bool,
        stat_stamp: tuple,
    ) -> None:
        previous = entry.system
        entry.system = system
        entry.stamp = stamp
        entry.pack_stamp = pstamp
        entry.packed = packed
        entry.stat_stamp = _trusted(stat_stamp)
        entry.generation += 1
        entry.load_error = None
        # Stale-kernel guard: the swapped-out system's compiled kernel
        # must not serve the old synopsis to captured references.  The
        # last-good fallback paths above never reach here, so a degraded
        # entry keeps both its system and its warm kernel.
        previous.invalidate_kernel()
        if self.on_reload is not None:
            try:
                self.on_reload(entry.name, entry)
            except Exception:  # pragma: no cover - observer must not break serving
                pass
