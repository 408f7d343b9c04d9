"""The kernelpack: a flat, mmap-able snapshot of a compiled kernel.

A :class:`~repro.kernel.compiled.SynopsisKernel` is already flat data —
per-tag pid tuples, ``array('d')`` frequency tables, per-depth feasibility
bitsets and containment-bitmatrix rows.  The pack serializes those
buffers **directly**, raw and contiguous, behind a fixed header and a
JSON offset table:

.. code-block:: text

    [prologue 24B] <4s H H I I Q>  magic "RKPK", version, flags,
                                   crc32(body), toc length, total length
    [toc]          JSON: embedded-synopsis extent, global pid width, per
                   tag {count, depths, segment offsets}, per (upper,
                   lower, axis) pair {down/up row-matrix offsets}
    [segments]     8-byte-aligned raw buffers: the synopsis JSON text,
                   then per tag pids / float64 freqs / init bitsets /
                   alive mask, then per pair down / up row matrices

The **loader** maps the file read-only and reconstructs a live kernel
without deserializing per entry: frequency tables become
``memoryview(...).cast("d")`` views straight over the mapped pages (zero
copy — N worker processes mapping the same file share one physical copy
through the page cache), and bitset rows materialize lazily, per tag or
pair, on first use by a join — exactly the laziness of in-process
compilation, minus the O(pids²) containment computation.

Integrity: the prologue carries a CRC32 of everything after it.  A
truncated or corrupt pack fails :func:`load_pack` with
:class:`KernelPackError` (kind ``"kernelpack"``) and callers — the
hot-reloading registry, the CLI — fall back to the ``.json`` snapshot
and in-process compilation.  The embedded synopsis is byte-identical to
the snapshot the kernel was compiled from, so a pack can serve alone.

Bit-identity: :func:`write_pack` always compiles the kernel from the
*embedded* synopsis text (round-tripped through :mod:`repro.persist`),
so the packed buffers correspond exactly to the provider a loader will
reconstruct — estimates from a mapped kernel equal in-process estimates
bit for bit (pinned by ``tests/shm/test_kernelpack.py``).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.errors import PersistError as _BasePersistError
from repro.kernel.compiled import ContainmentPair, SynopsisKernel, TagTable
from repro.obs.trace import NULL_TRACER
from repro.reliability import faults

__all__ = [
    "KernelPackError",
    "LoadedPack",
    "PACK_SUFFIX",
    "PACK_VERSION",
    "PackedKernel",
    "describe_pack",
    "load_pack",
    "pack_bytes",
    "pack_stamp",
    "write_pack",
]

PACK_SUFFIX = ".kernelpack"
PACK_MAGIC = b"RKPK"
PACK_VERSION = 1

#: magic, version, flags, crc32(body), toc length, total length.
_PROLOGUE = struct.Struct("<4sHHIIQ")
_ALIGN = 8


class KernelPackError(_BasePersistError):
    """A kernelpack that cannot be written, read or trusted.

    Part of the :class:`~repro.errors.ReproError` hierarchy with the
    stable wire kind ``"kernelpack"``; a :class:`PersistError` subclass
    so existing snapshot-failure handling (registry last-good fallback,
    CLI reporting) treats a bad pack like any other bad snapshot.
    """

    kind = "kernelpack"


def _align(size: int) -> int:
    return (size + _ALIGN - 1) // _ALIGN * _ALIGN


def _mask_bytes(bits: int) -> int:
    return max(1, (bits + 7) // 8)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------


class _SegmentWriter:
    """Accumulates 8-byte-aligned raw segments, tracking offsets."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def append(self, data: bytes) -> int:
        pad = _align(len(self.buffer)) - len(self.buffer)
        if pad:
            self.buffer.extend(b"\x00" * pad)
        offset = len(self.buffer)
        self.buffer.extend(data)
        return offset


def pack_bytes(
    system: Optional[object] = None,
    synopsis_text: Optional[str] = None,
    name: str = "",
) -> bytes:
    """Serialize a fully compiled kernel (plus its synopsis) to pack bytes.

    Exactly one of ``system`` / ``synopsis_text`` is required (both is
    fine; the text wins as the canonical source).  The kernel is always
    compiled from the embedded text so packed buffers and the loader's
    reconstructed provider agree bit for bit.
    """
    from repro import persist

    if synopsis_text is None:
        if system is None:
            raise KernelPackError("pack_bytes needs a system or synopsis text")
        synopsis_text = persist.dumps(system)
    compile_system = persist.loads(synopsis_text)
    kernel = compile_system.kernel()
    if not kernel.eligible:
        raise KernelPackError(
            "only kernel-eligible (histogram-backed) synopses can be packed"
        )
    if not name:
        name = getattr(system, "name", "") or compile_system.name
    kernel.compile_full()
    tags, pairs = kernel.export_state()

    width = compile_system.encoding_table.width
    pid_bytes = _mask_bytes(width)
    segments = _SegmentWriter()
    synopsis_raw = synopsis_text.encode("utf-8")
    synopsis_off = segments.append(synopsis_raw)

    toc_tags: Dict[str, Dict[str, int]] = {}
    for tag in sorted(tags):
        table = tags[tag]
        n = len(table.pids)
        mask = _mask_bytes(n)
        toc_tags[tag] = {
            "n": n,
            "depths": len(table.init_at),
            "mask": mask,
            "pids": segments.append(
                b"".join(pid.to_bytes(pid_bytes, "little") for pid in table.pids)
            ),
            "freqs": segments.append(bytes(table.freqs.tobytes())),
            "init": segments.append(
                b"".join(m.to_bytes(mask, "little") for m in table.init_at)
            ),
            "alive": segments.append(table.alive_mask.to_bytes(mask, "little")),
        }
    toc_pairs = []
    for upper_tag, lower_tag, child in sorted(pairs):
        pair = pairs[(upper_tag, lower_tag, child)]
        lower_mask = toc_tags[lower_tag]["mask"]
        upper_mask = toc_tags[upper_tag]["mask"]
        down_off = segments.append(
            b"".join(row.to_bytes(lower_mask, "little") for row in pair.down)
        )
        up_off = segments.append(
            b"".join(row.to_bytes(upper_mask, "little") for row in pair.up)
        )
        toc_pairs.append([upper_tag, lower_tag, int(child), down_off, up_off])

    toc = {
        "name": name,
        "pid_bytes": pid_bytes,
        "synopsis": [synopsis_off, len(synopsis_raw)],
        "tags": toc_tags,
        "pairs": toc_pairs,
    }
    toc_raw = json.dumps(toc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    seg_base = _align(_PROLOGUE.size + len(toc_raw))
    toc_pad = seg_base - _PROLOGUE.size - len(toc_raw)
    body = toc_raw + b"\x00" * toc_pad + bytes(segments.buffer)
    total = _PROLOGUE.size + len(body)
    prologue = _PROLOGUE.pack(
        PACK_MAGIC, PACK_VERSION, 0, zlib.crc32(body) & 0xFFFFFFFF, len(toc_raw), total
    )
    return prologue + body


def write_pack(
    path: str,
    system: Optional[object] = None,
    synopsis_text: Optional[str] = None,
    name: str = "",
) -> int:
    """Write a pack atomically (temp file + ``os.replace``); returns its
    size in bytes.  A crashed write never leaves a torn pack at ``path``
    — concurrent mappers see the complete old file or the complete new
    one (their established mappings keep the old inode alive)."""
    data = pack_bytes(system=system, synopsis_text=synopsis_text, name=name)
    temporary = "%s.tmp.%d" % (path, os.getpid())
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return len(data)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


class KernelPack:
    """A verified, mapped pack file: offset table + raw segment access.

    Decoding is lazy and per tag / per pair — the constructor only maps
    the file, checks the checksum and parses the offset table.  All
    segment reads go through one read-only :class:`memoryview` over the
    mapping; frequency tables are ``cast("d")`` sub-views (zero copy).
    """

    def __init__(self, path: str):
        self.path = path
        handle = open(path, "rb")
        try:
            try:
                self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as error:
                raise KernelPackError("cannot map pack %s: %s" % (path, error))
        finally:
            handle.close()
        try:
            self._view = memoryview(self._mmap)
            header = _read_prologue(bytes(self._view[: _PROLOGUE.size]), path)
            _, _, self.flags, crc, toc_len, total = header
            if total != len(self._mmap):
                raise KernelPackError(
                    "pack %s is truncated: header says %d bytes, file has %d"
                    % (path, total, len(self._mmap))
                )
            body = self._view[_PROLOGUE.size : total]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                raise KernelPackError(
                    "pack %s checksum mismatch — the file is corrupt" % path
                )
            try:
                toc = json.loads(
                    bytes(self._view[_PROLOGUE.size : _PROLOGUE.size + toc_len]).decode(
                        "utf-8"
                    )
                )
                self.name = str(toc["name"])
                self.pid_bytes = int(toc["pid_bytes"])
                self._synopsis_extent = tuple(toc["synopsis"])
                self.tags: Dict[str, Dict[str, int]] = toc["tags"]
                self.pairs: Dict[Tuple[str, str, bool], Tuple[int, int]] = {
                    (upper, lower, bool(child)): (down_off, up_off)
                    for upper, lower, child, down_off, up_off in toc["pairs"]
                }
            except (KeyError, TypeError, ValueError) as error:
                raise KernelPackError("pack %s has a malformed offset table: %s"
                                      % (path, error))
            self._base = _align(_PROLOGUE.size + toc_len)
        except Exception:
            self.close()
            raise

    # -- raw access ----------------------------------------------------

    def _segment(self, offset: int, length: int) -> memoryview:
        start = self._base + offset
        return self._view[start : start + length]

    def synopsis_text(self) -> str:
        offset, length = self._synopsis_extent
        return bytes(self._segment(offset, length)).decode("utf-8")

    # -- decoding (lazy, called per tag / pair on first use) -----------

    def tag_table(self, tag: str) -> Optional[TagTable]:
        entry = self.tags.get(tag)
        if entry is None:
            return None
        n, depths, mask = entry["n"], entry["depths"], entry["mask"]
        pid_bytes = self.pid_bytes
        pid_buf = self._segment(entry["pids"], n * pid_bytes)
        pids = tuple(
            int.from_bytes(pid_buf[i * pid_bytes : (i + 1) * pid_bytes], "little")
            for i in range(n)
        )
        # Zero copy: the float table is a typed view over the mapped
        # pages themselves (offsets are 8-aligned by construction).
        freqs = self._segment(entry["freqs"], n * 8).cast("d")
        init_buf = self._segment(entry["init"], depths * mask)
        init_at = tuple(
            int.from_bytes(init_buf[d * mask : (d + 1) * mask], "little")
            for d in range(depths)
        )
        alive = int.from_bytes(self._segment(entry["alive"], mask), "little")
        index_of = {pid: i for i, pid in enumerate(pids)}
        return TagTable(tag, pids, freqs, index_of, init_at, alive)

    def pair(
        self, upper_tag: str, lower_tag: str, child: bool, n_upper: int, n_lower: int
    ) -> Optional[ContainmentPair]:
        extent = self.pairs.get((upper_tag, lower_tag, child))
        if extent is None:
            return None
        down_off, up_off = extent
        lower_mask = _mask_bytes(n_lower)
        upper_mask = _mask_bytes(n_upper)
        down_buf = self._segment(down_off, n_upper * lower_mask)
        up_buf = self._segment(up_off, n_lower * upper_mask)
        down = tuple(
            int.from_bytes(down_buf[i * lower_mask : (i + 1) * lower_mask], "little")
            for i in range(n_upper)
        )
        up = tuple(
            int.from_bytes(up_buf[j * upper_mask : (j + 1) * upper_mask], "little")
            for j in range(n_lower)
        )
        return ContainmentPair(down, up)

    def size_bytes(self) -> int:
        return len(self._mmap)

    def close(self) -> None:
        """Best-effort unmap.  Exported views (a served kernel's
        frequency tables) keep the mapping alive; closing then is a
        no-op and the OS reclaims the pages when the last view dies."""
        try:
            view = getattr(self, "_view", None)
            if view is not None:
                view.release()
                self._view = None
            self._mmap.close()
        except (BufferError, ValueError):  # views still exported
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<KernelPack %r tags=%d pairs=%d %d bytes>" % (
            self.name, len(self.tags), len(self.pairs), len(self._mmap),
        )


def _read_prologue(raw: bytes, path: str):
    if len(raw) < _PROLOGUE.size:
        raise KernelPackError("pack %s is truncated (no header)" % path)
    magic, version, flags, crc, toc_len, total = _PROLOGUE.unpack(raw)
    if magic != PACK_MAGIC:
        raise KernelPackError("%s is not a kernelpack (bad magic %r)" % (path, magic))
    if version != PACK_VERSION:
        raise KernelPackError(
            "unsupported kernelpack version %d in %s (this build reads %d)"
            % (version, path, PACK_VERSION)
        )
    return magic, version, flags, crc, toc_len, total


class PackedKernel(SynopsisKernel):
    """A kernel whose tag tables and containment pairs come off a pack.

    Same join machinery, plan cache, support memo and ``supports`` gating
    as the in-process kernel — only the *compilation* step is replaced by
    lazy decoding from the mapped buffers.  Tags or pairs a workload
    touches that the pack does not carry (a query over a tag pair that
    never co-occurs, a pack built by an older workload) fall back to
    in-process compilation against the loaded provider; ``pack_hits`` /
    ``pack_misses`` in :meth:`stats` make the split observable.
    """

    def __init__(self, table, provider, pack: KernelPack, name: str = ""):
        super().__init__(table, provider, name=name or pack.name)
        self.pack = pack

    @property
    def packed(self) -> bool:
        return True

    def _build_tag_table(self, tag: str) -> TagTable:
        table = self.pack.tag_table(tag)
        if table is None:
            self.pack_misses += 1
            return super()._build_tag_table(tag)
        self.pack_hits += 1
        return table

    def _build_pair(self, upper: TagTable, lower: TagTable, child: bool):
        pair = self.pack.pair(
            upper.tag, lower.tag, child, len(upper.pids), len(lower.pids)
        )
        if pair is None:
            self.pack_misses += 1
            return super()._build_pair(upper, lower, child)
        self.pack_hits += 1
        return pair


class LoadedPack:
    """The product of :func:`load_pack`: a servable system + its kernel."""

    __slots__ = ("system", "kernel", "pack")

    def __init__(self, system, kernel: PackedKernel, pack: KernelPack):
        self.system = system
        self.kernel = kernel
        self.pack = pack


def load_pack(path: str, tracer=NULL_TRACER) -> LoadedPack:
    """Map a pack and reconstruct a live, already-compiled system.

    The estimation system is rebuilt from the embedded synopsis (the
    histograms are genuinely deserialized — they are small and the order
    estimator needs them as objects); the *kernel* — the expensive part
    — is reconstructed zero-copy from the mapping and adopted by the
    system, so :meth:`~repro.core.system.EstimationSystem.kernel_state`
    reports ``"ready"`` with no compilation having run.

    Raises :class:`KernelPackError` for truncated, corrupt (checksum),
    version-incompatible or malformed packs.
    """
    from repro import persist

    with tracer.span("pack_load") as span:
        faults.fire("pack.load", path)
        try:
            pack = KernelPack(path)
        except OSError as error:
            raise KernelPackError("cannot read pack %s: %s" % (path, error))
        try:
            system = persist.loads(pack.synopsis_text())
        except _BasePersistError as error:
            pack.close()
            raise KernelPackError(
                "pack %s embeds an unloadable synopsis: %s" % (path, error)
            )
        kernel = PackedKernel(
            system.encoding_table, system.path_provider, pack, name=pack.name
        )
        system.adopt_kernel(kernel)
        span.incr("tags", len(pack.tags))
        span.incr("pairs", len(pack.pairs))
    return LoadedPack(system, kernel, pack)


def pack_stamp(path: str) -> tuple:
    """A cheap change stamp for hot reload: ``(mtime_ns, size, crc)``.

    Unlike the JSON snapshot stamp this does not hash the whole file on
    every freshness check — the body CRC is read straight out of the
    24-byte prologue (it changes whenever the content does).
    """
    status = os.stat(path)
    with open(path, "rb") as handle:
        raw = handle.read(_PROLOGUE.size)
    _, _, _, crc, _, _ = _read_prologue(raw, path)
    return (status.st_mtime_ns, status.st_size, crc)


def describe_pack(path: str) -> Dict[str, Any]:
    """Verified pack metadata (the CLI's ``repro pack --check``)."""
    pack = KernelPack(path)
    try:
        return {
            "path": path,
            "name": pack.name,
            "version": PACK_VERSION,
            "size_bytes": pack.size_bytes(),
            "tags": len(pack.tags),
            "pairs": len(pack.pairs),
            "synopsis_bytes": pack._synopsis_extent[1],
        }
    finally:
        pack.close()
