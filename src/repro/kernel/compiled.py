"""The compiled synopsis kernel: interned pids + containment bitmatrices.

The legacy join re-derives pathid-pair containment from raw bit vectors
on every query (``pids_compatible`` walks the encodings of the contained
id; the depth maps are dicts of sets).  The kernel compiles the synopsis
once instead:

* **Tag tables** — every tag's (path id, frequency) pairs are interned
  into dense integer indexes ``0..n-1`` in provider order, frequencies in
  a parallel ``array('d')``, and the statically feasible placements as
  one bitset per depth (bit *i* set ⟺ pid *i* can sit at that depth).
  Depth 0 of that family is exactly the ``pid_is_root`` set.
* **Containment pairs** — for each (upper tag, lower tag, axis) a
  bitmatrix ``down[i]`` = bitset of lower indexes *j* with
  ``pids_compatible(table, U, pid_i, L, pid_j, axis)`` true, plus the
  transpose ``up[j]``.  The test reduces to one subset check against a
  precomputed *relationship mask* (the encodings where the tag pair is
  related), so ``pids_compatible`` is never called on the hot path.
* **Support memo** — the join's inner question, "which lower indexes are
  supported by this set of alive upper indexes", is an OR of matrix rows
  keyed by the alive bitset (a single int).  The memo lives on the pair,
  i.e. it is shared across queries, batches and plan-cache entries of the
  same synopsis.

Compilation is lazy and thread-safe: only the tags/pairs a workload
touches are ever built, under the kernel lock with double-checked reads.
The kernel is *immutable once built* — hot reloads and applied deltas
replace the system and :meth:`invalidate` the old kernel rather than
mutating it.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.xpath.ast import Query

__all__ = ["SynopsisKernel", "TagTable", "popcount"]

try:  # pragma: no cover - version probe
    (0).bit_count
    def popcount(value: int) -> int:
        return value.bit_count()
except AttributeError:  # pragma: no cover - Python < 3.10
    def popcount(value: int) -> int:
        return bin(value).count("1")

#: Support-memo entries kept per (pair, direction) before a wholesale
#: clear.  Distinct alive-bitsets per constraint are bounded by the
#: fixpoint's pruning steps, so real workloads sit far below this.
MEMO_LIMIT = 8192


class TagTable:
    """One tag's interned pid space.

    ``pids[i]``/``freqs[i]`` are parallel (provider order, so summing
    frequencies in ascending index order reproduces the legacy dict-sum
    bit for bit).  ``init_at[d]`` is the bitset of indexes statically
    feasible at depth ``d``; ``alive_mask`` is their union (ids whose
    feasible depth set is empty never get a bit).
    """

    __slots__ = (
        "tag", "pids", "freqs", "index_of", "init_at", "alive_mask",
        "alive_count",
    )

    def __init__(
        self,
        tag: str,
        pids: Tuple[int, ...],
        freqs: "array[float]",
        index_of: Dict[int, int],
        init_at: Tuple[int, ...],
        alive_mask: int,
    ):
        self.tag = tag
        self.pids = pids
        self.freqs = freqs
        self.index_of = index_of
        self.init_at = init_at
        self.alive_mask = alive_mask
        self.alive_count = popcount(alive_mask)

    @property
    def depth_count(self) -> int:
        return len(self.init_at)


class ContainmentPair:
    """Axis-specific containment bitmatrix for one ordered tag pair.

    ``down[i]`` — lower indexes compatible below upper index ``i``;
    ``up[j]`` — the transpose.  ``down_memo``/``up_memo`` cache the OR of
    rows selected by an alive bitset (see :func:`or_rows`); they are the
    kernel's shared support memo.
    """

    __slots__ = ("down", "up", "down_memo", "up_memo")

    def __init__(self, down: Tuple[int, ...], up: Tuple[int, ...]):
        self.down = down
        self.up = up
        self.down_memo: Dict[int, int] = {}
        self.up_memo: Dict[int, int] = {}


def or_rows(rows: Tuple[int, ...], bits: int, memo: Dict[int, int]) -> int:
    """Union of ``rows[i]`` over the set bits of ``bits``, memoized."""
    union = memo.get(bits)
    if union is None:
        union = 0
        remaining = bits
        while remaining:
            low = remaining & -remaining
            union |= rows[low.bit_length() - 1]
            remaining ^= low
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[bits] = union
    return union


class SynopsisKernel:
    """Compiled join structures for one (encoding table, provider) pair.

    Built lazily per tag / tag pair under an internal lock; safe to share
    across the service's worker threads.  ``supports`` gates the hot
    path: the kernel only serves the provider and table it was compiled
    from (the tracing decorators are unwrapped), and steps aside for
    depth-refined statistics, whose empirical depth seeding the compiled
    tables do not model.
    """

    def __init__(self, table: EncodingTable, provider: object, name: str = ""):
        self.table = table
        self.provider = provider
        self.name = name
        self.invalidated = False
        self._lock = threading.RLock()
        self._tags: Dict[str, TagTable] = {}
        self._tag_totals: Dict[str, float] = {}
        self._pairs: Dict[Tuple[str, str, bool], ContainmentPair] = {}
        # Depth-refined providers seed the join from empirical per-depth
        # frequencies; the kernel compiles static feasibility only.
        self.eligible = getattr(provider, "depth_frequency_map", None) is None
        self.joins = 0
        self.fallbacks = 0
        self.build_ms = 0.0
        # Kernelpack accounting: a PackedKernel counts tables/pairs it
        # decoded off the mapping vs. compiled in-process (pack gaps);
        # on a plain kernel both stay 0.
        self.pack_hits = 0
        self.pack_misses = 0

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------

    def supports(self, provider: object, table: EncodingTable) -> bool:
        """Can this kernel serve a join over (provider, table)?"""
        if self.invalidated or not self.eligible or table is not self.table:
            return False
        if provider is self.provider:
            return True
        # Traced requests wrap the provider in TracingPathStats; the
        # statistics underneath are still ours.
        return getattr(provider, "_inner", None) is self.provider

    def note_fallback(self) -> None:
        self.fallbacks += 1

    def invalidate(self) -> None:
        """Mark stale (hot reload / delta replaced the synopsis)."""
        with self._lock:
            self.invalidated = True
            self._tag_totals.clear()
            for pair in self._pairs.values():
                pair.down_memo.clear()
                pair.up_memo.clear()

    # ------------------------------------------------------------------
    # Compilation (lazy, per tag / tag pair)
    # ------------------------------------------------------------------

    def tag_table(self, tag: str, tracer=NULL_TRACER) -> TagTable:
        compiled = self._tags.get(tag)
        if compiled is None:
            with self._lock:
                compiled = self._tags.get(tag)
                if compiled is None:
                    with tracer.span("kernel_build") as span:
                        started = time.perf_counter()
                        compiled = self._build_tag_table(tag)
                        self.build_ms += (time.perf_counter() - started) * 1e3
                        span.incr("tag_tables")
                    self._tags[tag] = compiled
        return compiled

    def tag_total(self, tag: str) -> float:
        """Total frequency of ``tag`` across its pids, cached per tag.

        The plan cost model prices unpruned candidate lists with this
        (one float per tag instead of re-summing the frequency array
        per plan).
        """
        total = self._tag_totals.get(tag)
        if total is None:
            total = float(sum(self.tag_table(tag).freqs))
            with self._lock:
                self._tag_totals[tag] = total
        return total

    def containment(
        self, upper_tag: str, lower_tag: str, child: bool, tracer=NULL_TRACER
    ) -> ContainmentPair:
        key = (upper_tag, lower_tag, child)
        pair = self._pairs.get(key)
        if pair is None:
            upper = self.tag_table(upper_tag, tracer)
            lower = self.tag_table(lower_tag, tracer)
            with self._lock:
                pair = self._pairs.get(key)
                if pair is None:
                    with tracer.span("kernel_build") as span:
                        started = time.perf_counter()
                        pair = self._build_pair(upper, lower, child)
                        self.build_ms += (time.perf_counter() - started) * 1e3
                        span.incr("pairs")
                    self._pairs[key] = pair
        return pair

    def root_mask(self, tag: str) -> int:
        """Bitset of indexes rooted at the document root (pid_is_root)."""
        compiled = self.tag_table(tag)
        return compiled.init_at[0] if compiled.init_at else 0

    def compile_full(self, tracer=NULL_TRACER) -> Dict[str, int]:
        """Eagerly compile every tag table and every co-occurring pair.

        Laziness is right for serving, wrong for snapshotting: the
        kernelpack writer needs the complete structure.  "Co-occurring"
        comes from the encoding table's label paths — descendant pairs
        for every ordered (ancestor, descendant) on some path, child
        pairs for adjacent labels — which is exactly the set of pairs a
        supported query can ever request (the join only relates tags
        that appear on a common root-to-leaf path; unrelated pairs yield
        empty matrices and the estimate 0 without consulting a pair).

        Returns ``{"tags": ..., "pairs": ...}`` counts.
        """
        if not self.eligible:
            raise ValueError(
                "kernel for %r is not eligible for full compilation "
                "(depth-refined statistics)" % (self.name,)
            )
        for tag in sorted(self.provider.tags()):
            self.tag_table(tag, tracer)
        known = set(self._tags)
        pair_keys = set()
        table = self.table
        for encoding in range(1, table.width + 1):
            labels = table.labels_of(encoding)
            for i, upper in enumerate(labels):
                for j in range(i + 1, len(labels)):
                    lower = labels[j]
                    if upper not in known or lower not in known:
                        continue
                    pair_keys.add((upper, lower, False))
                    if j == i + 1:
                        pair_keys.add((upper, lower, True))
        for upper, lower, child in sorted(pair_keys):
            self.containment(upper, lower, child, tracer)
        return {"tags": len(self._tags), "pairs": len(self._pairs)}

    def export_state(
        self,
    ) -> Tuple[Dict[str, TagTable], Dict[Tuple[str, str, bool], ContainmentPair]]:
        """Snapshot of the compiled structures (for the pack writer)."""
        with self._lock:
            return dict(self._tags), dict(self._pairs)

    @property
    def packed(self) -> bool:
        """True on kernels decoded from a mapped kernelpack."""
        return False

    def _build_tag_table(self, tag: str) -> TagTable:
        pairs = list(self.provider.frequency_pairs(tag))
        pids = tuple(pid for pid, _ in pairs)
        freqs = array("d", (freq for _, freq in pairs))
        index_of = {pid: i for i, pid in enumerate(pids)}
        table = self.table
        depth_sets = [table.tag_depths(tag, pid) for pid in pids]
        depth_count = max((ds[-1] for ds in depth_sets if ds), default=-1) + 1
        init: List[int] = [0] * depth_count
        alive_mask = 0
        for i, ds in enumerate(depth_sets):
            if not ds:
                continue
            bit = 1 << i
            alive_mask |= bit
            for depth in ds:
                init[depth] |= bit
        return TagTable(tag, pids, freqs, index_of, tuple(init), alive_mask)

    def _build_pair(
        self, upper: TagTable, lower: TagTable, child: bool
    ) -> ContainmentPair:
        # Relationship mask: the encodings whose path relates the tag
        # pair on this axis.  ``pids_compatible`` asks for any encoding
        # of the lower pid with ``tag_below`` true — i.e. a non-empty
        # intersection with this mask, after the subset test.
        table = self.table
        width = table.width
        rel_mask = 0
        for encoding in range(1, width + 1):
            if table.tag_below(encoding, upper.tag, lower.tag, child):
                rel_mask |= 1 << (width - encoding)
        down: List[int] = []
        up = [0] * len(lower.pids)
        for i, pid_upper in enumerate(upper.pids):
            row = 0
            upper_bit = 1 << i
            for j, pid_lower in enumerate(lower.pids):
                if (pid_upper & pid_lower) == pid_lower and (pid_lower & rel_mask):
                    row |= 1 << j
                    up[j] |= upper_bit
            down.append(row)
        return ContainmentPair(tuple(down), tuple(up))

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------

    def join(self, query: Query, provider=None, tracer=NULL_TRACER):
        """Bitset path join; see :func:`repro.kernel.join.kernel_join`."""
        from repro.kernel.join import kernel_join

        return kernel_join(self, query, provider=provider, tracer=tracer)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for the service ``/metrics`` kernel block."""
        with self._lock:
            memo_entries = sum(
                len(pair.down_memo) + len(pair.up_memo)
                for pair in self._pairs.values()
            )
            return {
                "joins": self.joins,
                "fallbacks": self.fallbacks,
                "tag_tables": len(self._tags),
                "pairs": len(self._pairs),
                "memo_entries": memo_entries,
                "build_ms": round(self.build_ms, 3),
                "invalidated": self.invalidated,
                "packed": self.packed,
                "pack_hits": self.pack_hits,
                "pack_misses": self.pack_misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SynopsisKernel %r tags=%d pairs=%d%s>" % (
            self.name, len(self._tags), len(self._pairs),
            " INVALIDATED" if self.invalidated else "",
        )
