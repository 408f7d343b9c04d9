"""Incremental synopsis maintenance: merge deltas into a live system.

The paper builds its synopsis once per document; a serving tier cannot
afford that — documents grow continuously and a full rebuild re-scans
every byte.  The mergeable :class:`~repro.build.stream.PartialSynopsis`
algebra from the sharded builder already does the heavy lifting: a delta
(new top-level subtrees appended at the end of the document) is just one
more shard, scanned in isolation and merged into the maintained body
tables.  Only the synopsis-sized merge and the histogram rebuild are
paid per delta, never a re-scan of the base document.

This is the only way a synopsis absorbs appends.  A subtree appended
under a non-root parent has no delta form: it changes an existing
record's sibling group and path id, so it needs a rebuild.

Exactness
---------

:meth:`IncrementalSynopsis.apply` is **bit-identical** to a from-scratch
build of the combined document (pinned by tests/cluster/test_delta.py):

* append-at-end deltas preserve the first-occurrence order of the
  encoding table, so the final bit layout after a delta equals the
  layout a combined build would derive;
* the frequency/order table merges are commutative sums;
* the root tuple and the root's sibling-group cells are *recomputed*
  from the full ``top`` sequence after every merge (they cannot be
  patched in place — appending children changes existing elements'
  before/after counts), exactly as the shard reducer does.

Bounded staleness
-----------------

Rebuilding the p-/o-histograms (and binary tree) dominates the apply
cost for small deltas.  ``drift_threshold`` defers that: a delta whose
cumulative appended element mass stays under ``threshold *
elements_at_last_refresh`` merges into the exact body tables but keeps
the previous system serving — stale, never torn, since the served
:class:`~repro.core.system.EstimationSystem` is immutable and swapped
atomically.  ``drift_threshold=0`` (the default) refreshes on every
apply, preserving bit-identity at all times.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple, Optional, TYPE_CHECKING

from repro.build.merge import BodyTables, bit_remapper, reconstitute
from repro.build.stream import PartialSynopsis, SiblingRecord
from repro.errors import BuildError
from repro.obs.trace import NULL_TRACER
from repro.stats.path_order import PathOrderTable
from repro.stats.pathid_freq import PathIdFrequencyTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import EstimationSystem


class DeltaError(BuildError):
    """A delta cannot be merged (wrong shape, wrong scan mode)."""

    kind = "delta"


class DeltaUnsupportedError(DeltaError):
    """The target synopsis does not carry incremental state.

    Snapshot- or pack-loaded systems without an embedded ``incremental``
    section have empty exact tables and no top-level record sequence;
    they can only be replaced wholesale (rebuild + hot reload), not
    delta-maintained.
    """

    kind = "delta_unsupported"


class DeltaOutcome(NamedTuple):
    """What one :meth:`IncrementalSynopsis.apply` call did."""

    #: The serving system *after* the apply (the previous one when the
    #: refresh was deferred under the drift threshold).
    system: "EstimationSystem"
    #: Whether the histograms were re-bucketed and the system swapped.
    refreshed: bool
    #: Unrefreshed element mass as a fraction of the mass at the last
    #: refresh (0.0 right after a refresh).
    drift: float
    #: Elements the delta contributed.
    elements_added: int
    #: Label paths the delta introduced (encoding-table growth).
    new_paths: int
    #: Wall time of the apply, milliseconds.
    elapsed_ms: float


class IncrementalSynopsis:
    """A synopsis maintained under appended-subtree deltas.

    Holds the merged :class:`~repro.build.merge.BodyTables` of everything
    applied so far plus the served system materialized from them.  All
    mutation is serialized under one lock; readers never take it — they
    read the ``system`` attribute, which only ever points at a fully
    constructed system.
    """

    def __init__(
        self,
        body: BodyTables,
        root_tag: str,
        *,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        use_histograms: bool = True,
        build_binary_tree: bool = True,
        drift_threshold: float = 0.0,
        name: str = "",
        tracer=NULL_TRACER,
    ):
        if drift_threshold < 0:
            raise DeltaError(
                "drift_threshold must be >= 0, got %r" % (drift_threshold,)
            )
        self._body = body
        self._index = {path: i + 1 for i, path in enumerate(body.paths)}
        self.root_tag = root_tag
        self.p_variance = p_variance
        self.o_variance = o_variance
        self.use_histograms = use_histograms
        self.build_binary_tree = build_binary_tree
        self.drift_threshold = drift_threshold
        self.name = name
        self.tracer = tracer
        self._lock = threading.Lock()
        # Delta accounting (read by /metrics and describe()).
        self.applies_total = 0
        self.refreshes_total = 0
        self.deferred_total = 0
        self.elements_applied_total = 0
        self._drift_mass = 0
        self._mass_at_refresh = max(1, body.element_count)
        self.system: "EstimationSystem" = self._materialize(None)
        self.refreshes_total = 0  # the initial build is not a refresh

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        source,
        *,
        p_variance: float = 0.0,
        o_variance: float = 0.0,
        use_histograms: bool = True,
        build_binary_tree: bool = True,
        drift_threshold: float = 0.0,
        workers: int = 1,
        shard_bytes: Optional[int] = None,
        lenient: bool = False,
        name: str = "",
        tracer=NULL_TRACER,
    ) -> "IncrementalSynopsis":
        """Build delta-capable state from XML text or a file path.

        The document is collected through the sharded body path
        (:meth:`SynopsisBuilder.collect_body`), so the resulting system
        is bit-identical to ``build_synopsis`` on the same input while
        retaining everything needed to merge future deltas.
        """
        import os

        from repro.build.builder import DEFAULT_SHARD_BYTES, SynopsisBuilder

        builder = SynopsisBuilder(
            p_variance=p_variance,
            o_variance=o_variance,
            use_histograms=use_histograms,
            build_binary_tree=build_binary_tree,
            workers=workers,
            shard_bytes=shard_bytes or DEFAULT_SHARD_BYTES,
            lenient=lenient,
            tracer=tracer,
        )
        text = source
        if isinstance(source, os.PathLike) or (
            isinstance(source, str) and source.lstrip()[:1] != "<"
        ):
            path = os.fspath(source)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if not name:
                name = os.path.splitext(os.path.basename(path))[0]
        root_tag, body = builder.collect_body(text)
        return cls(
            body,
            root_tag,
            p_variance=p_variance,
            o_variance=o_variance,
            use_histograms=use_histograms,
            build_binary_tree=build_binary_tree,
            drift_threshold=drift_threshold,
            name=name,
            tracer=tracer,
        )

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def scan_fragment(self, text: str, lenient: bool = False) -> PartialSynopsis:
        """Scan delta XML (a run of top-level subtrees) into a partial.

        The fragment is scanned under this synopsis' root prefix, which
        is exactly what ``repro delta --file`` ships to the service.
        """
        from repro.build.stream import scan_text

        return scan_text(text, (self.root_tag,), lenient=lenient)

    def apply(
        self, partial: PartialSynopsis, *, force_refresh: bool = False
    ) -> DeltaOutcome:
        """Merge one delta partial; maybe refresh the served system.

        ``partial`` must be a fragment scan (``top`` records present) of
        subtrees appended *at the end* of the document — that is the
        shape under which the merge is exact.  An empty partial is a
        no-op.  Raises :class:`DeltaError` for whole-document partials.
        """
        if partial.top is None:
            raise DeltaError(
                "delta must be a fragment scan under the root prefix "
                "(scan_text(text, (root_tag,)) or scan_fragment); got a "
                "whole-document partial"
            )
        started = time.perf_counter()
        with self._lock, self.tracer.span("delta_apply") as span:
            if partial.element_count == 0 and not partial.paths:
                span.incr("empty")
                return DeltaOutcome(
                    self.system, False, self.drift(), 0, 0,
                    (time.perf_counter() - started) * 1000.0,
                )
            new_paths = self._merge_locked(partial)
            span.incr("elements", partial.element_count)
            span.incr("new_paths", new_paths)
            self.applies_total += 1
            self.elements_applied_total += partial.element_count
            self._drift_mass += partial.element_count
            drift = self._drift_mass / self._mass_at_refresh
            refresh = (
                force_refresh
                or new_paths > 0  # the served bit layout is now stale
                or self.drift_threshold <= 0.0
                or drift > self.drift_threshold
            )
            if refresh:
                system = self._materialize(self.system)
                span.incr("refreshed")
            else:
                system = self.system
                self.deferred_total += 1
                # The served statistics are unchanged (the merge is
                # deferred), so cached estimates are still correct —
                # but the ISSUE contract is that *every* delta apply
                # invalidates, and a bump is O(1), so staleness can
                # never depend on the drift heuristic.
                system.semcache.bump_generation()
            return DeltaOutcome(
                system,
                refresh,
                0.0 if refresh else drift,
                partial.element_count,
                new_paths,
                (time.perf_counter() - started) * 1000.0,
            )

    def refresh(self) -> "EstimationSystem":
        """Force a histogram rebuild + atomic system swap now."""
        with self._lock:
            return self._materialize(self.system)

    def drift(self) -> float:
        """Unrefreshed element mass / mass at the last refresh."""
        return self._drift_mass / self._mass_at_refresh

    @property
    def stale(self) -> bool:
        """True when merged deltas are not yet reflected in the system."""
        return self._drift_mass > 0

    def describe(self) -> dict:
        return {
            "root_tag": self.root_tag,
            "elements": self._body.element_count,
            "paths": len(self._body.paths),
            "applies": self.applies_total,
            "refreshes": self.refreshes_total,
            "deferred": self.deferred_total,
            "drift": round(self.drift(), 6),
            "stale": self.stale,
            "drift_threshold": self.drift_threshold,
        }

    # ------------------------------------------------------------------
    # Internals (holding the lock)
    # ------------------------------------------------------------------

    def _merge_locked(self, partial: PartialSynopsis) -> int:
        """Merge a provisional-layout delta into the final-layout body.

        Returns how many genuinely new paths the delta introduced.  When
        ``k`` new paths arrive, every existing path's encoding ``e``
        moves from bit ``w - e`` to bit ``w + k - e``: a uniform
        ``pid << k`` shift of every base table — cheap, synopsis-sized.
        """
        body = self._body
        fresh = [path for path in partial.paths if path not in self._index]
        k = len(fresh)
        if k:
            paths = body.paths + fresh
            self._index = {path: i + 1 for i, path in enumerate(paths)}
            shift = k  # close over an int, not self
            shifted = bit_remapper(
                [shift + bit for bit in range(len(body.paths))]
            )
            base_freq = body.pathid_table.remap_pathids(shifted)
            base_order = body.order_table.remap_pathids(shifted)
            base_top = [
                SiblingRecord(record.tag, record.pid << shift)
                for record in body.top
            ]
        else:
            paths = body.paths
            base_freq = body.pathid_table
            base_order = body.order_table
            base_top = list(body.top)
        width = len(paths)
        bit_map = [width - self._index[path] for path in partial.paths]
        remap = bit_remapper(bit_map)
        delta_freq = PathIdFrequencyTable(partial.freq).remap_pathids(remap)
        delta_order = PathOrderTable(partial.grids).remap_pathids(remap)
        base_top.extend(
            SiblingRecord(record.tag, remap(record.pid)) for record in partial.top
        )
        self._body = BodyTables(
            paths,
            base_freq.merge(delta_freq),
            base_order.merge(delta_order),
            base_top,
            body.element_count + partial.element_count,
        )
        return k

    def _materialize(self, previous) -> "EstimationSystem":
        """Rebuild histograms/binary tree from the body and swap.

        The new system is fully constructed before the ``system``
        attribute moves, and the old one is immutable, so a concurrent
        reader sees either complete state — never a torn mix.  The
        replaced system's compiled kernel is invalidated (the PR 5
        stale-kernel guard), so captured references fall back instead of
        serving pre-delta statistics.
        """
        from repro.core.system import EstimationSystem

        tables = reconstitute(self._body, self.root_tag)
        system = EstimationSystem.from_statistics(
            tables.encoding_table,
            tables.pathid_table,
            tables.order_table,
            distinct_pathids=tables.distinct_pathids,
            p_variance=self.p_variance,
            o_variance=self.o_variance,
            use_histograms=self.use_histograms,
            build_binary_tree=self.build_binary_tree,
            name=self.name,
        )
        system.incremental = self
        self.system = system
        self._drift_mass = 0
        self._mass_at_refresh = max(1, self._body.element_count)
        self.refreshes_total += 1
        if previous is not None:
            previous.invalidate_kernel()
        return system
