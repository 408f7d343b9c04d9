"""The Path-Order table (Section 3, Figure 2(b)).

Each distinct element tag ``X`` owns a sparse grid whose columns are the
path ids under which ``X`` occurs and whose rows are element tags, split in
two regions:

* ``+ele`` (*before*): ``g(pid, Y)`` counts ``X`` elements with ``pid``
  that occur **before** at least one sibling tagged ``Y``;
* ``ele+`` (*after*): ``g(pid, Y)`` counts ``X`` elements with ``pid``
  that occur **after** at least one sibling tagged ``Y``.

An ``X`` that has ``Y`` siblings on both sides is counted in both regions
(the paper's note after Example 3.2).

Like the PathId-Frequency table, the grids are mergeable: each sibling
group contributes its cells independently, so grids collected over
document shards reduce to the whole-document grids with
:meth:`PathOrderTable.merge` (associative and commutative), provided all
inputs share one encoding-table bit layout (:meth:`remap_pathids`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Set, Tuple

from repro.pathenc.labeler import LabeledDocument

Cell = Tuple[int, str]  # (path id of X, other tag Y)


class TagOrderGrid:
    """The sparse path-order grid of a single element tag."""

    def __init__(self, tag: str):
        self.tag = tag
        self._before: Dict[Cell, int] = {}
        self._after: Dict[Cell, int] = {}

    # -- collection ------------------------------------------------------

    def add_before(self, pid: int, other_tag: str) -> None:
        key = (pid, other_tag)
        self._before[key] = self._before.get(key, 0) + 1

    def add_after(self, pid: int, other_tag: str) -> None:
        key = (pid, other_tag)
        self._after[key] = self._after.get(key, 0) + 1

    def add_count(self, pid: int, other_tag: str, count: int, before: bool) -> None:
        """Add ``count`` to one cell directly (shard merge bulk path)."""
        region = self._before if before else self._after
        key = (pid, other_tag)
        region[key] = region.get(key, 0) + count

    # -- lookups -----------------------------------------------------------

    def g_before(self, pid: int, other_tag: str) -> int:
        """``X`` elements with ``pid`` occurring before a ``other_tag`` sibling."""
        return self._before.get((pid, other_tag), 0)

    def g_after(self, pid: int, other_tag: str) -> int:
        """``X`` elements with ``pid`` occurring after a ``other_tag`` sibling."""
        return self._after.get((pid, other_tag), 0)

    def region(self, before: bool) -> Dict[Cell, int]:
        """The raw cells of one region (a copy)."""
        return dict(self._before if before else self._after)

    def cells(self) -> List[Tuple[Tuple[int, str, bool], int]]:
        """Every non-zero cell as ``((pid, other_tag, before), count)``,
        in a deterministic order (serialization)."""
        items = [
            ((pid, other_tag, True), count)
            for (pid, other_tag), count in self._before.items()
        ]
        items.extend(
            ((pid, other_tag, False), count)
            for (pid, other_tag), count in self._after.items()
        )
        items.sort(key=lambda cell: (cell[0][0], cell[0][1], not cell[0][2]))
        return items

    def nonzero_cell_count(self) -> int:
        return len(self._before) + len(self._after)

    def row_tags(self) -> List[str]:
        """Sorted distinct other-tags appearing in either region."""
        tags: Set[str] = {tag for _, tag in self._before}
        tags.update(tag for _, tag in self._after)
        return sorted(tags)

    def column_pids(self) -> List[int]:
        """Ascending distinct path ids appearing in either region."""
        pids: Set[int] = {pid for pid, _ in self._before}
        pids.update(pid for pid, _ in self._after)
        return sorted(pids)

    def merged_with(self, *others: "TagOrderGrid") -> "TagOrderGrid":
        """A new grid summing this grid's cells with ``others``'."""
        merged = TagOrderGrid(self.tag)
        for grid in (self,) + others:
            for (pid, other_tag), count in grid._before.items():
                merged.add_count(pid, other_tag, count, before=True)
            for (pid, other_tag), count in grid._after.items():
                merged.add_count(pid, other_tag, count, before=False)
        return merged

    def remapped(self, remap: Callable[[int], int]) -> "TagOrderGrid":
        """A new grid with every cell's path id passed through ``remap``."""
        grid = TagOrderGrid(self.tag)
        grid._before = {
            (remap(pid), other): count for (pid, other), count in self._before.items()
        }
        grid._after = {
            (remap(pid), other): count for (pid, other), count in self._after.items()
        }
        return grid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagOrderGrid):
            return NotImplemented
        return (
            self.tag == other.tag
            and self._before == other._before
            and self._after == other._after
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment] - mutable collector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TagOrderGrid %s: %d before-cells, %d after-cells>" % (
            self.tag,
            len(self._before),
            len(self._after),
        )


class PathOrderTable:
    """All path-order grids of a document, keyed by element tag."""

    def __init__(self, grids: Dict[str, TagOrderGrid]):
        self._grids = grids

    def grid(self, tag: str) -> TagOrderGrid:
        """The grid for ``tag`` (an empty grid if the tag has no order data)."""
        existing = self._grids.get(tag)
        return existing if existing is not None else TagOrderGrid(tag)

    def tags(self) -> List[str]:
        return sorted(self._grids)

    def iter_grids(self) -> Iterator[TagOrderGrid]:
        for tag in sorted(self._grids):
            yield self._grids[tag]

    def total_nonzero_cells(self) -> int:
        return sum(grid.nonzero_cell_count() for grid in self._grids.values())

    # ------------------------------------------------------------------
    # Merging and remapping (sharded construction)
    # ------------------------------------------------------------------

    def merge(self, *others: "PathOrderTable") -> "PathOrderTable":
        """Sum this table's grids with ``others``' into a new table.

        All tables must use the same encoding-table bit layout; remap
        shard-local tables first (:meth:`remap_pathids`).  Associative and
        commutative.  Grids that exist in one input but carry no cells
        survive the merge, matching a direct whole-document collection.
        """
        merged: Dict[str, TagOrderGrid] = {}
        for table in (self,) + others:
            for tag, grid in table._grids.items():
                existing = merged.get(tag)
                merged[tag] = grid.merged_with() if existing is None else existing.merged_with(grid)
        return PathOrderTable(merged)

    def remap_pathids(self, remap: Callable[[int], int]) -> "PathOrderTable":
        """A new table with every grid's path ids passed through ``remap``."""
        return PathOrderTable(
            {tag: grid.remapped(remap) for tag, grid in self._grids.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathOrderTable):
            return NotImplemented
        return self._grids == other._grids

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment] - mutable collector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PathOrderTable %d tags, %d cells>" % (
            len(self._grids),
            self.total_nonzero_cells(),
        )


def scan_sibling_group(children, pid_of, grid_for) -> None:
    """Record the order relations of one sibling group.

    ``pid_of(node)`` returns the node's path id, ``grid_for(tag)`` the grid
    to update.  For a group of size ``n`` with ``d`` distinct tags this
    does ``O(n * d)`` work using running prefix/suffix tag multisets.
    Shared by the tree scan, the streaming scanner and the shard reducer.
    """
    if len(children) < 2:
        return
    # suffix_counts[t] = number of children tagged t strictly after the
    # current position; prefix grows as we sweep left-to-right.
    suffix_counts: Dict[str, int] = {}
    for child in children:
        suffix_counts[child.tag] = suffix_counts.get(child.tag, 0) + 1
    prefix_counts: Dict[str, int] = {}
    for child in children:
        count = suffix_counts[child.tag] - 1
        if count:
            suffix_counts[child.tag] = count
        else:
            del suffix_counts[child.tag]
        grid = grid_for(child.tag)
        pid = pid_of(child)
        for other_tag in suffix_counts:
            grid.add_before(pid, other_tag)
        for other_tag in prefix_counts:
            grid.add_after(pid, other_tag)
        prefix_counts[child.tag] = prefix_counts.get(child.tag, 0) + 1


def collect_path_order(labeled: LabeledDocument) -> PathOrderTable:
    """Scan every sibling group and build all path-order grids."""
    grids: Dict[str, TagOrderGrid] = {}
    pathids = labeled.pathids

    def grid_for(tag: str) -> TagOrderGrid:
        existing = grids.get(tag)
        if existing is None:
            existing = TagOrderGrid(tag)
            grids[tag] = existing
        return existing

    for parent in labeled.document:
        scan_sibling_group(parent.children, lambda n: pathids[n.pre], grid_for)
    return PathOrderTable(grids)
