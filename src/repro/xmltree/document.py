"""Finalized XML documents.

An :class:`XmlDocument` freezes an element tree built with
:class:`~repro.xmltree.node.XmlNode`: it assigns pre-order (document-order)
numbers, builds a tag index, and exposes the whole-document views the
statistics collectors need.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.xmltree.node import XmlNode


class XmlDocument:
    """An immutable-by-convention XML document.

    Parameters
    ----------
    root:
        The root element of a fully built tree.  The constructor walks the
        tree once to assign ``pre`` numbers and index nodes by tag; the tree
        must not be mutated afterwards.
    name:
        Optional human-readable name (dataset generators set this).
    """

    def __init__(self, root: XmlNode, name: str = ""):
        if root.parent is not None:
            raise ValueError("document root must not have a parent")
        self.root = root
        self.name = name
        self._nodes: List[XmlNode] = []
        self._by_tag: Dict[str, List[XmlNode]] = {}
        self.renumber()

    def renumber(self) -> None:
        """(Re)assign pre-order numbers and rebuild the tag index.

        Called by the constructor; call it again after mutating the tree.
        """
        self._nodes = []
        self._by_tag = {}
        for pre, node in enumerate(self.root.iter_preorder()):
            node.pre = pre
            self._nodes.append(node)
            self._by_tag.setdefault(node.tag, []).append(node)

    # ------------------------------------------------------------------
    # Whole-document views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of element nodes."""
        return len(self._nodes)

    def __iter__(self) -> Iterator[XmlNode]:
        """Iterate every element node in document order."""
        return iter(self._nodes)

    def node_at(self, pre: int) -> XmlNode:
        """Return the node with pre-order number ``pre``."""
        return self._nodes[pre]

    def nodes_with_tag(self, tag: str) -> List[XmlNode]:
        """All element nodes with the given tag, in document order."""
        return self._by_tag.get(tag, [])

    @property
    def distinct_tags(self) -> List[str]:
        """Sorted list of distinct element tags."""
        return sorted(self._by_tag)

    def tag_count(self, tag: str) -> int:
        return len(self._by_tag.get(tag, ()))

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def iter_leaves(self) -> Iterator[XmlNode]:
        """Yield leaf elements (no element children) in document order."""
        return (node for node in self._nodes if node.is_leaf)

    def distinct_root_to_leaf_paths(self) -> List[str]:
        """Distinct root-to-leaf label paths in order of first occurrence.

        This is exactly the set the encoding table of the path encoding
        scheme enumerates (Figure 1(b) of the paper).
        """
        seen = set()
        ordered: List[str] = []
        for leaf in self.iter_leaves():
            path = leaf.label_path()
            if path not in seen:
                seen.add(path)
                ordered.append(path)
        return ordered

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def max_depth(self) -> int:
        """Depth of the deepest element (root = 0)."""
        best = 0
        # Iterative depth computation: parents appear before children in
        # document order, so a single forward pass suffices.
        depths: Dict[int, int] = {self.root.pre: 0}
        for node in self._nodes[1:]:
            parent = node.parent
            depth = depths[parent.pre] + 1 if parent is not None else 0
            depths[node.pre] = depth
            if depth > best:
                best = depth
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.root.tag
        return "<XmlDocument %s: %d elements, %d tags>" % (
            label,
            len(self._nodes),
            len(self._by_tag),
        )


def document_from_root(root: XmlNode, name: str = "") -> XmlDocument:
    """Convenience wrapper mirroring :class:`XmlDocument` construction."""
    return XmlDocument(root, name=name)
