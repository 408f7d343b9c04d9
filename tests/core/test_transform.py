"""Tests for query-pattern transformations: the order-free clone and the
node masks of a compiled pattern."""

import pytest

from repro.core.transform import (
    CompiledPattern,
    UnsupportedQueryError,
    clone_query,
)
from repro.xpath import parse_query
from repro.xpath.ast import QueryAxis


def _counterpart(text):
    """(query, its compiled order-free counterpart)."""
    query = parse_query(text)
    return query, CompiledPattern(query, None, None)


def _tags(pattern, mask):
    return {node.tag for node in pattern.nodes if mask >> node.node_id & 1}


class TestCloneIdentity:
    def test_plain_clone_roundtrips(self):
        query = parse_query("//A[/B[/C]/D]/E")
        clone, mapping = clone_query(query)
        assert clone.to_string() == query.to_string()
        assert clone.root is not query.root
        for node in query.nodes():
            assert mapping[node.node_id].tag == node.tag

    def test_target_mapping(self):
        query = parse_query("//A[/$B]/C")
        clone, mapping = clone_query(query)
        assert clone.target is mapping[query.find("B").node_id]


class TestDropSubtree:
    """Equations 3-4's ``Q'``: one node stripped to its head."""

    def test_drop_strips_structural_edges(self):
        query, pattern = _counterpart("//A[/B[/X]/Y]/C")
        b = query.find("B").node_id
        assert _tags(pattern, pattern.strip_below(pattern.full, b)) == {"A", "B", "C"}

    def test_drop_keeps_order_edges(self):
        # The order edge's later sibling hangs off A in the counterpart,
        # so stripping B keeps it.
        query, pattern = _counterpart("//A[/B[/X]/folls::C/D]")
        b = query.find("B").node_id
        assert _tags(pattern, pattern.strip_below(pattern.full, b)) == {"A", "B", "C", "D"}

    def test_dropping_target_subtree_fails(self):
        # Stripping B drops the target X: the estimators only ever strip
        # the branch *opposite* the target.
        query, pattern = _counterpart("//A[/B/$X]")
        b = query.find("B").node_id
        x = query.find("X").node_id
        assert not pattern.strip_below(pattern.full, b) >> x & 1


class TestOrderLifting:
    def test_folls_becomes_sibling_predicate(self):
        query = parse_query("//A[/B/folls::C/D]")
        clone, _ = clone_query(query, order_to_structural=True)
        # C/D re-attaches to A (B's structural parent) as a predicate.
        rendered = clone.to_string()
        assert "folls" not in rendered
        assert rendered == "//A[/B][/C/D]"

    def test_descendant_parent_keeps_axis(self):
        query = parse_query("//A[//B/folls::C]")
        clone, _ = clone_query(query, order_to_structural=True)
        a = clone.root
        axes = {e.node.tag: e.axis for e in a.predicate_edges()}
        assert axes["C"] is QueryAxis.DESCENDANT

    def test_scoped_becomes_descendant(self):
        query = parse_query("//A[/B/foll::C]")
        clone, _ = clone_query(query, order_to_structural=True)
        axes = {e.node.tag: e.axis for e in clone.root.predicate_edges()}
        assert axes["C"] is QueryAxis.DESCENDANT

    def test_order_on_root_rejected(self):
        query = parse_query("//B/folls::C")
        with pytest.raises(UnsupportedQueryError):
            clone_query(query, order_to_structural=True)


class TestSubtreeIds:
    """Sibling branches as subtree masks of the counterpart."""

    def test_structural_only(self):
        query, pattern = _counterpart("//A[/B/folls::C/D]")
        b = query.find("B").node_id
        assert _tags(pattern, pattern.subtree[b]) == {"B"}

    def test_cross_order(self):
        # The two sibling branches of B -folls-> C cover what a walk
        # from B across the order edge reaches in the query.
        query, pattern = _counterpart("//A[/B/folls::C/D]")
        b = query.find("B").node_id
        c = query.find("C").node_id
        assert _tags(pattern, pattern.subtree[b] | pattern.subtree[c]) == {"B", "C", "D"}


class TestCompiledCounterpart:
    @pytest.mark.parametrize("text,expected", [
        # An order edge's destination hangs off the source's structural
        # parent: by the same axis for folls/pres, by // for foll/pre.
        ("//A[/B/folls::C/D]", {"B": ("A", "/"), "C": ("A", "/"), "D": ("C", "/")}),
        ("//A[//B/folls::C]", {"B": ("A", "//"), "C": ("A", "//")}),
        ("//A[/B/foll::C]", {"B": ("A", "/"), "C": ("A", "//")}),
        ("//A[/B/folls::C/folls::D]", {"B": ("A", "/"), "C": ("A", "/"), "D": ("A", "/")}),
        ("//A[/B[/X/pres::Y]/folls::C]", {"B": ("A", "/"), "X": ("B", "/"), "Y": ("B", "/"), "C": ("A", "/")}),
    ])
    def test_lifted_links(self, text, expected):
        query, pattern = _counterpart(text)
        links = {
            node.tag: (pattern.nodes[pattern.parents[node.node_id]].tag, pattern.axes[node.node_id].value)
            for node in pattern.nodes
            if pattern.parents[node.node_id] >= 0
        }
        assert links == expected

    def test_order_on_root_rejected(self):
        with pytest.raises(UnsupportedQueryError):
            CompiledPattern(parse_query("//B/folls::C"), None, None)


class TestMaskedPattern:
    def test_view_reads_like_the_sub_query(self):
        from repro.core.transform import MaskedPattern

        query = parse_query("//A[/C/F]/B/D")
        pattern = CompiledPattern(query, None, None)
        view = MaskedPattern(pattern, pattern.spine_prune(pattern.full, query.find("B").node_id))
        assert view.root is query.root
        assert [node.tag for node in view.nodes()] == ["A", "B", "D"]
        assert [(s.tag, d.tag) for _, s, d in view.iter_edges()] == [("A", "B"), ("B", "D")]
        assert view.parent_link(query.find("D")) == (QueryAxis.CHILD, query.find("B"))
