"""Tests for Section 4 estimation (Theorem 4.1 and Equation 2)."""

import pytest

from repro.core.noorder import estimate_no_order
from repro.core.providers import ExactPathStats
from repro.core.transform import CompiledPattern
from repro.stats import collect_pathid_frequencies
from repro.xpath import parse_query


@pytest.fixture(scope="module")
def env(figure1_labeled):
    table = collect_pathid_frequencies(figure1_labeled)
    return ExactPathStats(table), figure1_labeled.encoding_table


def _compiled(text):
    query = parse_query(text)
    return query, CompiledPattern(query, None, None)


def _is_trunk(pattern, node):
    return pattern.branching_ancestor(pattern.full, node.node_id) < 0


def _tags(pattern, mask):
    return {node.tag for node in pattern.nodes if mask >> node.node_id & 1}


class TestTrunkDetection:
    def test_simple_chain_is_all_trunk(self):
        query, pattern = _compiled("//A/B/C")
        for node in query.nodes():
            assert _is_trunk(pattern, node)

    def test_branch_parts(self):
        query, pattern = _compiled("//A[/B/C]/D/E")
        assert _is_trunk(pattern, query.root)
        assert not _is_trunk(pattern, query.find("B"))
        assert not _is_trunk(pattern, query.find("C"))
        # D and E hang below the branching node A -> branch part too.
        assert not _is_trunk(pattern, query.find("D"))

    def test_branching_ancestor_is_deepest(self):
        query, pattern = _compiled("//A[/X]/B[/Y]/C")
        full = pattern.full
        assert pattern.branching_ancestor(full, query.find("C").node_id) == query.find("B").node_id
        assert pattern.branching_ancestor(full, query.find("X").node_id) == query.root.node_id

    def test_branches_below_target_do_not_matter(self):
        query, pattern = _compiled("//A/B[/C][/D]")
        assert _is_trunk(pattern, query.find("B"))


class TestPruneToSpine:
    """Equation 2's ``Q'`` as a spine-prune mask."""

    def test_drops_other_branches(self):
        query, pattern = _compiled("//A[/C/F]/B/D")
        pruned = pattern.spine_prune(pattern.full, query.find("B").node_id)
        assert _tags(pattern, pruned) == {"A", "B", "D"}

    def test_keeps_target_subtree(self):
        query, pattern = _compiled("//A[/X]/B[/C]/D")
        pruned = pattern.spine_prune(pattern.full, query.find("B").node_id)
        assert _tags(pattern, pruned) == {"A", "B", "C", "D"}

    def test_deep_branch_target(self):
        query, pattern = _compiled("//A[/C[/F]/E]/B")
        pruned = pattern.spine_prune(pattern.full, query.find("E").node_id)
        assert _tags(pattern, pruned) == {"A", "C", "E"}

    def test_nested_prune_stays_inside_its_mask(self):
        # The recursive Equation 2 prunes a mask that is already a
        # sub-pattern; the result never regains dropped nodes.
        query, pattern = _compiled("//A[/X]/B[/Y]/C")
        outer = pattern.spine_prune(pattern.full, query.find("C").node_id)
        assert _tags(pattern, outer) == {"A", "B", "C"}
        inner = pattern.spine_prune(outer, query.find("B").node_id)
        assert _tags(pattern, inner) == {"A", "B", "C"}


class TestEstimates:
    def test_theorem_4_1(self, env, figure1_evaluator):
        provider, table = env
        for text in ("//A/B", "//A//E", "/Root/A/C"):
            query = parse_query(text)
            estimate = estimate_no_order(query, provider, table)
            assert estimate == pytest.approx(
                float(figure1_evaluator.selectivity(query))
            )

    def test_equation_2_compensates(self, env, figure1_evaluator):
        provider, table = env
        query = parse_query("//C[/$E]/F")
        assert estimate_no_order(query, provider, table) == pytest.approx(1.0)

    def test_negative_query(self, env):
        provider, table = env
        assert estimate_no_order(parse_query("//F/E"), provider, table) == 0.0

    def test_recursive_branching(self, env):
        provider, table = env
        # Two nested branching nodes exercise the recursive Eq-2 rule.
        query = parse_query("//A[/B]/C[/F]/$E")
        estimate = estimate_no_order(query, provider, table)
        assert estimate >= 0.0

    def test_explicit_target_param(self, env):
        provider, table = env
        query = parse_query("//A[/C/F]/B/D")
        b_estimate = estimate_no_order(query, provider, table, target=query.find("B"))
        assert b_estimate == pytest.approx(4 / 3)
