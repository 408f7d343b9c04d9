"""Tests for Section 5 order-axis estimation (Equations 3-5)."""

import pytest

from repro.core.order import estimate_with_order, sibling_order_edges
from repro.core.providers import ExactOrderStats, ExactPathStats
from repro.core.system import EstimationSystem
from repro.core.transform import UnsupportedQueryError
from repro.stats import collect_path_order, collect_pathid_frequencies
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument
from repro.pathenc import label_document
from repro.xpath import Evaluator, parse_query


@pytest.fixture(scope="module")
def env(figure1_labeled):
    paths = ExactPathStats(collect_pathid_frequencies(figure1_labeled))
    orders = ExactOrderStats(collect_path_order(figure1_labeled))
    return paths, orders, figure1_labeled.encoding_table


def estimate(env, text):
    paths, orders, table = env
    return estimate_with_order(parse_query(text), paths, orders, table)


class TestEdgeDiscovery:
    def test_sibling_edges_found(self):
        query = parse_query("//A[/B/folls::C][/D]")
        edges = sibling_order_edges(query)
        assert len(edges) == 1
        assert edges[0][1].tag == "B" and edges[0][2].tag == "C"

    def test_no_order_falls_through(self, env, figure1_evaluator):
        query = parse_query("//A/B")
        paths, orders, table = env
        value = estimate_with_order(query, paths, orders, table)
        assert value == pytest.approx(float(figure1_evaluator.selectivity(query)))

    def test_multiple_order_edges_supported(self, env):
        paths, orders, table = env
        # Two order constraints; the generalized Eq-5 min handles them.
        query = parse_query("//A[/B[/D]/folls::C][/B/pres::C]")
        value = estimate_with_order(query, paths, orders, table)
        assert value >= 0.0

    def test_scoped_axis_rejected(self, env):
        paths, orders, table = env
        with pytest.raises(UnsupportedQueryError):
            estimate_with_order(parse_query("//A[/C/foll::D]"), paths, orders, table)


class TestEquations:
    def test_eq3_later_sibling(self, env):
        assert estimate(env, "//A[/C[/F]/folls::$B/D]") == pytest.approx(1.0)

    def test_eq3_earlier_sibling(self, env, figure1_evaluator):
        # Target C, which must precede a B/D sibling.
        query = parse_query("//A[/$C[/F]/folls::B/D]")
        value = estimate(env, "//A[/$C[/F]/folls::B/D]")
        actual = figure1_evaluator.selectivity(query)
        assert value == pytest.approx(float(actual))

    def test_eq4_deep_target(self, env):
        assert estimate(env, "//A[/C[/F]/folls::B/$D]") == pytest.approx(1.0)

    def test_eq5_trunk_target(self, env):
        assert estimate(env, "//$A[/C[/F]/folls::B/D]") == pytest.approx(1.0)

    def test_pres_direction(self, env, figure1_evaluator):
        # B preceded by... rewritten as pres: B[pres::C] means C before B.
        query = parse_query("//A[/$B/pres::C]")
        value = estimate(env, "//A[/$B/pres::C]")
        assert value == pytest.approx(float(figure1_evaluator.selectivity(query)))

    def test_unsatisfiable_order(self, env):
        assert estimate(env, "//A[/F/folls::E]") == 0.0


class TestAgainstEvaluatorOnCraftedDoc:
    @pytest.fixture(scope="class")
    def crafted(self):
        # Repetitive sibling groups with *uniform* order so the paper's
        # assumptions hold exactly and the estimates must equal the truth.
        groups = []
        for index in range(8):
            children = [el("head"), el("mid", el("leafm"))]
            if index % 2 == 0:
                children.append(el("tail", el("leaft")))
            groups.append(el("g", *children))
        doc = XmlDocument(el("top", *groups))
        labeled = label_document(doc)
        paths = ExactPathStats(collect_pathid_frequencies(labeled))
        orders = ExactOrderStats(collect_path_order(labeled))
        return doc, (paths, orders, labeled.encoding_table)

    @pytest.mark.parametrize(
        "text",
        [
            "//g[/$head/folls::mid]",
            "//g[/head/folls::$mid]",
            "//g[/$head/folls::tail/leaft]",
            "//g[/head/folls::tail/$leaft]",
            "//$g[/head/folls::mid/leafm]",
            "//g[/$mid/pres::head]",
            "//g[/mid/folls::$tail]",
        ],
    )
    def test_uniform_order_is_exact(self, crafted, text):
        doc, env_ = crafted
        value = estimate_with_order(parse_query(text), *env_)
        actual = Evaluator(doc).selectivity(parse_query(text))
        assert value == pytest.approx(float(actual))

    @pytest.mark.parametrize(
        "text",
        [
            "//$g[/head/folls::mid][/mid/folls::tail]",
            "//g[/head/folls::$mid][/head/folls::tail]",
        ],
    )
    def test_multi_edge_generalization_exact_on_uniform_data(self, crafted, text):
        doc, env_ = crafted
        value = estimate_with_order(parse_query(text), *env_)
        actual = Evaluator(doc).selectivity(parse_query(text))
        assert value == pytest.approx(float(actual))


class TestJoinReuse:
    """One order estimate joins each AST it needs exactly once."""

    @pytest.mark.parametrize(
        "text",
        [
            "//A[/C[/F]/folls::$B/D]",  # Equation 3
            "//A[/C[/F]/folls::B/$D]",  # Equation 4
            "//$A[/C[/F]/folls::B/D]",  # Equation 5
        ],
    )
    def test_joins_equal_distinct_asts(self, figure1, text):
        system = EstimationSystem.build(figure1, p_variance=0, o_variance=0)
        kernel = system.kernel()
        joined = []
        join = kernel.join

        def spy(query, **kwargs):
            joined.append(query)
            return join(query, **kwargs)

        kernel.join = spy
        before = kernel.stats()["joins"]
        value = estimate_with_order(
            parse_query(text),
            system.path_provider,
            system.order_provider,
            system.encoding_table,
            kernel=kernel,
        )
        assert value == pytest.approx(1.0)
        assert kernel.stats()["joins"] - before == len(joined)
        assert len(joined) == len({id(query) for query in joined})
