"""Tests for the explanation API."""

import pytest

from repro import EstimationSystem
from repro.core.explain import EstimateReport, explain


@pytest.fixture(scope="module")
def system(figure1):
    return EstimationSystem.build(figure1, p_variance=0, o_variance=0)


QUERIES_AND_RULES = [
    ("//A/B", "theorem-4.1"),
    ("/Root//D", "theorem-4.1"),
    ("//C[/$E]/F", "equation-2"),
    ("//A[/C/F]/B/$D", "equation-2"),
    ("//A[/C[/F]/folls::$B/D]", "equation-3"),
    ("//A[/$C[/F]/folls::B/D]", "equation-3"),
    ("//A[/C[/F]/folls::B/$D]", "equation-4"),
    ("//$A[/C[/F]/folls::B/D]", "equation-5"),
    ("//A[/C/foll::$D]", "example-5.3-rewrite"),
    ("//F/E", "empty-join"),
]


class TestRuleSelection:
    @pytest.mark.parametrize("text,rule", QUERIES_AND_RULES)
    def test_rule(self, system, text, rule):
        assert explain(system, text).rule == rule

    @pytest.mark.parametrize("text,rule", QUERIES_AND_RULES)
    def test_estimate_matches_system(self, system, text, rule):
        report = explain(system, text)
        assert report.estimate == pytest.approx(system.estimate(text))


class TestDetails:
    def test_theorem_details(self, system):
        report = explain(system, "//A/B")
        assert report.details["f_Q(n)"] == 4.0
        assert report.details["surviving_pids"] == 2.0

    def test_equation3_details(self, system):
        report = explain(system, "//A[/C[/F]/folls::$B/D]")
        assert report.details["S_ordQ'(B)"] == 2.0
        assert report.details["S_Q'(B)"] == pytest.approx(8 / 3)
        assert report.details["S_Q(n)"] == pytest.approx(4 / 3)

    def test_equation5_details(self, system):
        report = explain(system, "//$A[/C[/F]/folls::B/D]")
        assert set(report.details) == {
            "S_Q(n)", "S_ord(earlier=C)", "S_ord(later=B)"
        }

    def test_rewrite_variants(self, system):
        report = explain(system, "//A[/C/foll::$D]")
        assert len(report.variants) == 1
        assert report.variants[0].rule == "equation-4"

    def test_render(self, system):
        text = explain(system, "//A[/C/foll::$D]").render()
        assert "example-5.3-rewrite" in text
        assert "equation-4" in text
        assert "estimate=" in text


class TestReportShape:
    def test_dataclass_fields(self, system):
        report = explain(system, "//A/B")
        assert isinstance(report, EstimateReport)
        assert report.target_tag == "B"
        assert report.query_text == "//A/B"
        assert report.variants == []


class TestMultiEdge:
    """Several sibling-order axes: explain reports the generalized
    Equation 5 minimum, one child report per edge."""

    def test_probe_matches_estimate(self):
        from repro.datasets import generate_ssplays

        system = EstimationSystem.build(generate_ssplays(scale=0.1, seed=3))
        text = "//SCENE[/TITLE/folls::$SPEECH/folls::STAGEDIR]"
        report = explain(system, text)
        assert report.estimate == system.estimate(text) == 137.0
        assert report.rule == "equation-5-min"
        assert [variant.rule for variant in report.variants] == ["equation-3"] * 2
        assert report.estimate == min(v.estimate for v in report.variants)

    def test_every_generated_multi_edge_query(self, ssplays_small, dblp_small, xmark_small):
        from tests.core.multi_edge import multi_edge_order_queries

        for document in (ssplays_small, dblp_small, xmark_small):
            system = EstimationSystem.build(document)
            texts = multi_edge_order_queries(document)
            assert texts
            mismatches = [
                (text, explain(system, text).estimate, system.estimate(text))
                for text in texts
                if explain(system, text).estimate != system.estimate(text)
            ]
            assert mismatches == []

    def test_generated_workloads_match(self, ssplays_small, dblp_small, xmark_small):
        from repro.workload import WorkloadGenerator

        for document in (ssplays_small, dblp_small, xmark_small):
            system = EstimationSystem.build(document)
            generator = WorkloadGenerator(document, seed=13)
            workload = generator.full_workload(40, 40, 60)
            items = (
                workload.simple + workload.branch + workload.order_branch
                + workload.order_trunk + generator.scoped_order_queries(40)
            )
            for item in items:
                assert explain(system, item.text).estimate == system.estimate(item.text), item.text
