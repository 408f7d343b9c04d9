"""Execution is exact: ``execute()`` returns the tree-walking
:class:`~repro.xpath.Evaluator`'s match set and the workload item's
``actual`` count on every dataset's simple, branch and order queries,
with and without path-id pruning.  The evaluator shares no code with the
semijoin loop, so it is an independent reference.
"""

from __future__ import annotations

import pytest

from repro.core.options import ExecuteOptions, ExplainOptions
from repro.core.system import EstimationSystem
from repro.errors import ExecutionUnsupportedError
from repro.queryproc import StructuralJoinProcessor
from repro.workload import WorkloadGenerator
from repro.xpath import Evaluator, parse_query

DATASET_FIXTURES = ("ssplays_small", "dblp_small", "xmark_small")


def workload_items(document, raw: int = 30, keep: int = 10):
    generator = WorkloadGenerator(document, seed=17)
    items = generator.simple_queries(raw) + generator.branch_queries(raw)
    # Prefer branchy queries: they have the most semijoin steps; pad
    # with the simple ones so every dataset contributes `keep` queries.
    items.sort(key=lambda item: item.kind != "branch")
    branch_order, trunk_order = generator.order_queries(raw)
    return items[:keep] + branch_order[: keep // 2] + trunk_order[: keep // 2]


@pytest.mark.parametrize("dataset", DATASET_FIXTURES)
class TestPlannedExecutionIsExact:
    @pytest.fixture()
    def document(self, dataset, request):
        return request.getfixturevalue(dataset)

    @pytest.fixture()
    def system(self, document):
        return EstimationSystem.build(document, p_variance=0, o_variance=0)

    def test_matches_reference_processor(self, system, document):
        # The reference is the Evaluator, not StructuralJoinProcessor:
        # execute() runs the processor's own semijoin loop.
        evaluator = Evaluator(document)
        for item in workload_items(document):
            query = parse_query(item.text)
            expected = sorted(evaluator.matching_pres(query, query.target))
            assert len(expected) == item.actual
            for use_path_ids in (True, False):
                result = system.execute(
                    item.text, options=ExecuteOptions(use_path_ids=use_path_ids)
                )
                assert sorted(result.matches) == expected, (item.text, use_path_ids)
                assert result.plan.executed

    def test_estimate_agrees_with_plan_cardinality(self, system, document):
        # Exact statistics: the plan's expected target cardinality is the
        # system's estimate for the same query.
        for item in workload_items(document, keep=5):
            plan = system.explain(item.text)
            assert plan.est_cardinality == pytest.approx(system.estimate(item.text))


class TestExecuteEdges:
    @pytest.fixture(scope="class")
    def system(self, figure1):
        return EstimationSystem.build(figure1, p_variance=0, o_variance=0)

    def test_empty_result_short_circuits(self, system):
        result = system.execute("//A/B/$F")  # no F under B in Figure 1
        assert result.matches == []
        assert result.plan.early_exit is not None
        assert any(step.skipped for step in result.plan.steps)

    def test_emptied_list_skips_the_rest(self, system):
        # Unpruned, the F list is non-empty but no B has an F child: the
        # first semijoin empties B and the reduction stops there.
        result = system.execute(
            "//A/B/$F", options=ExecuteOptions(use_path_ids=False)
        )
        plan = result.plan
        assert result.matches == []
        assert plan.early_exit == 0
        assert plan.steps[0].observed_out == 0
        assert [step.skipped for step in plan.steps] == [False, True, True, True]

    def test_steps_follow_the_processor_loop(self, system, figure1):
        processor = StructuralJoinProcessor(figure1)
        for text in ("//A[/B][/C]/$E", "/Root/A[/C]/$B"):
            query = parse_query(text)
            for use_path_ids in (True, False):
                result = system.execute(
                    text, options=ExecuteOptions(use_path_ids=use_path_ids)
                )
                assert result.matches == processor.matching_pres(query, use_path_ids)
                assert result.plan.observed_work == processor.last_semijoin_work

    def test_document_override_runs_other_tree(self, system, figure1):
        result = system.execute("//A/$B", document=figure1)
        query = parse_query("//A/$B")
        assert sorted(result.matches) == sorted(
            Evaluator(figure1).matching_pres(query, query.target)
        )

    def test_statistics_only_system_raises(self, figure1):
        from repro.persist import system_from_dict, system_to_dict

        stats_only = system_from_dict(
            system_to_dict(
                EstimationSystem.build(figure1, p_variance=0, o_variance=0)
            )
        )
        with pytest.raises(ExecutionUnsupportedError):
            stats_only.execute("//A/$B")
        # Planning needs only the synopsis, so explain still works.
        assert stats_only.explain("//A/$B").steps

    def test_explain_analyze_executes(self, system):
        plan = system.explain(
            "//A[/B][/C]", options=ExplainOptions(analyze=True)
        )
        assert plan.executed
        assert all(
            step.observed_in is not None
            for step in plan.steps
            if not step.skipped
        )

    def test_stale_statistics_show_in_observed_counts(self):
        from repro.xmltree.parser import parse_xml

        def doc(d_every):
            recs = "".join(
                "<Rec>%s<A/><B/></Rec>" % ("<D/>" if i % d_every == 0 else "")
                for i in range(60)
            )
            return parse_xml("<Root>%s</Root>" % recs)

        # Statistics say every Rec has a D; the executed tree has 1 in 20.
        optimistic = EstimationSystem.build(doc(1), p_variance=0, o_variance=0)
        sparse = doc(20)
        text = "/Root/Rec[D][A][B]"
        result = optimistic.execute(
            text, document=sparse, options=ExecuteOptions(use_path_ids=False)
        )
        d_step = result.plan.steps[0]
        assert d_step.partner_tag == "D"
        assert d_step.est_out == pytest.approx(60.0)
        assert d_step.observed_out == 3
        query = parse_query(text)
        assert sorted(result.matches) == sorted(
            Evaluator(sparse).matching_pres(query, query.target)
        )
