"""Plans keep the authored edge order and preserve query semantics.

``explain()`` lists the semijoin steps in the order the query was
written; ``execute()`` runs exactly those steps and returns the
reference evaluator's matches, including on order queries.
"""

import pytest

from repro.core.options import ExecuteOptions
from repro.core.system import EstimationSystem
from repro.workload import WorkloadGenerator
from repro.xmltree.builder import el
from repro.xmltree.document import XmlDocument
from repro.xpath import Evaluator, parse_query


@pytest.fixture(scope="module")
def skewed_doc():
    """Records where one field is rare and another ubiquitous."""
    root = el("lib")
    for index in range(60):
        record = el("rec", el("common"))
        if index % 20 == 0:
            record.append(el("rare"))
        root.append(record)
    return XmlDocument(root)


@pytest.fixture(scope="module")
def system(skewed_doc):
    return EstimationSystem.build(skewed_doc, p_variance=0)


def up_partners(plan):
    return [step.partner_tag for step in plan.steps if step.phase == "up"]


class TestSemanticsPreserved:
    def test_same_matches_on_crafted_doc(self, skewed_doc, system):
        query = parse_query("//rec[/common][/rare]")
        expected = Evaluator(skewed_doc).matching_pres(query, query.target)
        for use_path_ids in (True, False):
            result = system.execute(
                query, options=ExecuteOptions(use_path_ids=use_path_ids)
            )
            assert set(result.matches) == expected

    def test_same_matches_on_workload(self, ssplays_small):
        system = EstimationSystem.build(ssplays_small, p_variance=0)
        items = WorkloadGenerator(ssplays_small, seed=37).branch_queries(60)
        for item in items[:30]:
            assert system.execute(item.query).match_count == item.actual

    def test_target_preserved(self, skewed_doc, system):
        query = parse_query("//rec[/$common][/rare]")
        result = system.execute(query)
        assert result.matches
        assert all(
            skewed_doc.node_at(pre).tag == "common" for pre in result.matches
        )

    def test_order_queries_plannable(self, ssplays_small):
        system = EstimationSystem.build(ssplays_small, p_variance=0)
        branch_items, _ = WorkloadGenerator(ssplays_small, seed=37).order_queries(40)
        for item in branch_items[:10]:
            assert system.explain(item.query).steps
            assert system.execute(item.query).match_count == item.actual


class TestOrdering:
    def test_already_ordered_untouched(self, system):
        plan = system.explain("//rec[/rare][/common]")
        assert up_partners(plan) == ["rare", "common"]

    def test_unselective_branch_stays_first(self, system):
        plan = system.explain("//rec[/common][/rare]")
        assert up_partners(plan) == ["common", "rare"]

    def test_single_edge_nodes_stable(self, system):
        plan = system.explain("//rec/common")
        assert [(step.phase, step.node_tag) for step in plan.steps] == [
            ("up", "rec"), ("down", "common"),
        ]
