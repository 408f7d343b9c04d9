"""The plan IR: step and plan wire shape."""

from __future__ import annotations

import json

from repro.plan.ir import PLAN_FORMAT_VERSION, Plan, PlanStep


def step(**overrides) -> PlanStep:
    base = dict(
        index=0, phase="up", axis="/", node_id=1, node_tag="A",
        partner_id=2, partner_tag="B",
        est_in=10.0, est_out=5.0, est_partner=5.0, est_cost=15.0,
    )
    base.update(overrides)
    return PlanStep(**base)


class TestPlanStep:
    def test_as_dict_adds_observed_fields_after_execution(self):
        planned = step().as_dict()
        assert "observed_in" not in planned
        executed = step(observed_in=10, observed_out=5, observed_partner=5).as_dict()
        assert executed["observed_out"] == 5
        assert executed["observed_partner"] == 5

    def test_root_step_has_no_partner(self):
        payload = step(phase="root", axis="root", partner_id=None, partner_tag=None).as_dict()
        assert "partner" not in payload


class TestPlanWire:
    def plan(self, **overrides) -> Plan:
        base = dict(
            query_text="//A/$B",
            steps=[step()],
            est_cost=15.0,
            est_cardinality=5.0,
        )
        base.update(overrides)
        return Plan(**base)

    def test_versioned_and_json_serializable(self):
        payload = self.plan().as_dict()
        assert payload["version"] == PLAN_FORMAT_VERSION == 2
        assert set(payload) == {
            "version", "query", "est_cost", "est_cardinality",
            "use_path_ids", "executed", "steps",
        }
        json.dumps(payload)  # wire-safe

    def test_execution_fields_only_when_executed(self):
        assert "observed_work" not in self.plan().as_dict()
        ran = self.plan(executed=True, observed_work=7, early_exit=0)
        payload = ran.as_dict()
        assert payload["observed_work"] == 7
        assert payload["early_exit"] == 0

    def test_render_lists_every_step(self):
        ran = self.plan(
            steps=[step(observed_in=10, observed_out=5), step(index=1, skipped=True)],
            executed=True,
        )
        lines = ran.render().splitlines()
        assert len(lines) == 4
        assert "obs 10 -> 5" in lines[1]
        assert lines[2].endswith("(skipped)")
