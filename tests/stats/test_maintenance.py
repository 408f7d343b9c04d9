"""Record appends through the delta path == rebuild from scratch.

A small library document gets top-level ``rec`` records appended as
scanned fragments (``IncrementalSynopsis``); every persisted table and
every estimate must equal a from-scratch build of the combined document.
"""

import pytest

from repro import persist
from repro.build.builder import build_synopsis
from repro.cluster.delta import IncrementalSynopsis

BASE = "<lib><rec><author/><title/></rec><rec><author/><author/><title/></rec></lib>"
QUERIES = ["//rec/$author", "//rec/$title", "/lib/$rec", "//rec[/author/folls::$title]"]


def combined(*records: str) -> str:
    return BASE[: -len("</lib>")] + "".join(records) + "</lib>"


def assert_equivalent_to_rebuild(system, text, queries=QUERIES) -> None:
    rebuilt = build_synopsis(text)
    ours = persist.system_to_dict(system)
    ours.pop("incremental")
    assert ours == persist.system_to_dict(rebuilt)
    for query in queries:
        assert system.estimate(query) == rebuilt.estimate(query), query


class TestAppendRecord:
    @pytest.fixture()
    def maintained(self):
        return IncrementalSynopsis.build(BASE)

    def test_append_known_shape(self, maintained):
        record = "<rec><author/><title/></rec>"
        outcome = maintained.apply(maintained.scan_fragment(record))
        assert outcome.refreshed
        assert outcome.elements_added == 3
        assert outcome.new_paths == 0
        assert_equivalent_to_rebuild(outcome.system, combined(record))

    def test_multiple_appends(self, maintained):
        records = ["<rec><author/><title/></rec>"] * 4
        for record in records:
            outcome = maintained.apply(maintained.scan_fragment(record))
        assert_equivalent_to_rebuild(outcome.system, combined(*records))

    def test_new_path_type_rejected_without_mutation(self, maintained):
        # The delta path absorbs a new root-to-leaf path type by widening
        # the bit layout instead of rejecting it; the served system before
        # the append is left as it was.
        served = maintained.system
        before = served.estimate("//rec/$isbn")
        record = "<rec><isbn/></rec>"
        outcome = maintained.apply(maintained.scan_fragment(record))
        assert outcome.new_paths == 1
        assert outcome.system is not served
        assert served.estimate("//rec/$isbn") == before == 0
        assert outcome.system.estimate("//rec/$isbn") == 1
        assert_equivalent_to_rebuild(
            outcome.system, combined(record), QUERIES + ["//rec/$isbn"]
        )
