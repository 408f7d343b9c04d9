"""Incremental maintenance: delta apply correctness and edge cases.

The load-bearing property is **bit-identity**: a base build plus any
sequence of applied deltas must estimate exactly like a from-scratch
build of the combined document — same tables, same histograms, same
floats.  Everything else (drift deferral, concurrency, persistence)
preserves that property under operational pressure.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import persist
from repro.build.builder import build_synopsis
from repro.build.stream import PartialSynopsis
from repro.cluster.delta import (
    DeltaError,
    DeltaUnsupportedError,
    IncrementalSynopsis,
)
from repro.datasets import generate_dblp
from repro.xmltree.serializer import serialize

BASE_BODY = "".join(
    "<A><B/><C><D/></C></A>" if i % 2 else "<A><B/><B/></A>" for i in range(24)
)
DELTA_BODY = "".join(
    "<A><C><D/><D/></C></A>" if i % 3 else "<A><B/><C/></A>" for i in range(9)
)
QUERIES = [
    "//A/$B",
    "//A/$C",
    "//A/C/$D",
    "/Root/$A",
    "//A[/B/folls::$C]",
    "//A[/C]/$B",
]


def doc(body: str) -> str:
    return "<Root>" + body + "</Root>"


def assert_same_as_rebuild(system, combined_text, queries):
    """Every persisted table and every estimate equals a from-scratch
    build of the combined document."""
    rebuilt = build_synopsis(combined_text)
    ours = persist.system_to_dict(system)
    ours.pop("incremental")
    assert ours == persist.system_to_dict(rebuilt)
    for query in queries:
        assert system.estimate(query) == rebuilt.estimate(query), query


@pytest.fixture()
def incremental():
    return IncrementalSynopsis.build(doc(BASE_BODY), name="inc")


class TestBitIdentity:
    def test_apply_matches_combined_build(self, incremental):
        partial = incremental.scan_fragment(DELTA_BODY)
        outcome = incremental.apply(partial)
        assert outcome.refreshed
        assert_same_as_rebuild(outcome.system, doc(BASE_BODY + DELTA_BODY), QUERIES)

    def test_sequential_deltas_accumulate(self, incremental):
        chunks = ["<A><B/></A>", "<A><C><D/></C><B/></A>", "<A><B/><B/><C/></A>"]
        for chunk in chunks:
            outcome = incremental.apply(incremental.scan_fragment(chunk))
        assert_same_as_rebuild(outcome.system, doc(BASE_BODY + "".join(chunks)), QUERIES)

    def test_new_tag_delta_remaps_encodings(self, incremental):
        """A delta introducing brand-new paths shifts every existing
        encoding (appended paths claim the high bits); the shifted tables
        must still agree with a from-scratch build."""
        fragment = "<A><E><F/></E></A><A><E/></A>"
        outcome = incremental.apply(incremental.scan_fragment(fragment))
        assert outcome.new_paths >= 2
        assert_same_as_rebuild(
            outcome.system,
            doc(BASE_BODY + fragment),
            QUERIES + ["//A/$E", "//A/E/$F", "//A[/E]/$B"],
        )

    def test_empty_delta_is_a_noop(self, incremental):
        before = incremental.system
        empty = PartialSynopsis([], {}, {}, [], 0)
        outcome = incremental.apply(empty)
        assert not outcome.refreshed
        assert outcome.elements_added == 0
        assert incremental.system is before

    def test_system_apply_delta_entry_point(self, incremental):
        partial = incremental.scan_fragment("<A><B/></A>")
        outcome = incremental.system.apply_delta(partial)
        assert outcome.refreshed
        assert outcome.system.incremental is incremental

    def test_plain_system_rejects_deltas(self, incremental):
        plain = build_synopsis(doc(BASE_BODY))
        partial = incremental.scan_fragment("<A><B/></A>")
        with pytest.raises(DeltaUnsupportedError):
            plain.apply_delta(partial)

    def test_whole_document_partial_rejected(self, incremental):
        # top=None marks a whole-document scan; only fragment scans
        # (appended subtrees under the root prefix) merge exactly.
        partial = PartialSynopsis([], {}, {}, None, 3)
        with pytest.raises(DeltaError):
            incremental.apply(partial)


class TestDriftDeferral:
    def test_small_delta_defers_below_threshold(self):
        inc = IncrementalSynopsis.build(
            doc(BASE_BODY), name="drift", drift_threshold=0.5
        )
        served = inc.system
        outcome = inc.apply(inc.scan_fragment("<A><B/></A>"))
        # 3 elements on ~80 is way below 50% drift: the old complete
        # system keeps serving (stale, never torn).
        assert not outcome.refreshed
        assert outcome.system is served
        assert inc.stale
        assert 0.0 < inc.drift() < 0.5

    def test_drift_past_threshold_refreshes(self):
        inc = IncrementalSynopsis.build(
            doc(BASE_BODY), name="drift", drift_threshold=0.05
        )
        outcome = inc.apply(inc.scan_fragment(DELTA_BODY))
        assert outcome.refreshed
        assert not inc.stale
        combined = build_synopsis(doc(BASE_BODY + DELTA_BODY))
        for query in QUERIES:
            assert outcome.system.estimate(query) == combined.estimate(query), query

    def test_deferred_mass_survives_into_refresh(self):
        """Deltas absorbed below the threshold are not lost: the next
        refresh folds every deferred delta in."""
        inc = IncrementalSynopsis.build(
            doc(BASE_BODY), name="drift", drift_threshold=0.9
        )
        inc.apply(inc.scan_fragment("<A><B/></A>"))
        inc.apply(inc.scan_fragment("<A><C/></A>"))
        outcome = inc.apply(inc.scan_fragment("<A><B/><C/></A>"), force_refresh=True)
        assert outcome.refreshed
        combined = build_synopsis(
            doc(BASE_BODY + "<A><B/></A>" + "<A><C/></A>" + "<A><B/><C/></A>")
        )
        for query in QUERIES:
            assert outcome.system.estimate(query) == combined.estimate(query), query

    def test_new_paths_always_refresh(self):
        """An encoding remap cannot be deferred: a new path shifts every
        pid, so the served system must swap regardless of drift."""
        inc = IncrementalSynopsis.build(
            doc(BASE_BODY), name="drift", drift_threshold=0.99
        )
        outcome = inc.apply(inc.scan_fragment("<A><Znew/></A>"))
        assert outcome.refreshed
        assert outcome.new_paths == 1


class TestConcurrentReaders:
    def test_readers_see_old_or_new_never_torn(self, incremental):
        """Estimates racing a delta apply must equal the pre-delta or the
        post-delta value — any other float means a reader saw a half
        merged synopsis."""
        query = "//A/$B"
        before = incremental.system.estimate(query)
        fragment = "<A><B/><B/><B/></A>" * 4
        after_expected = build_synopsis(doc(BASE_BODY + fragment)).estimate(query)
        seen = set()
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    seen.add(incremental.system.estimate(query))
                except Exception as error:  # pragma: no cover - the assertion
                    failures.append(error)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        outcome = incremental.apply(incremental.scan_fragment(fragment))
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        assert outcome.system.estimate(query) == after_expected
        assert seen <= {before, after_expected}


class TestPersistence:
    def test_incremental_state_round_trips(self, incremental):
        blob = persist.dumps(incremental.system)
        loaded = persist.loads(blob)
        assert loaded.incremental is not None
        outcome = loaded.apply_delta(loaded.incremental.scan_fragment(DELTA_BODY))
        combined = build_synopsis(doc(BASE_BODY + DELTA_BODY))
        for query in QUERIES:
            assert outcome.system.estimate(query) == combined.estimate(query), query

    def test_plain_snapshot_loads_without_incremental(self):
        plain = build_synopsis(doc(BASE_BODY))
        loaded = persist.loads(persist.dumps(plain))
        assert loaded.incremental is None

    def test_loaded_estimates_match_before_any_delta(self, incremental):
        loaded = persist.loads(persist.dumps(incremental.system))
        for query in QUERIES:
            assert loaded.estimate(query) == incremental.system.estimate(query)

    def test_malformed_incremental_section_rejected(self, incremental):
        payload = persist.system_to_dict(incremental.system)
        payload["incremental"]["paths"] = "not-a-list"
        with pytest.raises(persist.SynopsisLoadError):
            persist.incremental_from_dict(payload["incremental"])


DBLP_QUERIES = [
    "//dblp/article/$author",
    "//inproceedings/$title",
    "//article[/month]/$author",
    "/dblp/$article",
    "//article[/author/folls::$title]",
]


class TestOnDataset:
    """Randomized record appends on a generated DBLP-like corpus."""

    @staticmethod
    def _corpus():
        document = generate_dblp(scale=0.01, seed=5)
        records = [serialize(node) for node in document.root.children]
        return serialize(document), records

    def test_randomized_appends_match_rebuild(self):
        text, records = self._corpus()
        inc = IncrementalSynopsis.build(text)
        rng = random.Random(3)
        appended = [rng.choice(records) for _ in range(5)]
        for record in appended:
            outcome = inc.apply(inc.scan_fragment(record))
        combined = text[: -len("</dblp>")] + "".join(appended) + "</dblp>"
        assert_same_as_rebuild(outcome.system, combined, DBLP_QUERIES)

    def test_estimates_reflect_appends(self):
        text, records = self._corpus()
        inc = IncrementalSynopsis.build(text)
        before = inc.system.estimate("//dblp/article/$author")
        article = next(record for record in records if record.startswith("<article"))
        outcome = inc.apply(inc.scan_fragment(article))
        assert outcome.system.estimate("//dblp/article/$author") > before
