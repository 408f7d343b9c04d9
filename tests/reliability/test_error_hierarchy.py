"""ReproError hierarchy: stable ``kind`` slugs at every public raise site."""

from __future__ import annotations

import pytest

import repro
from repro.build.builder import ShardScanError, build_synopsis
from repro.errors import (
    BuildError,
    ParseError,
    PersistError,
    QuerySyntaxError,
    ReliabilityError,
    ReproError,
    error_kind,
)
from repro.persist import SnapshotCorruptError, SynopsisLoadError
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceededError,
    AdmissionGate,
    OverloadedError,
)
from repro.xmltree.parser import XmlParseError
from repro.xpath.parser import XPathSyntaxError

#: Every public exception family and its documented, never-renamed slug.
DOCUMENTED_KINDS = {
    ReproError: "error",
    ParseError: "parse",
    QuerySyntaxError: "query_syntax",
    PersistError: "persist",
    BuildError: "build",
    ReliabilityError: "reliability",
    DeadlineExceededError: "deadline_exceeded",
    CircuitOpenError: "circuit_open",
    OverloadedError: "overloaded",
}


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type,slug", sorted(DOCUMENTED_KINDS.items(), key=lambda kv: kv[1])
    )
    def test_documented_kind_slug(self, exc_type, slug):
        assert exc_type.kind == slug
        assert issubclass(exc_type, ReproError)

    def test_concrete_classes_inherit_family_slugs(self):
        assert XmlParseError.kind == "parse"
        assert XPathSyntaxError.kind == "query_syntax"
        assert SynopsisLoadError.kind == "persist"
        assert SnapshotCorruptError.kind == "persist"
        assert ShardScanError.kind == "build"

    def test_value_error_compat_for_legacy_families(self):
        # The pre-hierarchy families stay catchable as ValueError.
        for exc_type in (ParseError, QuerySyntaxError, PersistError, BuildError):
            assert issubclass(exc_type, ValueError)
        # The reliability family models runtime conditions instead.
        assert issubclass(ReliabilityError, RuntimeError)
        assert not issubclass(ReliabilityError, ValueError)

    def test_error_kind_helper(self):
        assert error_kind(BuildError("x")) == "build"
        assert error_kind(DeadlineExceededError("x")) == "deadline_exceeded"
        assert error_kind(KeyError("x")) == "internal"


class TestRaiseSitesCarryKinds:
    """The actual raise sites, one per family, checked end to end."""

    def test_xml_parse_site(self):
        with pytest.raises(ReproError) as info:
            build_synopsis("<R><A></R>")
        assert info.value.kind == "parse"

    def test_query_syntax_site(self, figure1_system):
        with pytest.raises(ReproError) as info:
            figure1_system.estimate("A[[")
        assert info.value.kind == "query_syntax"

    def test_persist_site(self):
        with pytest.raises(ReproError) as info:
            repro.persist.loads("{torn")
        assert info.value.kind == "persist"

    def test_build_site(self):
        with pytest.raises(ReproError) as info:
            build_synopsis("not xml and not a file")
        assert info.value.kind == "build"

    def test_deadline_site(self):
        clock = iter([0.0, 10.0, 20.0]).__next__
        with pytest.raises(ReproError) as info:
            Deadline.after(1.0, clock).check()
        assert info.value.kind == "deadline_exceeded"

    def test_circuit_site(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        with pytest.raises(ReproError) as info:
            breaker.check()
        assert info.value.kind == "circuit_open"

    def test_overload_site(self):
        gate = AdmissionGate(max_inflight=1)
        gate.enter()
        with pytest.raises(ReproError) as info:
            gate.enter()
        assert info.value.kind == "overloaded"

    def test_one_except_clause_catches_everything(self, figure1_system):
        # The embedder's contract: one `except ReproError` at the
        # boundary sees every intentional failure.
        caught = []
        for trigger in (
            lambda: build_synopsis("<R><A></R>"),
            lambda: figure1_system.estimate("]["),
            lambda: repro.persist.loads("{torn"),
            lambda: Deadline(0.0, lambda: 1.0).check(),
        ):
            try:
                trigger()
            except ReproError as error:
                caught.append(error.kind)
        assert caught == ["parse", "query_syntax", "persist", "deadline_exceeded"]


class TestDeprecationShims:
    """The PEP 562 shims are gone: an unknown top-level name is a plain
    AttributeError, never a warning (the old names are covered in
    tests/build/test_public_surface.py)."""

    def test_unknown_name_is_attribute_error_not_warning(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_symbol
