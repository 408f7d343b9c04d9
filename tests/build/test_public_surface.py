"""The ``repro`` package surface: ``__all__``, the names removed in 2.0,
the error hierarchy and the single version number."""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import pytest

import repro
from repro.errors import (
    BuildError,
    ParseError,
    PersistError,
    QuerySyntaxError,
    ReproError,
    error_kind,
)


class TestAll:
    def test_all_is_the_documented_surface(self):
        # The names docs/API.md lists under "The `repro` surface".
        assert set(repro.__all__) == {
            "EstimateOptions",
            "EstimateResult",
            "EstimationSystem",
            "ExecuteOptions",
            "ExecutionResult",
            "ExplainOptions",
            "Plan",
            "SynopsisBuilder",
            "build_synopsis",
            "connect",
            "parse_xml",
            "parse_query",
            "ReproError",
            "ParseError",
            "QuerySyntaxError",
            "PersistError",
            "BuildError",
            "ObservabilityError",
            "__version__",
        }

    def test_all_names_resolve_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None

    def test_star_import_matches_all(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) - {"__version__"} <= set(namespace)


class TestRemovedNames:
    """The 1.x top-level names were removed in 2.0 (they live in their
    home modules, listed in docs/API.md)."""

    REMOVED = [
        "XmlDocument", "XmlNode", "Evaluator", "Query", "explain", "EstimateReport",
    ]

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_name_raises_attribute_error(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_dir_lists_no_removed_name(self):
        assert not set(self.REMOVED) & set(dir(repro))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestErrorHierarchy:
    def test_kinds(self):
        assert ReproError.kind == "error"
        assert ParseError.kind == "parse"
        assert QuerySyntaxError.kind == "query_syntax"
        assert PersistError.kind == "persist"
        assert BuildError.kind == "build"

    def test_subclass_relationships(self):
        for cls in (ParseError, QuerySyntaxError, PersistError, BuildError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_concrete_errors_join_the_hierarchy(self):
        from repro.persist import SynopsisLoadError
        from repro.xmltree.parser import XmlParseError
        from repro.xpath.parser import XPathSyntaxError

        assert issubclass(XmlParseError, ParseError)
        assert issubclass(XPathSyntaxError, QuerySyntaxError)
        assert issubclass(SynopsisLoadError, PersistError)

    def test_error_kind_helper(self):
        assert error_kind(BuildError("x")) == "build"
        assert error_kind(ValueError("x")) == "internal"

    def test_parse_and_query_errors_raised_through_public_api(self):
        with pytest.raises(ParseError):
            repro.parse_xml("<a><b></a>")
        with pytest.raises(QuerySyntaxError):
            repro.parse_query("//[[")


class TestVersion:
    """One version number: the package, pyproject.toml and setup.py
    agree (read with a regex: Python 3.9 has no tomllib)."""

    ROOT = Path(__file__).resolve().parents[2]

    @pytest.mark.parametrize(
        "filename, pattern",
        [
            ("pyproject.toml", r'^version\s*=\s*"([^"]+)"'),
            ("setup.py", r'^\s*version\s*=\s*"([^"]+)"'),
        ],
    )
    def test_declared_version_matches_package(self, filename, pattern):
        text = (self.ROOT / filename).read_text()
        match = re.search(pattern, text, re.MULTILINE)
        assert match is not None, "no version line in %s" % filename
        assert match.group(1) == repro.__version__
