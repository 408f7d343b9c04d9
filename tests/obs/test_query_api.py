"""The public API: the unified estimate() verb with options objects,
EstimateResult, the removal of the old verbs, keyword-only tuning
arguments and the stable error-kind wire mapping."""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.core.options import EstimateOptions
from repro.core.result import RESULT_FORMAT_VERSION, EstimateResult
from repro.core.system import EstimationSystem

DETAIL = EstimateOptions(detail=True)
TRACED = EstimateOptions(trace=True)
from repro.errors import TRANSPORT_WIRE_KINDS, WIRE_KINDS, ReproError


@pytest.fixture(scope="module")
def system(figure1):
    return EstimationSystem.build(figure1, p_variance=0, o_variance=0)


def span_names(span, into=None):
    names = into if into is not None else []
    names.append(span["name"])
    for child in span.get("children", []):
        span_names(child, names)
    return names


class TestQueryApi:
    def test_detail_matches_estimate(self, system):
        for text in ("//A/$B", "//A[/B/folls::$C]"):
            result = system.estimate(text, options=DETAIL)
            assert isinstance(result, EstimateResult)
            assert result.value == system.estimate(text)
            assert float(result) == result.value  # float shim
            assert result.query == text
            assert result.elapsed_ms > 0.0
            assert result.trace is None  # tracing is opt-in

    def test_traced_query_names_the_pipeline(self, system):
        result = system.estimate("//A/$B", options=TRACED)
        assert result.trace is not None
        names = span_names(result.trace["root"])
        for expected in ("parse", "plan", "join", "pathid-match", "p-hist lookup"):
            assert expected in names, names
        assert result.trace_id == result.trace["trace_id"]

    def test_traced_order_query_reads_o_histograms(self, system):
        result = system.estimate("//A[/B/folls::$C]", options=TRACED)
        names = span_names(result.trace["root"])
        assert "o-hist lookup" in names, names
        # Counters survive serialization.
        def find(span, name):
            if span["name"] == name:
                return span
            for child in span.get("children", []):
                hit = find(child, name)
                if hit is not None:
                    return hit
            return None

        lookup = find(result.trace["root"], "p-hist lookup")
        assert lookup["counters"]["cells_read"] > 0

    def test_traced_and_untraced_agree(self, system):
        text = "//A[/B/folls::$C]"
        assert system.estimate(text, options=TRACED).value == system.estimate(text)

    def test_result_wire_roundtrip(self, system):
        result = system.estimate("//A/$B", options=TRACED)
        payload = result.as_dict()
        assert payload["version"] == RESULT_FORMAT_VERSION
        rebuilt = EstimateResult.from_dict(payload)
        assert rebuilt.value == result.value
        assert rebuilt.trace == result.trace

    def test_estimate_result_is_exported(self):
        assert repro.EstimateResult is EstimateResult


class TestUnifiedVerb:
    """estimate() is polymorphic: scalar, batch, detail, trace."""

    def test_scalar_is_float(self, system):
        value = system.estimate("//A/$B")
        assert isinstance(value, float)

    def test_batch_is_list_in_order(self, system):
        texts = ["//A/$B", "//A/$C", "//A/$B"]
        values = system.estimate(texts)
        assert values == [system.estimate(t) for t in texts]

    def test_detail_returns_result(self, system):
        result = system.estimate("//A/$B", options=DETAIL)
        assert isinstance(result, EstimateResult)
        assert result.trace is None

    def test_option_objects_are_exported(self):
        assert repro.EstimateOptions is EstimateOptions
        from repro.core.options import ExecuteOptions, ExplainOptions

        assert repro.ExecuteOptions is ExecuteOptions
        assert repro.ExplainOptions is ExplainOptions


class TestDeprecatedVerbs:
    """The collapsed verbs served their deprecation cycle and are gone;
    estimate() alone covers them."""

    @pytest.mark.parametrize("name", ["query", "estimate_batch", "estimate_routed"])
    def test_removed_verb_is_gone(self, system, name):
        assert not hasattr(system, name)

    def test_new_surface_stays_silent(self, system):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            system.estimate("//A/$B")
            system.estimate(["//A/$B"])
            system.estimate("//A/$B", options=TRACED)
            system.explain("//A/$B")
            system.execute("//A/$B")


class TestKeywordOnlyShims:
    """Tuning arguments are keyword-only: a positional one is a
    TypeError."""

    def test_build_rejects_positional_tuning(self, figure1):
        with pytest.raises(TypeError):
            EstimationSystem.build(figure1, 0.0, 0.0)

    def test_build_synopsis_rejects_positional_tuning(self, figure1):
        with pytest.raises(TypeError):
            repro.build_synopsis(figure1, 0.0)

    def test_synopsis_builder_rejects_positional_tuning(self):
        with pytest.raises(TypeError):
            repro.SynopsisBuilder(0.25)

    def test_client_rejects_positional_tuning(self):
        from repro.service import EndpointClient

        with pytest.raises(TypeError):
            EndpointClient("127.0.0.1", 9999)

    def test_estimate_rejects_positional_switches(self, system):
        with pytest.raises(TypeError):
            system.estimate("//A/$B", False)

    def test_keyword_calls_stay_silent(self, figure1):
        from repro.service import EndpointClient

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EstimationSystem.build(figure1, p_variance=0.0)
            repro.SynopsisBuilder(p_variance=0.0)
            EndpointClient(host="127.0.0.1", port=9999)

    def test_service_client_name_is_gone(self):
        import repro.service

        assert not hasattr(repro.service, "ServiceClient")
        assert "ServiceClient" not in repro.service.__all__

    def test_positional_overflow_raises_type_error(self, figure1):
        with pytest.raises(TypeError):
            EstimationSystem.build(figure1, 0.0, 0.0, True, True, True, 1, "extra")

    def test_client_config_drives_defaults(self):
        from repro.service import ClientConfig, EndpointClient

        client = EndpointClient(config=ClientConfig(port=1234, timeout=1.5))
        assert (client.port, client.timeout) == (1234, 1.5)
        # Explicit keywords beat the config.
        client = EndpointClient(port=9, config=ClientConfig(port=1234))
        assert client.port == 9

    def test_server_config_validates(self):
        from repro.service import ServerConfig

        with pytest.raises(ValueError):
            ServerConfig(trace_sample_rate=1.5)
        assert ServerConfig().as_dict()["port"] == 8750


class TestWireKinds:
    def test_every_class_maps_one_to_one(self):
        assert WIRE_KINDS  # lazily built, importable
        for kind, cls in WIRE_KINDS.items():
            assert issubclass(cls, ReproError)
            assert cls.kind == kind

    def test_known_kinds_are_stable(self):
        # Renaming any of these breaks deployed clients: the set may
        # grow, never shrink or change.
        assert {
            "error", "parse", "query_syntax", "persist", "build",
            "reliability", "obs", "unsupported_query", "deadline_exceeded",
            "circuit_open", "overloaded", "unknown_synopsis",
        } <= set(WIRE_KINDS)

    def test_transport_kinds_do_not_collide(self):
        assert not TRANSPORT_WIRE_KINDS & set(WIRE_KINDS)

    def test_explain_still_matches_query(self, system):
        from repro.core.explain import explain

        report = explain(system, "//A/$B")
        assert report.estimate == system.estimate("//A/$B")
        # The docstring points migrating users at the traced estimate API.
        assert "EstimateOptions(trace=True)" in explain.__doc__
