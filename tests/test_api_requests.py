"""The request/response surface: round-trips, validation, execution.

``RouteRequest``/``RouteResponse`` are the wire format of the serving
layer (docs/api.md): ``from_dict(to_dict())`` must be *exact* — property
tested with hypothesis, not spot-checked — and the envelope is strict
(kind, schema_version, no unknown fields).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.api import (
    REQUEST_SCHEMA_VERSION,
    ArtifactCache,
    RouteRequest,
    RouteResponse,
    RouterConfig,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)

_configs = st.one_of(
    st.none(),
    st.builds(
        RouterConfig,
        mu_shared=st.floats(0.01, 1.0),
        lr_max_iterations=st.integers(1, 16),
        history_increment=st.floats(0.0, 2.0),
    ),
)

_case_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8), st.integers(), max_size=3
)


@st.composite
def route_requests(draw):
    source = draw(st.sampled_from(["case", "contest_case", "case_file", "resume_from"]))
    kwargs = {
        "config": draw(_configs),
        "epoch": draw(st.integers(0, 5)),
        "priority": draw(st.integers(-3, 7)),
        "slo_seconds": draw(st.one_of(st.none(), st.floats(0.0, 60.0))),
        "warm_cache": draw(st.booleans()),
        "checkpoint_dir": draw(st.one_of(st.none(), st.just("/tmp/ckpts"))),
        "return_solution": draw(st.booleans()),
        "tag": draw(st.text(max_size=12)),
    }
    if source == "case":
        kwargs["case"] = draw(_case_dicts)
    elif source == "contest_case":
        kwargs["contest_case"] = draw(st.sampled_from(["case02", "case05"]))
    elif source == "case_file":
        kwargs["case_file"] = draw(st.just("cases/case02.txt"))
    else:
        kwargs["resume_from"] = draw(st.just("runs/ckpt_0001_phase1-done.json"))
    return RouteRequest(**kwargs)


_responses = st.builds(
    RouteResponse,
    status=st.sampled_from(["ok", "degraded", "failed"]),
    tag=st.text(max_size=12),
    critical_delay=st.one_of(st.none(), _finite),
    conflict_count=st.one_of(st.none(), st.integers(0, 100)),
    is_legal=st.one_of(st.none(), st.booleans()),
    fingerprint=st.one_of(st.none(), st.text(min_size=4, max_size=16)),
    wall_seconds=st.floats(0.0, 1e6),
    queue_seconds=st.floats(0.0, 1e6),
    preemptions=st.integers(0, 9),
    cache=st.dictionaries(st.sampled_from(["artifacts"]), st.sampled_from(["hit", "miss", "off"])),
    error=st.one_of(st.none(), st.text(max_size=20)),
)


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(request=route_requests())
    def test_request_round_trip_is_exact(self, request):
        doc = json.loads(json.dumps(request.to_dict()))
        assert RouteRequest.from_dict(doc) == request

    @settings(max_examples=150, deadline=None)
    @given(response=_responses)
    def test_response_round_trip_is_exact(self, response):
        doc = json.loads(json.dumps(response.to_dict()))
        assert RouteResponse.from_dict(doc) == response

    def test_envelope_fields_are_present(self):
        doc = RouteRequest(contest_case="case02").to_dict()
        assert doc["kind"] == "repro.route_request"
        assert doc["schema_version"] == REQUEST_SCHEMA_VERSION


class TestRequestValidation:
    def test_no_case_source_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            RouteRequest()

    def test_two_case_sources_rejected(self):
        with pytest.raises(ValueError, match="exactly one"):
            RouteRequest(contest_case="case02", case_file="x.txt")

    def test_case_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            RouteRequest(case=[1, 2, 3])

    def test_config_mapping_is_normalized(self):
        request = RouteRequest(
            contest_case="case02", config={"lr_max_iterations": 4}
        )
        assert isinstance(request.config, RouterConfig)
        assert request.config.lr_max_iterations == 4

    def test_bad_config_type_rejected(self):
        with pytest.raises(ValueError, match="config"):
            RouteRequest(contest_case="case02", config=3.14)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            RouteRequest(contest_case="case02", epoch=-1)

    def test_negative_slo_rejected(self):
        with pytest.raises(ValueError, match="slo"):
            RouteRequest(contest_case="case02", slo_seconds=-0.5)

    def test_nan_slo_rejected(self):
        """A NaN SLO would become a budget that never fires."""
        with pytest.raises(ValueError, match="slo"):
            RouteRequest(contest_case="case02", slo_seconds=float("nan"))
        doc = RouteRequest(contest_case="case02").to_dict()
        doc["slo_seconds"] = float("nan")
        with pytest.raises(ValueError, match="slo"):
            RouteRequest.from_dict(doc)

    def test_unknown_fields_rejected(self):
        doc = RouteRequest(contest_case="case02").to_dict()
        doc["frobnicate"] = True
        with pytest.raises(ValueError, match="unknown RouteRequest fields"):
            RouteRequest.from_dict(doc)

    def test_wrong_kind_rejected(self):
        doc = RouteRequest(contest_case="case02").to_dict()
        doc["kind"] = "repro.route_response"
        with pytest.raises(ValueError, match="kind"):
            RouteRequest.from_dict(doc)

    def test_wrong_schema_version_rejected(self):
        doc = RouteRequest(contest_case="case02").to_dict()
        doc["schema_version"] = REQUEST_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            RouteRequest.from_dict(doc)

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError, match="status"):
            RouteResponse(status="meh")


# ----------------------------------------------------------------------
# Execution semantics
# ----------------------------------------------------------------------
class TestRouteRequestExecution:
    def test_failure_folds_into_the_response(self, tmp_path):
        request = RouteRequest(case_file=str(tmp_path / "missing.txt"))
        response = api.route_request(request)
        assert response.status == "failed"
        assert response.error and "missing.txt" in response.error
        assert response.fingerprint is None

    def test_case_file_holding_a_list_fails_as_a_format_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[]")
        response = api.route_request(RouteRequest(case_file=str(path)))
        assert response.status == "failed"
        assert response.error.startswith("JsonFormatError")

    def test_execute_request_raises_instead(self, tmp_path):
        request = RouteRequest(case_file=str(tmp_path / "missing.txt"))
        with pytest.raises(FileNotFoundError):
            api.execute_request(request)

    def test_slo_degrades_instead_of_failing(self):
        response = api.route_request(
            RouteRequest(
                contest_case="case02", slo_seconds=0.0, warm_cache=False
            )
        )
        assert response.status == "degraded"
        assert response.is_legal

    def test_canonical_resume_matches_origin(self, tmp_path):
        origin = api.route_request(
            RouteRequest(contest_case="case02", checkpoint_dir=str(tmp_path))
        )
        resumed = api.route_request(RouteRequest(resume_from=str(tmp_path)))
        assert resumed.status == "ok"
        assert resumed.fingerprint == origin.fingerprint

    def test_legacy_and_canonical_paths_agree(self):
        """The router called directly, as before requests existed, and
        a request for the same case give the same solution."""
        from repro.benchgen import load_case
        from repro.timing import DelayModel

        case = load_case("case02")
        legacy = api.SynergisticRouter(case.system, case.netlist).route()
        canonical = api.route_request(RouteRequest(contest_case="case02"))
        fingerprint = api.solution_fingerprint(legacy.solution, DelayModel())
        assert fingerprint == canonical.fingerprint


class TestEvaluateCaching:
    def test_evaluators_come_from_the_cache(self):
        cache = ArtifactCache()
        request = RouteRequest(contest_case="case02")
        result = api.execute_request(request, cache=cache)
        first = api.evaluate(request, solution=result.solution, cache=cache)
        hits_before = cache.stats.hits
        second = api.evaluate(request, solution=result.solution, cache=cache)
        assert cache.stats.hits > hits_before
        assert any(key.startswith("eval:") for key in cache.keys())
        assert first.is_legal == second.is_legal
        assert first.critical_delay == second.critical_delay


class TestEvaluateUnassigned:
    def test_missing_wire_leaves_the_delay_unknown(self):
        """A TDM use without a wire is a DRC violation, not a KeyError."""
        from repro.io.json_format import solution_to_dict

        request = RouteRequest(contest_case="case02", warm_cache=False)
        doc = solution_to_dict(api.execute_request(request).solution)
        doc["wires"] = doc["wires"][1:]
        evaluation = api.evaluate(request, solution=doc)
        assert not evaluation.is_legal
        assert evaluation.critical_delay is None
        assert evaluation.unrouted == []
        assert any("has no wire" in v for v in evaluation.violations)


class TestCaseDigest:
    """An inline case is digested only when a cache will be consulted."""

    @pytest.fixture
    def case_request(self):
        from repro.benchgen import load_case
        from repro.io.json_format import case_to_dict
        from repro.timing import DelayModel

        case = load_case("case02")
        return RouteRequest(
            case=case_to_dict(case.system, case.netlist, DelayModel()),
            warm_cache=False,
        )

    @pytest.fixture
    def digests(self, monkeypatch):
        import hashlib
        from types import SimpleNamespace

        calls = []

        def sha256(data):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(api, "hashlib", SimpleNamespace(sha256=sha256))
        return calls

    def test_cold_request_computes_no_digest(self, case_request, digests):
        response = api.route_request(case_request)
        assert response.status == "ok"
        assert digests == []

    def test_cache_key_is_unchanged(self, case_request, digests):
        import hashlib

        cache = ArtifactCache()
        first = api.resolve_case(case_request, cache=cache)
        second = api.resolve_case(case_request, cache=cache)
        payload = json.dumps(case_request.case, sort_keys=True).encode("utf-8")
        assert digests == [payload, payload]
        assert cache.keys() == [f"case:dict:{hashlib.sha256(payload).hexdigest()}"]
        assert second is first
