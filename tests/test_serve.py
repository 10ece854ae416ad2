"""Routing-as-a-service: concurrency, warm caches, preemption, chaos.

The service's one non-negotiable (docs/serving.md): *nothing it does —
concurrency, cache sharing, eviction, preemption, a failed neighbour — may
change a single byte of any solution*.  Every test here closes the loop
against sequential cold-run fingerprints.
"""

from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.serve.service as service_module
from repro.api import (
    ArtifactCache,
    CheckpointManager,
    FaultInjectingTracer,
    FaultPlan,
    FaultSpec,
    RouteRequest,
    route_request,
)
from repro.io import read_checkpoint
from repro.obs import (
    InMemorySink,
    Tracer,
    assert_valid_run_report,
    build_run_report,
    validate_run_report,
)
from repro.serve import LoadSpec, RoutingService, build_requests, run_load


@pytest.fixture(scope="module")
def cold_fingerprints():
    """Sequential, cache-less oracle runs — the bit-identity reference."""
    out = {}
    for case in ("case02", "case05"):
        response = route_request(RouteRequest(contest_case=case, warm_cache=False))
        assert response.status == "ok"
        out[case] = response.fingerprint
    return out


# ----------------------------------------------------------------------
# Concurrency == sequential
# ----------------------------------------------------------------------
class TestConcurrentBitIdentity:
    def test_identical_concurrent_requests_match_sequential(self, cold_fingerprints):
        requests = [
            RouteRequest(contest_case="case02", tag=f"r{i}") for i in range(4)
        ]
        with RoutingService(workers=3) as service:
            responses = service.route(requests)
        assert [r.status for r in responses] == ["ok"] * 4
        assert {r.fingerprint for r in responses} == {cold_fingerprints["case02"]}
        # All but the cache-priming request rode the warm path.
        assert sum(1 for r in responses if r.cache.get("artifacts") == "hit") >= 1

    def test_mixed_load_end_to_end(self):
        report = run_load(
            LoadSpec(cases=("case02", "case05"), requests=6, concurrency=2, seed=11)
        )
        assert report.failed == 0
        assert not report.fingerprint_mismatches
        assert report.fingerprint_matches == report.ok == 6
        assert report.cache_hits > 0
        assert report.requests_per_second > 0

    def test_load_spec_is_deterministic(self):
        spec = LoadSpec(cases=("case02", "case05"), requests=10, seed=3)
        assert build_requests(spec) == build_requests(spec)

    def test_load_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(cases=())
        with pytest.raises(ValueError):
            LoadSpec(requests=0)


class TestTracing:
    def test_concurrent_requests_trace_like_solo_runs(self):
        """Two requests in flight on the service's one tracer record the
        same span tree, (name, parent) pair for pair, as two solo runs."""

        def span_pairs(batches):
            sink = InMemorySink()
            with RoutingService(tracer=Tracer(sink)) as service:
                for batch in batches:
                    responses = service.route(batch)
                    assert [r.status for r in responses] == ["ok"] * len(batch)
            return Counter((e["name"], e["parent"]) for e in sink.of_type("span"))

        request = RouteRequest(contest_case="case05", warm_cache=False)
        solo = span_pairs([[request], [request]])
        assert span_pairs([[request, request]]) == solo


# ----------------------------------------------------------------------
# Eviction under pressure
# ----------------------------------------------------------------------
class TestCacheEviction:
    def test_tight_bound_evicts_but_stays_correct(self, cold_fingerprints):
        cache = ArtifactCache(max_entries=1)
        mix = ["case02", "case05", "case02", "case05"]
        with RoutingService(workers=1, cache=cache) as service:
            responses = service.route(
                [RouteRequest(contest_case=c, tag=f"{i}:{c}") for i, c in enumerate(mix)]
            )
        for response, case in zip(responses, mix):
            assert response.status == "ok"
            assert response.fingerprint == cold_fingerprints[case]
        assert cache.stats.evictions > 0
        assert len(cache) <= 1


# ----------------------------------------------------------------------
# Preemption
# ----------------------------------------------------------------------
class TestPreemption:
    def test_preempt_then_resume_matches_uninterrupted(self, cold_fingerprints):
        with RoutingService(workers=1) as service:
            low = service.submit(
                RouteRequest(contest_case="case05", tag="low", priority=0)
            )
            time.sleep(0.05)  # let the victim reach routing
            high = service.submit(
                RouteRequest(contest_case="case02", tag="high", priority=5)
            )
            high_response = service.result(high, timeout=120)
            low_response = service.result(low, timeout=120)
            section = service.serve_section()
        assert high_response.status == "ok"
        assert high_response.fingerprint == cold_fingerprints["case02"]
        assert low_response.status == "ok"
        assert low_response.preemptions >= 1
        assert low_response.fingerprint == cold_fingerprints["case05"]
        assert section["preemptions"] >= 1
        assert section["requeues"] >= 1

    def test_priority_jumps_the_queue(self):
        # Nothing outranks the priority-10 blocker, so it finishes; then
        # the queue drains in priority order — the late high-priority
        # request waits less.
        with RoutingService(workers=1) as service:
            blocker = service.submit(
                RouteRequest(contest_case="case05", tag="blk", priority=10)
            )
            time.sleep(0.05)
            low = service.submit(
                RouteRequest(contest_case="case02", tag="low", priority=0)
            )
            high = service.submit(
                RouteRequest(contest_case="case02", tag="high", priority=5)
            )
            responses = [service.result(t, timeout=120) for t in (blocker, low, high)]
        assert all(r.status == "ok" for r in responses)
        _, low_response, high_response = responses
        assert high_response.queue_seconds < low_response.queue_seconds

    def test_equal_priority_never_preempts(self):
        with RoutingService(workers=1) as service:
            first = service.submit(RouteRequest(contest_case="case02", tag="a"))
            second = service.submit(RouteRequest(contest_case="case02", tag="b"))
            responses = [service.result(t, timeout=120) for t in (first, second)]
        assert all(r.status == "ok" for r in responses)
        assert all(r.preemptions == 0 for r in responses)


# ----------------------------------------------------------------------
# Checkpoint writes
# ----------------------------------------------------------------------
class _CountingWriter:
    """Wraps a service checkpoint writer; records the barriers the
    router offers it and the payloads it builds."""

    def __init__(self, writer, spy):
        self._writer = writer
        self._spy = spy

    def save(self, barrier, build_payload):
        self._spy.offered.append(barrier)

        def build():
            self._spy.built.append(barrier)
            return build_payload()

        return self._writer.save(barrier, build)


@pytest.fixture
def checkpoint_spy(monkeypatch):
    """Records the service's checkpoint work: managers built and files
    written (a spy :class:`CheckpointManager` where the service looks it
    up), barriers offered and payloads built (a :class:`_CountingWriter`
    around each request's writer)."""
    spy = SimpleNamespace(managers=[], saves=[], offered=[], built=[])

    class SpyManager(CheckpointManager):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            spy.managers.append(self.directory)

        def save(self, barrier, build_payload):
            path = super().save(barrier, build_payload)
            spy.saves.append(path)
            return path

    serve_route_request = service_module.route_request

    def counting_route_request(request, *, checkpoint_factory, **kwargs):
        def factory(*args, **factory_kwargs):
            return _CountingWriter(checkpoint_factory(*args, **factory_kwargs), spy)

        return serve_route_request(request, checkpoint_factory=factory, **kwargs)

    monkeypatch.setattr(service_module, "CheckpointManager", SpyManager)
    monkeypatch.setattr(service_module, "route_request", counting_route_request)
    return spy


def _barriers(directory):
    return [
        read_checkpoint(path)["barrier"]
        for path in sorted(directory.glob("ckpt_*.json"))
    ]


class TestCheckpointWrites:
    def test_unpreempted_requests_do_no_checkpoint_work(
        self, checkpoint_spy, cold_fingerprints
    ):
        mix = ["case02", "case05", "case02"]
        with RoutingService(workers=1) as service:
            responses = service.route(
                [RouteRequest(contest_case=c, tag=f"{i}:{c}") for i, c in enumerate(mix)]
            )
        assert [r.status for r in responses] == ["ok"] * 3
        assert [r.preemptions for r in responses] == [0] * 3
        assert [r.fingerprint for r in responses] == [
            cold_fingerprints[c] for c in mix
        ]
        assert checkpoint_spy.offered, "the router offered no barrier"
        assert checkpoint_spy.managers == []
        assert checkpoint_spy.built == []

    def test_a_preemption_writes_one_checkpoint(
        self, checkpoint_spy, cold_fingerprints
    ):
        with RoutingService(workers=1) as service:
            low = service.submit(
                RouteRequest(contest_case="case05", tag="low", priority=0)
            )
            time.sleep(0.05)  # let the victim reach routing
            high = service.submit(
                RouteRequest(contest_case="case02", tag="high", priority=5)
            )
            high_response = service.result(high, timeout=120)
            low_response = service.result(low, timeout=120)
        assert low_response.preemptions >= 1
        assert high_response.preemptions == 0
        assert len(checkpoint_spy.saves) == low_response.preemptions
        assert len(checkpoint_spy.built) == low_response.preemptions
        assert low_response.fingerprint == cold_fingerprints["case05"]
        assert high_response.fingerprint == cold_fingerprints["case02"]

    def test_finished_requests_leave_nothing_in_the_spool(
        self, tmp_path, cold_fingerprints
    ):
        spool = tmp_path / "spool"
        with RoutingService(workers=1, spool_dir=str(spool)) as service:
            low = service.submit(
                RouteRequest(contest_case="case05", tag="low", priority=0)
            )
            time.sleep(0.05)  # let the victim reach routing
            high = service.submit(
                RouteRequest(contest_case="case02", tag="high", priority=5)
            )
            service.result(high, timeout=120)
            low_response = service.result(low, timeout=120)
            left = sorted(path.name for path in spool.glob("req*"))
        assert low_response.preemptions >= 1
        assert low_response.fingerprint == cold_fingerprints["case05"]
        assert left == []

    def test_own_checkpoint_dir_gets_every_barrier(self, tmp_path):
        direct, served = tmp_path / "direct", tmp_path / "served"
        request = RouteRequest(contest_case="case02", checkpoint_dir=str(direct))
        responses = [route_request(request)]
        with RoutingService(workers=1) as service:
            responses += service.route(
                [RouteRequest(contest_case="case02", checkpoint_dir=str(served))]
            )
        assert [r.status for r in responses] == ["ok", "ok"]
        assert len(_barriers(direct)) >= 6
        assert _barriers(served / "attempt0") == _barriers(direct)


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
class TestSlo:
    def test_blown_slo_degrades_instead_of_failing(self):
        with RoutingService(workers=1) as service:
            ticket = service.submit(
                RouteRequest(contest_case="case05", slo_seconds=0.001, tag="tight")
            )
            response = service.result(ticket, timeout=120)
        assert response.status == "degraded"
        assert response.is_legal
        assert response.error is None

    def test_queue_wait_counts_against_the_slo(self):
        # Both requests carry a budget case05 can meet when it runs
        # immediately; the second spends it queueing behind the first.
        with RoutingService(workers=1) as service:
            first = service.submit(
                RouteRequest(contest_case="case05", slo_seconds=60.0, tag="1st")
            )
            time.sleep(0.05)
            second = service.submit(
                RouteRequest(contest_case="case05", slo_seconds=0.05, tag="2nd")
            )
            first_response = service.result(first, timeout=120)
            second_response = service.result(second, timeout=120)
        assert first_response.status == "ok"
        assert second_response.status == "degraded"
        assert second_response.queue_seconds > 0


# ----------------------------------------------------------------------
# Chaos
# ----------------------------------------------------------------------
class TestChaos:
    def test_a_failed_request_leaves_the_others_intact(self, cold_fingerprints):
        plan = FaultPlan([FaultSpec(site="phase.initial_routing", at=0)])
        tracer = FaultInjectingTracer(plan)
        with RoutingService(workers=1, tracer=tracer) as service:
            responses = service.route(
                [RouteRequest(contest_case="case02", tag=f"r{i}") for i in range(3)]
            )
        assert len(plan.fired) == 1, "the fault must actually fire"
        assert [r.status for r in responses] == ["failed", "ok", "ok"]
        assert "InjectedFault" in responses[0].error
        assert {r.fingerprint for r in responses[1:]} == {cold_fingerprints["case02"]}


# ----------------------------------------------------------------------
# Telemetry / reports
# ----------------------------------------------------------------------
class TestServeSection:
    def test_section_embeds_into_a_valid_run_report(self):
        from repro.api import execute_request

        with RoutingService(workers=2) as service:
            responses = service.route(
                [RouteRequest(contest_case="case02", tag=f"r{i}") for i in range(3)]
            )
            section = service.serve_section()
        assert all(r.status == "ok" for r in responses)
        assert section["completed"] == section["submitted"] == 3
        assert section["artifact_cache"]["hits"] > 0
        assert section["latency_seconds"]["count"] == 3

        result = execute_request(RouteRequest(contest_case="case02"))
        doc = build_run_report(result, case={"name": "case02"}, serve=section)
        assert_valid_run_report(doc)

    def test_invalid_serve_section_is_flagged(self):
        from repro.api import execute_request

        result = execute_request(RouteRequest(contest_case="case02"))
        doc = build_run_report(result, serve={"submitted": -1})
        problems = validate_run_report(doc)
        assert any("serve." in p for p in problems)

    def test_publish_cache_stats_is_delta_exact(self):
        with RoutingService(workers=1) as service:
            service.route([RouteRequest(contest_case="case02")])
            service.publish_cache_stats()
            service.publish_cache_stats()  # second call adds nothing new
            published = service.tracer.counter("serve.artifacts.misses")
            assert published == service.cache.stats.misses


class TestLifecycle:
    def test_submit_after_close_is_rejected(self):
        service = RoutingService(workers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(RouteRequest(contest_case="case02"))

    def test_submit_rejects_non_requests(self):
        with RoutingService(workers=1) as service:
            with pytest.raises(TypeError):
                service.submit({"contest_case": "case02"})

    def test_close_is_idempotent(self):
        service = RoutingService(workers=1)
        service.close()
        service.close()
