"""Chaos tests: deterministic fault injection against the full router.

Three failure families (docs/resilience.md), each driven through
``execute_request`` with both a sequential and a 4-worker executor:

* **worker kill** — :class:`WorkerKilled` at the Nth executor task is a
  transient error; the bounded retry re-runs the (idempotent) task and
  the run finishes bit-identical to a fault-free one.
* **induced exception** — :class:`InjectedFault` is non-transient: the
  run fails fast, and when checkpoints were on, a ``resume_from``
  request finishes the job bit-identical to a run that never crashed.
* **budget exhaustion** — a tiny ``wall_clock_budget_seconds`` makes the
  router exit early with a legal best-so-far solution flagged
  ``degraded`` on the result and the run report.
"""

from __future__ import annotations

import pytest

from repro import DelayModel
from repro.api import (
    ArtifactCache,
    FaultInjectingTracer,
    FaultPlan,
    FaultSpec,
    RouteRequest,
    execute_request,
    solution_fingerprint,
)
from repro.obs import build_run_report
from repro.parallel import TASK_SITE
from repro.resilience import InjectedFault, WorkerKilled

WORKER_COUNTS = [1, 4]


@pytest.fixture(scope="module")
def cache():
    """Parses case05 once for the module; no run uses warm artifacts."""
    return ArtifactCache()


@pytest.fixture(scope="module")
def delay_model():
    return DelayModel()


def route(cache, tracer=None, **config):
    """Route case05 cold under ``config`` (the router's defaults + knobs)."""
    request = RouteRequest(contest_case="case05", config=config, warm_cache=False)
    return execute_request(request, tracer=tracer, cache=cache)


@pytest.fixture(scope="module")
def baseline_fingerprints(cache, delay_model):
    """Fault-free fingerprints per worker count (results are identical,
    but compute both so each chaos test compares against its own
    configuration)."""
    fingerprints = {}
    for workers in WORKER_COUNTS:
        result = route(cache, num_workers=workers)
        fingerprints[workers] = solution_fingerprint(result.solution, delay_model)
    return fingerprints


class TestFaultPlanMechanics:
    def test_fires_at_exactly_the_nth_entry(self):
        plan = FaultPlan([FaultSpec(site="s", at=2)])
        plan.fire("s")
        plan.fire("s")
        assert plan.entries("s") == 2
        with pytest.raises(InjectedFault):
            plan.fire("s")
        assert [(spec.site, count) for spec, count in plan.fired] == [("s", 2)]
        plan.fire("s")  # fires exactly once
        assert plan.entries("s") == 4

    def test_unrelated_sites_do_not_trip(self):
        plan = FaultPlan([FaultSpec(site="s")])
        plan.fire("other")
        assert plan.fired == []

    def test_kill_worker_action(self):
        plan = FaultPlan([FaultSpec(site="s", action="kill_worker")])
        with pytest.raises(WorkerKilled):
            plan.fire("s")

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="s", at=-1)
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="delay", delay_seconds=-0.1)


class TestWorkerKills:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_killed_worker_is_retried_bit_identically(
        self, cache, delay_model, baseline_fingerprints, workers
    ):
        plan = FaultPlan([FaultSpec(site=TASK_SITE, at=1, action="kill_worker")])
        tracer = FaultInjectingTracer(plan)
        result = route(cache, tracer, num_workers=workers, worker_max_retries=2)
        assert [spec.action for spec, _ in plan.fired] == ["kill_worker"]
        assert result.telemetry.counters.get("parallel.retries", 0) >= 1
        assert (
            solution_fingerprint(result.solution, delay_model)
            == baseline_fingerprints[workers]
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_kill_mid_phase2_without_retries_then_resume(
        self, cache, delay_model, baseline_fingerprints, workers, tmp_path
    ):
        """A worker dies mid phase II with retries off: the run crashes,
        and resuming from the last checkpoint reproduces the fault-free
        run bit-for-bit."""
        plan = FaultPlan([FaultSpec(site=TASK_SITE, at=3, action="kill_worker")])
        request = RouteRequest(
            contest_case="case05",
            config={"num_workers": workers, "worker_max_retries": 0},
            warm_cache=False,
            checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(WorkerKilled):
            execute_request(
                request, tracer=FaultInjectingTracer(plan), cache=cache
            )
        barriers = [p.name for p in sorted(tmp_path.glob("ckpt_*.json"))]
        assert barriers, "crash before the first checkpoint"
        assert any("phase1-done" in name for name in barriers)
        resumed = execute_request(
            RouteRequest(resume_from=str(tmp_path), warm_cache=False)
        )
        assert (
            solution_fingerprint(resumed.solution, delay_model)
            == baseline_fingerprints[workers]
        )

    def test_retries_exhausted_reraises(self, cache):
        """Two kills at consecutive task attempts beat max_retries=1."""
        plan = FaultPlan(
            [
                FaultSpec(site=TASK_SITE, at=0, action="kill_worker"),
                FaultSpec(site=TASK_SITE, at=1, action="kill_worker"),
            ]
        )
        with pytest.raises(WorkerKilled):
            route(
                cache,
                FaultInjectingTracer(plan),
                num_workers=1,
                worker_max_retries=1,
            )


class TestInducedExceptions:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_injected_fault_fails_fast_despite_retries(self, cache, workers):
        plan = FaultPlan([FaultSpec(site=TASK_SITE, at=0, action="raise")])
        with pytest.raises(InjectedFault):
            route(
                cache,
                FaultInjectingTracer(plan),
                num_workers=workers,
                worker_max_retries=5,
            )

    def test_span_site_fault_aborts_the_phase(self, cache):
        plan = FaultPlan([FaultSpec(site="phase.tdm_assignment", at=0)])
        with pytest.raises(InjectedFault):
            route(cache, FaultInjectingTracer(plan))
        assert plan.entries("phase.initial_routing") == 1

    def test_delay_action_is_result_neutral(
        self, cache, delay_model, baseline_fingerprints
    ):
        plan = FaultPlan(
            [
                FaultSpec(
                    site=TASK_SITE, at=0, action="delay", delay_seconds=0.001
                )
            ]
        )
        result = route(cache, FaultInjectingTracer(plan), num_workers=1)
        assert len(plan.fired) == 1
        assert (
            solution_fingerprint(result.solution, delay_model)
            == baseline_fingerprints[1]
        )


class TestBudgetExhaustion:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_tiny_budget_degrades_gracefully(self, cache, workers):
        result = route(cache, num_workers=workers, wall_clock_budget_seconds=1e-4)
        assert result.degraded is True
        assert result.solution.is_complete
        assert result.conflict_count == 0
        report = build_run_report(result)
        assert report["result"]["degraded"] is True

    def test_no_budget_never_degrades(self, cache):
        result = route(cache)
        assert result.degraded is False
        assert build_run_report(result)["result"]["degraded"] is False
