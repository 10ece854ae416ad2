"""Chaos tests: deterministic fault injection against the full router.

Two failure families (docs/resilience.md), each driven through
``execute_request``; the kill and budget tests run it on one and on four
threads at once, as a service's request workers do:

* **induced exception** — :class:`InjectedFault` at the Nth entry of a
  span aborts the run, and when checkpoints were on, a ``resume_from``
  request finishes the job bit-identical to a run that never crashed.
* **budget exhaustion** — a tiny ``wall_clock_budget_seconds`` makes the
  router exit early with a legal best-so-far solution flagged
  ``degraded`` on the result and the run report.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

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
from repro.resilience import InjectedFault

#: The phase II span a crash is injected into.
PHASE_LGWA = "phase.legalization_wire_assignment"

#: Calling threads that route at once, each its own request.
THREAD_COUNTS = [1, 4]


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


def on_threads(threads, task):
    """Run ``task(index)`` for every index on ``threads`` threads at once;
    returns the results in index order and re-raises a task's error."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, range(threads)))


@pytest.fixture(scope="module")
def baseline_fingerprint(cache, delay_model):
    """Fingerprint of the fault-free case05 run."""
    return solution_fingerprint(route(cache).solution, delay_model)


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

    def test_threads_sharing_a_plan_count_every_entry(self):
        """The service hands one fault-injecting tracer to all its
        request threads: no entry may be lost, and an ``at=k`` spec
        fires exactly once."""
        num_threads, per_thread = 4, 25_000
        spec = FaultSpec(site="s", at=1000, action="delay")
        plan = FaultPlan([spec])
        start = threading.Barrier(num_threads)

        def enter():
            start.wait()
            for _ in range(per_thread):
                plan.fire("s")

        # A short switch interval makes the threads interleave inside
        # fire() often enough for an unlocked count to lose entries.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=enter) for _ in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert plan.entries("s") == num_threads * per_thread
        assert plan.fired == [(spec, 1000)]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="s", at=-1)
        with pytest.raises(ValueError):
            FaultSpec(site="s", action="delay", delay_seconds=-0.1)


class TestWorkerKills:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_kill_mid_phase2_without_retries_then_resume(
        self, cache, delay_model, baseline_fingerprint, threads, tmp_path
    ):
        """Each thread's run dies inside phase II's legalization span and
        nothing retries it; resuming each from its last checkpoint
        reproduces the fault-free run bit-for-bit."""

        def crash(index):
            directory = tmp_path / f"run{index}"
            plan = FaultPlan([FaultSpec(site=PHASE_LGWA, at=0)])
            request = RouteRequest(
                contest_case="case05",
                warm_cache=False,
                checkpoint_dir=str(directory),
            )
            with pytest.raises(InjectedFault):
                execute_request(
                    request, tracer=FaultInjectingTracer(plan), cache=cache
                )
            return directory

        directories = on_threads(threads, crash)
        for directory in directories:
            barriers = [p.name for p in sorted(directory.glob("ckpt_*.json"))]
            assert any("phase1-done" in name for name in barriers)
            assert any("phase2-lr" in name for name in barriers)
        resumed = on_threads(
            threads,
            lambda index: execute_request(
                RouteRequest(resume_from=str(directories[index]), warm_cache=False)
            ),
        )
        assert [
            solution_fingerprint(result.solution, delay_model)
            for result in resumed
        ] == [baseline_fingerprint] * threads


class TestInducedExceptions:
    def test_span_site_fault_aborts_the_phase(self, cache):
        plan = FaultPlan([FaultSpec(site="phase.tdm_assignment", at=0)])
        with pytest.raises(InjectedFault):
            route(cache, FaultInjectingTracer(plan))
        assert plan.entries("phase.initial_routing") == 1

    def test_delay_action_is_result_neutral(
        self, cache, delay_model, baseline_fingerprint
    ):
        plan = FaultPlan(
            [FaultSpec(site=PHASE_LGWA, at=0, action="delay", delay_seconds=0.001)]
        )
        result = route(cache, FaultInjectingTracer(plan))
        assert len(plan.fired) == 1
        assert (
            solution_fingerprint(result.solution, delay_model)
            == baseline_fingerprint
        )


class TestBudgetExhaustion:
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_tiny_budget_degrades_gracefully(self, cache, threads):
        results = on_threads(
            threads, lambda _: route(cache, wall_clock_budget_seconds=1e-4)
        )
        for result in results:
            assert result.degraded is True
            assert result.solution.is_complete
            assert result.conflict_count == 0
            report = build_run_report(result)
            assert report["result"]["degraded"] is True

    def test_no_budget_never_degrades(self, cache):
        result = route(cache)
        assert result.degraded is False
        assert build_run_report(result)["result"]["degraded"] is False
