"""Phase II pipeline wall time on contest cases.

Times the full phase II pipeline — incidence construction, Lagrangian
ratio assignment, legalization and wire assignment — on the phase I
topology of each case (``wall_time_fast_s``), and legalization plus wire
assignment alone (``wall_time_lgwa_s``), so the perf sentinel guards
that stage by itself.  The pipeline's results are held bit for bit to
the per-hop oracles of ``tests/oracles.py`` by
``tests/test_contest_oracles.py`` on the same cases.

Rows land in ``BENCH_phase2.json`` (schema: benchmarks/conftest.py) so
the before/after trajectory can be diffed across commits.
"""

from __future__ import annotations

import os
import time
from typing import Tuple

import pytest

from benchmarks.conftest import bench_case, record_bench_result, register_report
from repro import DelayModel, RouterConfig
from repro.core.incidence import TdmIncidence
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner
from repro.timing import TimingAnalyzer

#: Cases run by this benchmark (the contest trio the guards watch).
PHASE2_CASES = [
    name.strip()
    for name in os.environ.get(
        "REPRO_BENCH_PHASE2_CASES", "case05,case06,case07"
    ).split(",")
    if name.strip()
]

#: Timing repetitions; the best run is reported (rejects scheduler noise).
ROUNDS = int(os.environ.get("REPRO_BENCH_PHASE2_ROUNDS", "3"))

#: Phase II pipeline wall times at commit dec8cc1, before the vectorized
#: pipeline, best of 7 runs alternated process-by-process with it on the
#: reference machine — the fixed yardstick for its speedup.
PRE_PR_BASELINE_S = {"case05": 0.0279, "case06": 0.1447, "case07": 0.1024}


def run_pipeline(case, sol) -> Tuple[object, object, object, float]:
    """One full phase II pass over ``sol``.

    Returns ``(lr, legal, stats, lgwa_s)``; ``lgwa_s`` is the wall time
    of legalization plus wire assignment alone.
    """
    model = DelayModel()
    config = RouterConfig()
    inc = TdmIncidence(case.system, case.netlist, sol, model)
    lr = LagrangianTdmAssigner(inc, config).solve()
    start = time.perf_counter()
    legal = TdmLegalizer(inc, config).legalize(lr.ratios)
    stats = WireAssigner(inc, config).assign(
        sol, legal.ratios, legal.wire_budgets, legal.criticality
    )
    return lr, legal, stats, time.perf_counter() - start


@pytest.mark.parametrize("case_name", PHASE2_CASES)
def test_phase2_pipeline_speedup(benchmark, case_name):
    case = bench_case(case_name)
    solution = InitialRouter(case.system, case.netlist).route()
    best = best_lgwa = float("inf")
    results = {}

    def run():
        nonlocal best, best_lgwa
        # The timed window covers the pipeline stages only — the topology
        # copy each round feeds the pipeline but is not part of it.
        for _ in range(ROUNDS):
            sol = solution.copy_topology()
            start = time.perf_counter()
            outputs = run_pipeline(case, sol)
            best = min(best, time.perf_counter() - start)
            best_lgwa = min(best_lgwa, outputs[3])
            results["last"] = (sol, outputs[:3])
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    sol, (lr, legal, stats) = results["last"]
    critical = TimingAnalyzer(case.system, case.netlist, DelayModel()).critical_delay(
        sol
    )
    pre_pr = PRE_PR_BASELINE_S.get(case_name)
    record_bench_result(
        "phase2",
        case_name,
        wall_time_fast_s=best,
        wall_time_pre_pr_s=pre_pr,
        speedup_vs_pre_pr=(pre_pr / best) if pre_pr else None,
        wall_time_lgwa_s=best_lgwa,
        cpu_count=os.cpu_count(),
        critical_delay=critical,
        num_pairs=int(legal.ratios.shape[0]),
        lr_iterations=lr.history.num_iterations,
        refinement_steps=legal.refinement_steps,
        wires_used=stats.wires_used,
    )
    register_report(
        "Phase II pipeline",
        [
            f"{case_name}: {best:.3f}s, delay {critical:.2f}, "
            f"{legal.ratios.shape[0]} pairs, "
            f"{lr.history.num_iterations} LR iters, "
            f"{stats.wires_used} wires, LG & WA {best_lgwa * 1e3:.1f}ms"
            + (f", {pre_pr / best:.2f}x vs pre-vectorization" if pre_pr else ""),
        ],
    )

