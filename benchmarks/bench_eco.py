"""Incremental (ECO) rerouting vs a full re-route, and the migrate ledger.

Measures the practical payoff of :class:`repro.core.eco.EcoRouter`:
after touching 1% of the nets, the incremental path should cost a
fraction of a from-scratch route while staying legal and close in
quality.

:func:`test_eco_migrate_wall_time` times :meth:`EcoRouter.migrate` of a
routed case10 onto ``RevisionSpec(seed=1..3)``, best of
:data:`MIGRATE_ROUNDS` interleaved runs per revision, and records one
``BENCH_eco.json`` row per revision (``wall_time_migrate_s``,
``cpu_count`` and the result's fingerprint), which ``make perf`` checks
with the perf sentinel against the committed file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import (
    bench_case,
    bench_scale,
    record_bench_result,
    register_report,
    selected_cases,
)
from repro import DelayModel, SynergisticRouter
from repro.api import solution_fingerprint
from repro.benchgen import RevisionSpec, revise_netlist
from repro.core.eco import EcoRouter

#: Base case and revision seeds of the timed migrates (the first three
#: of the pinned ones in tests/data/pinned_fingerprints.json).
MIGRATE_CASE = "case10"
MIGRATE_SEEDS = (1, 2, 3)

#: Timed runs per revision; the best one is recorded.
MIGRATE_ROUNDS = 3

PINNED = Path(__file__).resolve().parent.parent / "tests" / "data" / (
    "pinned_fingerprints.json"
)


def test_eco_vs_full_reroute(benchmark):
    name = "case07" if "case07" in selected_cases() else selected_cases()[-1]
    case = bench_case(name)

    base = SynergisticRouter(case.system, case.netlist).route()
    crossing = [net.index for net in case.netlist.crossing_nets()]
    budget = max(1, len(crossing) // 100)  # ~1% of the crossing nets
    stride = max(1, len(crossing) // budget)
    changed = crossing[::stride][:budget]

    def run_eco():
        return EcoRouter(case.system).reroute_nets(base.solution, changed)

    start = time.perf_counter()
    eco = benchmark.pedantic(run_eco, rounds=1, iterations=1)
    eco_time = time.perf_counter() - start

    start = time.perf_counter()
    full = SynergisticRouter(case.system, case.netlist).route()
    full_time = time.perf_counter() - start

    register_report(
        "ECO incremental rerouting vs full re-route",
        [
            f"case: {name}  changed nets: {len(changed)} "
            f"({len(changed) / case.netlist.num_nets:.1%})",
            f"{'flow':18s} {'time(s)':>9s} {'delay':>8s} {'conf':>6s} "
            f"{'rerouted conns':>15s}",
            f"{'ECO':18s} {eco_time:9.2f} {eco.critical_delay:8.1f} "
            f"{eco.conflict_count:6d} {eco.rerouted_connections:15d}",
            f"{'full re-route':18s} {full_time:9.2f} {full.critical_delay:8.1f} "
            f"{full.conflict_count:6d} {case.netlist.num_connections:15d}",
        ],
    )
    assert eco.conflict_count == 0
    assert eco.rerouted_connections < case.netlist.num_connections


def test_eco_migrate_wall_time(benchmark):
    case = bench_case(MIGRATE_CASE)
    model = DelayModel()
    base = SynergisticRouter(case.system, case.netlist, model).route().solution
    revisions = {
        seed: revise_netlist(
            case.netlist, case.system.num_dies, RevisionSpec(seed=seed)
        )
        for seed in MIGRATE_SEEDS
    }
    best = {seed: float("inf") for seed in MIGRATE_SEEDS}
    results = {}

    def run():
        # Interleave the revisions so machine noise hits all of them.
        for _ in range(MIGRATE_ROUNDS):
            for seed, revision in revisions.items():
                start = time.perf_counter()
                results[seed] = EcoRouter(case.system, model).migrate(base, revision)
                best[seed] = min(best[seed], time.perf_counter() - start)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    pinned = json.loads(PINNED.read_text())["eco"]["fingerprints"]
    lines = []
    for seed in MIGRATE_SEEDS:
        result = results[seed]
        fingerprint = solution_fingerprint(result.solution, model)
        record_bench_result(
            "eco",
            f"{MIGRATE_CASE}-rev{seed}",
            wall_time_migrate_s=best[seed],
            cpu_count=os.cpu_count(),
            fingerprint=fingerprint,
            critical_delay=result.critical_delay,
            rerouted_connections=result.rerouted_connections,
            preserved_connections=result.preserved_connections,
        )
        lines.append(
            f"{MIGRATE_CASE} rev{seed}: migrate {best[seed]:.3f}s (best of "
            f"{MIGRATE_ROUNDS}), delay {result.critical_delay:.1f}, "
            f"{result.rerouted_connections} rerouted connections"
        )
        assert result.conflict_count == 0
        if bench_scale() is None:
            assert fingerprint == pinned[str(seed)]
    register_report("ECO migrate wall time", lines)
