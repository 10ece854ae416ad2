"""Ablations of the design choices DESIGN.md calls out.

* µ sharing factor (Section III-B): 0.5 (paper) vs 1.0 (disabled).
* Weight mode (Section III-B): auto vs forced delay / congestion.
* Timing-driven outer loop: on (default) vs off.
* LR initial ratio assignment: full phase II vs even per-edge packing
  (what the criticality baseline does) on our own topology.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_case, register_report, selected_cases
from repro import DelayModel, RouterConfig, SynergisticRouter
from repro.baselines import CriticalityTdmAssigner
from repro.core.initial_routing import InitialRouter
from repro.timing import TimingAnalyzer

_DEFAULT = [
    c for c in selected_cases() if c in ("case03", "case06", "case07", "case09")
]
CASES = _DEFAULT or selected_cases()[:1]


@pytest.mark.parametrize("case_name", CASES)
def test_ablation_mu(benchmark, case_name):
    case = bench_case(case_name)

    def run():
        shared = SynergisticRouter(
            case.system, case.netlist, config=RouterConfig(mu_shared=0.5)
        ).route()
        disabled = SynergisticRouter(
            case.system, case.netlist, config=RouterConfig(mu_shared=1.0)
        ).route()
        return shared, disabled

    shared, disabled = benchmark.pedantic(run, rounds=1, iterations=1)
    register_report(
        "Ablation: µ sharing factor",
        [
            f"{case_name}: mu=0.5 delay={shared.critical_delay:.1f} "
            f"conf={shared.conflict_count} | mu=1.0 "
            f"delay={disabled.critical_delay:.1f} conf={disabled.conflict_count}"
        ],
    )


@pytest.mark.parametrize("case_name", CASES)
def test_ablation_weight_mode(benchmark, case_name):
    case = bench_case(case_name)

    def run():
        out = {}
        for mode in ("auto", "delay", "congestion"):
            out[mode] = SynergisticRouter(
                case.system, case.netlist, config=RouterConfig(weight_mode=mode)
            ).route()
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    cells = " | ".join(
        f"{mode}: delay={r.critical_delay:.1f} conf={r.conflict_count}"
        for mode, r in results.items()
    )
    register_report("Ablation: weight mode", [f"{case_name}: {cells}"])
    # Auto should never be worse than the best forced mode by much more
    # than the legalization step granularity on legal results.
    legal = {m: r for m, r in results.items() if r.conflict_count == 0}
    if "auto" in legal and len(legal) > 1:
        best = min(r.critical_delay for r in legal.values())
        assert legal["auto"].critical_delay <= best * 1.6 + 1e-9


@pytest.mark.parametrize("case_name", CASES)
def test_ablation_timing_reroute(benchmark, case_name):
    case = bench_case(case_name)

    def run():
        on = SynergisticRouter(
            case.system, case.netlist, config=RouterConfig(timing_reroute_rounds=3)
        ).route()
        off = SynergisticRouter(
            case.system, case.netlist, config=RouterConfig(timing_reroute_rounds=0)
        ).route()
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    register_report(
        "Ablation: timing-driven outer loop",
        [
            f"{case_name}: on delay={on.critical_delay:.1f} "
            f"(moves={on.timing_reroute_moves}) | off delay={off.critical_delay:.1f}"
        ],
    )
    assert on.critical_delay <= off.critical_delay + 1e-9


@pytest.mark.parametrize("case_name", CASES)
def test_ablation_lr_vs_even_packing(benchmark, case_name):
    """Phase II value: LR pipeline vs even per-edge packing, same topology."""
    case = bench_case(case_name)
    model = DelayModel()
    analyzer = TimingAnalyzer(case.system, case.netlist, model)

    def run():
        topology = InitialRouter(case.system, case.netlist, model).route()
        even = topology.copy_topology()
        CriticalityTdmAssigner(case.system, case.netlist, model, refine=False).assign(even)
        full = SynergisticRouter(case.system, case.netlist, model).route()
        return analyzer.critical_delay(even), full.critical_delay

    even_delay, full_delay = benchmark.pedantic(run, rounds=1, iterations=1)
    register_report(
        "Ablation: LR phase II vs even per-edge packing",
        [f"{case_name}: even packing={even_delay:.1f} | full phase II={full_delay:.1f}"],
    )
