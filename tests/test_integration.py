"""Integration tests on the generated contest suite (small cases)."""

import pytest

from repro import DelayModel, DesignRuleChecker, SynergisticRouter
from repro.baselines import all_baseline_routers
from repro.benchgen import load_case
from repro.core.router import TdmAssigner
from repro.timing import TimingAnalyzer

SMALL_CASES = ["case01", "case02", "case03", "case04"]


@pytest.fixture(scope="module")
def small_cases():
    return {name: load_case(name) for name in SMALL_CASES}


class TestOursOnContestCases:
    @pytest.mark.parametrize("name", SMALL_CASES)
    def test_legal_and_clean(self, small_cases, name):
        case = small_cases[name]
        result = SynergisticRouter(case.system, case.netlist).route()
        assert result.conflict_count == 0
        report = DesignRuleChecker(case.system, case.netlist, DelayModel()).check(
            result.solution
        )
        assert report.is_clean

    def test_case05_full_scale(self):
        case = load_case("case05")
        result = SynergisticRouter(case.system, case.netlist).route()
        assert result.conflict_count == 0
        assert result.critical_delay > 0

    def test_case06_scaled_is_tight_but_feasible(self):
        case = load_case("case06")
        result = SynergisticRouter(case.system, case.netlist).route()
        assert result.conflict_count == 0
        # The hard case needs actual negotiation.
        assert result.initial_stats.negotiation_rounds >= 1


class TestBaselinesOnContestCases:
    @pytest.mark.parametrize("router_name", ["winner1", "winner2", "iseda2024"])
    def test_baselines_route_case02(self, small_cases, router_name):
        case = small_cases["case02"]
        cls = all_baseline_routers()[router_name]
        result = cls(case.system, case.netlist).route()
        assert result.solution.is_complete
        assert result.conflict_count == 0

    def test_ours_not_worse_than_baselines_on_case04(self, small_cases):
        case = small_cases["case04"]
        ours = SynergisticRouter(case.system, case.netlist).route()
        for name, cls in all_baseline_routers().items():
            result = cls(case.system, case.netlist).route()
            if result.conflict_count:
                continue  # an illegal result does not count
            assert ours.critical_delay <= result.critical_delay + 1e-9, name


class TestFig5aFlow:
    def test_phase2_refines_winner_topology(self, small_cases):
        """Our TDM algorithms on a baseline topology never hurt it."""
        case = small_cases["case03"]
        model = DelayModel()
        cls = all_baseline_routers()["winner2"]
        baseline = cls(case.system, case.netlist).route()

        refined = baseline.solution.copy_topology()
        TdmAssigner(case.system, case.netlist, model).assign(refined)
        analyzer = TimingAnalyzer(case.system, case.netlist, model)
        refined_delay = analyzer.critical_delay(refined)
        assert refined_delay <= baseline.critical_delay + 1e-9
        report = DesignRuleChecker(case.system, case.netlist, model).check(refined)
        assert report.is_clean


class TestRuntimeBreakdownShape:
    def test_initial_routing_dominates_on_mid_case(self):
        """Fig. 5(b): IR is the largest phase on a non-trivial case.

        The route is deterministic, so each phase's cost is its minimum
        time over three routes: a one-off stall on a shared host cannot
        flip the comparison.
        """
        case = load_case("case05")
        runs = [
            SynergisticRouter(case.system, case.netlist).route().phase_times
            for _ in range(3)
        ]
        ir = min(times.initial_routing for times in runs)
        ta = min(times.tdm_assignment for times in runs)
        lg_wa = min(times.legalization_wire_assignment for times in runs)
        assert ir >= max(ta, lg_wa)
