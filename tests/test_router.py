"""Integration tests for the top-level synergistic router."""

import pytest

from repro import (
    DelayModel,
    DesignRuleChecker,
    Net,
    Netlist,
    RouterConfig,
    SynergisticRouter,
)
from repro.core.router import TdmAssigner
from repro.core.initial_routing import InitialRouter
from repro.timing import TimingAnalyzer
from tests.conftest import build_two_fpga_system, random_netlist


class TestEndToEnd:
    def test_result_is_drc_clean(self, two_fpga_system, small_netlist, delay_model):
        result = SynergisticRouter(two_fpga_system, small_netlist, delay_model).route()
        report = DesignRuleChecker(two_fpga_system, small_netlist, delay_model).check(
            result.solution
        )
        assert report.is_clean
        assert result.is_legal

    def test_critical_delay_matches_reevaluation(
        self, two_fpga_system, small_netlist, delay_model
    ):
        result = SynergisticRouter(two_fpga_system, small_netlist, delay_model).route()
        analyzer = TimingAnalyzer(two_fpga_system, small_netlist, delay_model)
        assert result.critical_delay == pytest.approx(
            analyzer.critical_delay(result.solution)
        )

    def test_phase_times_recorded(self, routed_result):
        times = routed_result.phase_times
        assert times.initial_routing > 0
        assert times.total >= times.initial_routing
        fractions = times.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_lr_history_present_when_tdm_used(self, routed_result):
        assert routed_result.lr_history is not None
        assert routed_result.lr_history.num_iterations >= 1

    def test_sll_only_design_skips_phase2(self, delay_model):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 2, (1,))])
        result = SynergisticRouter(system, netlist, delay_model).route()
        assert result.lr_history is None
        assert result.critical_delay == pytest.approx(delay_model.d_sll)

    def test_empty_netlist(self, delay_model):
        system = build_two_fpga_system()
        result = SynergisticRouter(system, Netlist([]), delay_model).route()
        assert result.critical_delay == 0.0
        assert result.conflict_count == 0

    def test_deterministic(self, two_fpga_system, small_netlist, delay_model):
        first = SynergisticRouter(two_fpga_system, small_netlist, delay_model).route()
        second = SynergisticRouter(two_fpga_system, small_netlist, delay_model).route()
        assert first.critical_delay == pytest.approx(second.critical_delay)


class TestTimingRerouteLoop:
    def test_disabled_loop_never_worse_than_baseline_bound(self, two_fpga_system, delay_model):
        netlist = random_netlist(two_fpga_system, 60, seed=77)
        base = SynergisticRouter(
            two_fpga_system,
            netlist,
            delay_model,
            RouterConfig(timing_reroute_rounds=0),
        ).route()
        looped = SynergisticRouter(
            two_fpga_system,
            netlist,
            delay_model,
            RouterConfig(timing_reroute_rounds=3),
        ).route()
        assert looped.critical_delay <= base.critical_delay + 1e-9

    def test_loop_result_stays_legal(self, two_fpga_system, delay_model):
        netlist = random_netlist(two_fpga_system, 60, seed=78)
        result = SynergisticRouter(
            two_fpga_system,
            netlist,
            delay_model,
            RouterConfig(timing_reroute_rounds=5),
        ).route()
        report = DesignRuleChecker(two_fpga_system, netlist, delay_model).check(
            result.solution
        )
        assert report.is_clean


class TestTdmAssignerStandalone:
    def test_refines_foreign_topology(self, two_fpga_system, delay_model):
        """The Fig. 5(a) flow: phase II on another router's topology."""
        netlist = random_netlist(two_fpga_system, 50, seed=55)
        topology = InitialRouter(two_fpga_system, netlist, delay_model).route()
        foreign = topology.copy_topology()
        assigner = TdmAssigner(two_fpga_system, netlist, delay_model)
        history = assigner.assign(foreign)
        assert history is not None
        report = DesignRuleChecker(two_fpga_system, netlist, delay_model).check(foreign)
        assert report.is_clean

    def test_no_tdm_topology_is_noop(self, delay_model):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        solution = InitialRouter(system, netlist, delay_model).route()
        assigner = TdmAssigner(system, netlist, delay_model)
        assert assigner.assign(solution) is None


class TestIncrementalIncidenceInRouter:
    def test_reroute_rounds_rebuild_incrementally(self):
        """Acceptance: refine rounds patch the incidence, never cold-build.

        case02 accepts timing-reroute moves, so the router runs phase II
        more than once; only the first run may build the incidence cold
        (each round moves far fewer than 20% of the connections).
        """
        from repro.benchgen import load_case

        case = load_case("case02")
        result = SynergisticRouter(case.system, case.netlist).route()
        assert result.timing_reroute_moves > 0
        counters = result.telemetry.counters
        assert counters.get("incidence.cold_builds") == 1
        assert counters.get("incidence.incremental_builds", 0) >= 1
        assert counters.get("incidence.patched_connections", 0) >= 1

    def test_fraction_zero_forces_cold_builds(self, monkeypatch):
        import repro.core.incidence
        from repro.benchgen import load_case

        case = load_case("case02")
        monkeypatch.setattr(repro.core.incidence, "INCREMENTAL_REBUILD_FRACTION", 0.0)
        result = SynergisticRouter(case.system, case.netlist).route()
        counters = result.telemetry.counters
        assert "incidence.incremental_builds" not in counters
        assert counters.get("incidence.cold_builds", 0) > 1

    def test_incremental_is_bit_identical_end_to_end(self, monkeypatch):
        import repro.core.incidence
        from repro.benchgen import load_case

        case = load_case("case02")
        incremental = SynergisticRouter(case.system, case.netlist).route()
        monkeypatch.setattr(repro.core.incidence, "INCREMENTAL_REBUILD_FRACTION", 0.0)
        cold = SynergisticRouter(case.system, case.netlist).route()
        assert cold.telemetry.counters.get("incidence.incremental_builds", 0) == 0
        assert incremental.critical_delay == cold.critical_delay
        assert incremental.solution.ratios == cold.solution.ratios
        for edge_index, wires in cold.solution.wires.items():
            other = incremental.solution.wires[edge_index]
            assert [
                (w.direction, w.ratio, sorted(w.net_indices)) for w in wires
            ] == [(w.direction, w.ratio, sorted(w.net_indices)) for w in other]
