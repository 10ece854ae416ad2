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
from repro.obs import InMemorySink, Tracer
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


class TestPairNumbering:
    def test_each_assigned_topology_numbers_its_pairs_once(self, monkeypatch):
        """Phase II and the timing analyzer share one pair numbering.

        case09 runs 3 timing rounds, so phase II assigns 4 topologies;
        each numbers its TDM pairs exactly once, through the topology
        index that the incidence and the analyzer both read.
        """
        import sys

        import repro.route.solution
        from repro.benchgen import load_case

        original = repro.route.solution.tdm_pairs
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        binders = [
            module
            for name, module in list(sys.modules.items())
            if name.startswith("repro.")
            and getattr(module, "tdm_pairs", None) is original
        ]
        for module in binders:
            monkeypatch.setattr(module, "tdm_pairs", counted)
        case = load_case("case09")
        sink = InMemorySink()
        result = SynergisticRouter(
            case.system, case.netlist, tracer=Tracer(sink)
        ).route()
        rounds = [e for e in sink.events if e["name"] == "timing_reroute.round"]
        assert len(rounds) == 3
        assert result.timing_reroute_moves == 22
        assert len(calls) == 4
