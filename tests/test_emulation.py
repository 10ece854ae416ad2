"""Tests for the cycle-level TDM transmission simulator."""

import pytest

from repro import DelayModel, Net, Netlist, SynergisticRouter
from repro.arch.edges import TdmWire
from repro.benchgen import load_case
from repro.emulation import TdmTransmissionSimulator, WireSchedule
from repro.route.solution import RoutingSolution
from tests.conftest import build_two_fpga_system, random_netlist


class TestWireSchedule:
    def test_wait_cycles_exact(self):
        schedule = WireSchedule(
            edge_index=0, wire_position=0, ratio=4, slots={7: 2}
        )
        # Launch exactly at the slot: zero wait; one past: full frame - 1.
        assert schedule.wait_cycles(7, 2) == 0
        assert schedule.wait_cycles(7, 3) == 3
        assert schedule.wait_cycles(7, 0) == 2

    def test_statistics_formulas(self):
        schedule = WireSchedule(
            edge_index=0, wire_position=0, ratio=8, slots={1: 5}
        )
        best, mean, worst = schedule.wait_statistics(1)
        assert best == 0
        assert worst == 7  # r - 1
        assert mean == pytest.approx((8 - 1) / 2)  # (r - 1) / 2


@pytest.fixture
def simulated():
    system = build_two_fpga_system(tdm_capacity=8)
    netlist = random_netlist(system, 40, seed=23)
    result = SynergisticRouter(system, netlist).route()
    return system, netlist, result, TdmTransmissionSimulator(result.solution)


class TestSimulator:
    def test_every_occupied_wire_has_a_schedule(self, simulated):
        system, netlist, result, simulator = simulated
        for edge_index, wires in result.solution.wires.items():
            for position, wire in enumerate(wires):
                if wire.demand:
                    schedule = simulator.wire_schedule(edge_index, position)
                    assert schedule.ratio == wire.ratio
                    assert len(schedule.slots) == wire.demand

    def test_slots_are_distinct(self, simulated):
        system, netlist, result, simulator = simulated
        for (edge_index, position), schedule in simulator._schedules.items():
            slots = list(schedule.slots.values())
            assert len(slots) == len(set(slots))
            assert all(0 <= slot < schedule.ratio for slot in slots)

    def test_connection_latency_brackets_model(self, simulated):
        """Simulated mean <= abstract model delay <= simulated worst
        (with d1 = 0.5 the model is mean wait + 0.5 per TDM hop)."""
        system, netlist, result, simulator = simulated
        for conn in netlist.connections:
            latency = simulator.connection_latency(conn.index)
            assert latency.best <= latency.mean <= latency.worst + 1e-9
            assert latency.mean <= latency.model_delay + 1e-9
            assert latency.model_delay <= latency.worst + 1e-9 or (
                # worst == mean only for ratio-1 frames (no TDM hop jitter)
                latency.worst == latency.mean
            )

    def test_model_delay_matches_analyzer(self, simulated):
        from repro.timing import TimingAnalyzer

        system, netlist, result, simulator = simulated
        analyzer = TimingAnalyzer(system, netlist, DelayModel())
        for conn in netlist.connections:
            latency = simulator.connection_latency(conn.index)
            assert latency.model_delay == pytest.approx(
                analyzer.connection_delay(result.solution, conn.index)
            )

    def test_validate_model_clean_on_router_output(self, simulated):
        system, netlist, result, simulator = simulated
        assert simulator.validate_model() == []

    def test_mean_wait_equals_half_frame(self):
        """The d1 = 0.5 calibration is the mechanism's mean behaviour."""
        system = build_two_fpga_system(tdm_capacity=8, num_tdm_edges=1)
        netlist = Netlist([Net("a", 3, (4,))])
        result = SynergisticRouter(system, netlist).route()
        simulator = TdmTransmissionSimulator(result.solution)
        tdm = system.edge_between(3, 4).index
        best, mean, worst = simulator.net_wait_statistics(0, tdm, 0)
        ratio = result.solution.ratios[(0, tdm, 0)]
        assert mean == pytest.approx((ratio - 1) / 2)
        assert worst == ratio - 1

    def test_detects_inconsistent_hand_built_wire(self):
        """A wire whose ratio undercuts the model is flagged."""
        system = build_two_fpga_system(tdm_capacity=8, num_tdm_edges=1)
        netlist = Netlist([Net("a", 3, (4,))])
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [3, 4])
        tdm = system.edge_between(3, 4).index
        wire = TdmWire(edge_index=tdm, direction=0, ratio=64)
        wire.add_net(0)
        solution.wires[tdm] = [wire]
        solution.net_wire[(0, tdm, 0)] = 0
        # Claimed model ratio much smaller than the physical frame: the
        # model now undercuts the simulated mean.
        solution.ratios[(0, tdm, 0)] = 8.0
        simulator = TdmTransmissionSimulator(solution)
        problems = simulator.validate_model()
        assert problems and "below simulated mean" in problems[0]


class TestContestReplay:
    @pytest.mark.parametrize("name", ["case05", "case07", "case09"])
    def test_router_solution_replays_clean(self, name):
        """The cycle-level replay agrees with the delay model on routed
        Table II cases; case09's result comes from accepted timing
        rounds, so the re-assigned round path is replayed too."""
        case = load_case(name)
        result = SynergisticRouter(case.system, case.netlist).route()
        if name == "case09":
            assert result.timing_reroute_moves > 0
        assert TdmTransmissionSimulator(result.solution).validate_model() == []
