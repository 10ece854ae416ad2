"""Unit and property tests for the Lagrangian TDM ratio assignment."""

import numpy as np
import pytest

from repro import DelayModel, Net, Netlist, RouterConfig
from repro.core.incidence import TdmIncidence
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner
from repro.route.solution import RoutingSolution
from tests.conftest import build_two_fpga_system, random_netlist
from tests.oracles import assert_lr_bit_equal, reference_lr


def solve_case(system, netlist, config=None):
    model = DelayModel()
    solution = InitialRouter(system, netlist, model).route()
    inc = TdmIncidence(system, netlist, solution, model)
    assigner = LagrangianTdmAssigner(inc, config or RouterConfig())
    return inc, assigner.solve()


class TestCapacityInvariant:
    def test_per_edge_budget_respected(self):
        system = build_two_fpga_system(tdm_capacity=8)
        netlist = random_netlist(system, 60, seed=13)
        inc, result = solve_case(system, netlist)
        per_edge = {}
        for pair, use in enumerate(inc.uses):
            per_edge.setdefault(use[1], 0.0)
            per_edge[use[1]] += 1.0 / result.ratios[pair]
        for edge_index, total in per_edge.items():
            cap = system.edge(edge_index).capacity
            assert total <= cap - 1 + 1e-6

    def test_min_ratio_clamp(self):
        system = build_two_fpga_system(tdm_capacity=1000)
        netlist = Netlist([Net("a", 3, (4,))])
        inc, result = solve_case(system, netlist)
        assert np.all(result.ratios >= 1.0)


class TestConvergence:
    def test_gap_shrinks(self):
        system = build_two_fpga_system(tdm_capacity=8)
        netlist = random_netlist(system, 80, seed=17)
        _, result = solve_case(system, netlist)
        gaps = [it.gap for it in result.history.iterations]
        assert gaps[-1] < gaps[0]

    def test_lower_bound_never_exceeds_critical(self):
        system = build_two_fpga_system(tdm_capacity=8)
        netlist = random_netlist(system, 80, seed=19)
        _, result = solve_case(system, netlist)
        for it in result.history.iterations:
            assert it.lower_bound <= it.critical_delay + 1e-9

    def test_converged_flag_on_small_case(self):
        system = build_two_fpga_system(tdm_capacity=64)
        netlist = random_netlist(system, 30, seed=23)
        _, result = solve_case(system, netlist)
        assert result.history.converged
        assert result.history.final_gap < RouterConfig().lr_epsilon

    def test_iteration_cap_respected(self):
        system = build_two_fpga_system(tdm_capacity=4)
        netlist = random_netlist(system, 100, seed=29)
        config = RouterConfig(lr_max_iterations=5, lr_epsilon=1e-12)
        _, result = solve_case(system, netlist, config)
        assert result.history.num_iterations <= 5


class TestEqualization:
    def test_symmetric_nets_get_equal_ratios(self):
        # Two identical nets over the same TDM edge must get equal ratios.
        system = build_two_fpga_system(tdm_capacity=8, num_tdm_edges=1)
        netlist = Netlist([Net("a", 3, (4,)), Net("b", 3, (4,))])
        inc, result = solve_case(system, netlist)
        assert result.ratios[0] == pytest.approx(result.ratios[1])

    def test_critical_nets_get_smaller_ratios(self):
        # Net "long" has extra SLL delay; the LR optimum compensates by
        # giving it a smaller TDM ratio than the short net.
        system = build_two_fpga_system(tdm_capacity=2, num_tdm_edges=1)
        netlist = Netlist([Net("long", 0, (4,)), Net("short", 3, (4,))])
        inc, result = solve_case(system, netlist)
        tdm = system.edge_between(3, 4).index
        long_pair = inc.use_index[(0, tdm, 0)]
        short_pair = inc.use_index[(1, tdm, 0)]
        assert result.ratios[long_pair] < result.ratios[short_pair]

    def test_delays_equalize(self):
        system = build_two_fpga_system(tdm_capacity=2, num_tdm_edges=1)
        netlist = Netlist([Net("long", 0, (4,)), Net("short", 3, (4,))])
        _, result = solve_case(system, netlist)
        spread = result.connection_delays.max() - result.connection_delays.min()
        assert spread < 0.5  # near-equalized at the optimum


class TestSubgradientVariant:
    """The subgradient oracle is the comparison point of Eq. 13's update."""

    def test_subgradient_runs_and_is_feasible(self):
        system = build_two_fpga_system(tdm_capacity=8)
        netlist = random_netlist(system, 60, seed=13)
        model = DelayModel()
        solution = InitialRouter(system, netlist, model).route()
        inc = TdmIncidence(system, netlist, solution, model)
        result = reference_lr(inc, update="subgradient")
        per_edge = {}
        for pair, use in enumerate(inc.uses):
            per_edge[use[1]] = per_edge.get(use[1], 0.0) + 1.0 / result.ratios[pair]
        for edge_index, total in per_edge.items():
            assert total <= system.edge(edge_index).capacity - 1 + 1e-6

    def test_accelerated_converges_faster(self):
        system = build_two_fpga_system(tdm_capacity=4)
        netlist = random_netlist(system, 80, seed=37)
        model = DelayModel()
        config = RouterConfig(lr_max_iterations=80)
        solution = InitialRouter(system, netlist, model, config).route()
        inc = TdmIncidence(system, netlist, solution, model)
        fast = LagrangianTdmAssigner(inc, config).solve()
        slow = reference_lr(inc, config, update="subgradient")
        assert fast.history.final_gap <= slow.history.final_gap + 1e-9


class TestEdgeCases:
    def test_no_tdm_usage(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        model = DelayModel()
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1])
        inc = TdmIncidence(system, netlist, solution, model)
        result = LagrangianTdmAssigner(inc).solve()
        assert result.ratios.size == 0
        assert result.history.num_iterations == 0


class TestBufferedSolve:
    """The buffered loop must match the allocating oracle bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("update", ["accelerated"])
    def test_bit_identical_to_unbuffered(self, seed, update):
        system = build_two_fpga_system(
            sll_capacity=20, tdm_capacity=8, num_tdm_edges=3
        )
        netlist = random_netlist(system, 70, seed=seed)
        model = DelayModel()
        solution = InitialRouter(system, netlist, model).route()
        inc = TdmIncidence(system, netlist, solution, model)
        assert_lr_bit_equal(
            LagrangianTdmAssigner(inc).solve(), reference_lr(inc, update=update)
        )

    def test_warm_start_bit_identical(self):
        system = build_two_fpga_system(tdm_capacity=8, num_tdm_edges=3)
        netlist = random_netlist(system, 70, seed=21)
        model = DelayModel()
        solution = InitialRouter(system, netlist, model).route()
        inc = TdmIncidence(system, netlist, solution, model)
        warm = reference_lr(inc).multipliers
        assert_lr_bit_equal(
            LagrangianTdmAssigner(inc).solve(warm_start=warm),
            reference_lr(inc, warm_start=warm),
        )

    def test_warm_start_input_not_mutated(self):
        system = build_two_fpga_system(tdm_capacity=8)
        netlist = random_netlist(system, 40, seed=22)
        model = DelayModel()
        solution = InitialRouter(system, netlist, model).route()
        inc = TdmIncidence(system, netlist, solution, model)
        warm = np.full(inc.num_connections, 1.0 / inc.num_connections)
        snapshot = warm.copy()
        LagrangianTdmAssigner(inc).solve(warm_start=warm)
        assert np.array_equal(warm, snapshot)
