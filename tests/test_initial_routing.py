"""Unit tests for the phase I initial router."""

from repro import Net, Netlist, RouterConfig
from repro.core.initial_routing import InitialRouter
from tests.conftest import build_two_fpga_system, random_netlist


class TestBasicRouting:
    def test_all_connections_routed(self):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 30, seed=1)
        solution = InitialRouter(system, netlist).route()
        assert solution.is_complete

    def test_paths_match_connections(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (5,))])
        solution = InitialRouter(system, netlist).route()
        path = solution.path(0)
        assert path[0] == 0 and path[-1] == 5

    def test_intra_die_nets_need_no_paths(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 2, (2,))])
        solution = InitialRouter(system, netlist).route()
        assert solution.is_complete  # zero connections
        assert netlist.num_connections == 0

    def test_deterministic(self):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 40, seed=5)
        paths1 = [InitialRouter(system, netlist).route().path(i) for i in range(netlist.num_connections)]
        paths2 = [InitialRouter(system, netlist).route().path(i) for i in range(netlist.num_connections)]
        assert paths1 == paths2


class TestCongestionNegotiation:
    def test_overflow_resolved_when_feasible(self):
        # Capacity 2 per SLL edge, 4 nets wanting edge (0,1): two must
        # detour (e.g. via the TDM loop), which is possible here.
        system = build_two_fpga_system(sll_capacity=2, tdm_capacity=16)
        netlist = Netlist([Net(f"n{i}", 0, (1,)) for i in range(4)])
        router = InitialRouter(system, netlist)
        solution = router.route()
        assert solution.conflict_count() == 0
        assert router.stats.negotiation_rounds >= 1

    def test_infeasible_overflow_reported_not_hidden(self):
        # 1 wire between dies 6 and 7 and no detour for die-7-terminating
        # nets except through TDM... remove the second TDM edge so die 7
        # is reachable only via 6-7 or the (3,4)... build a tighter trap:
        system = build_two_fpga_system(sll_capacity=1, tdm_capacity=16, num_tdm_edges=1)
        # Both nets must reach die 7; the only edges into die 7 are SLL
        # (6,7) with capacity 1 -- structurally infeasible for 2 nets.
        netlist = Netlist([Net("a", 6, (7,)), Net("b", 5, (7,))])
        router = InitialRouter(system, netlist)
        solution = router.route()
        assert solution.is_complete
        assert router.stats.final_overflow >= 1
        assert solution.conflict_count() >= 1

    def test_selective_ripup_quota(self):
        system = build_two_fpga_system(sll_capacity=2)
        netlist = Netlist([Net(f"n{i}", 0, (1,)) for i in range(4)])
        config = RouterConfig(ripup_factor=1.0)
        router = InitialRouter(system, netlist, config=config)
        solution = router.route()
        assert solution.conflict_count() == 0

    def test_full_ripup_still_works(self):
        system = build_two_fpga_system(sll_capacity=2)
        netlist = Netlist([Net(f"n{i}", 0, (1,)) for i in range(4)])
        config = RouterConfig(ripup_factor=float("inf"))
        solution = InitialRouter(system, netlist, config=config).route()
        assert solution.conflict_count() == 0


class TestWeightModeBehaviour:
    def test_delay_mode_prefers_sll(self):
        # Plenty of SLL capacity: a die-1 to die-2 connection should use
        # the direct SLL edge, not a TDM detour.
        system = build_two_fpga_system(sll_capacity=1000)
        netlist = Netlist([Net("a", 1, (2,))])
        config = RouterConfig(weight_mode="delay")
        solution = InitialRouter(system, netlist, config=config).route()
        assert solution.path(0) == (1, 2)

    def test_stats_record_mode(self):
        system = build_two_fpga_system(sll_capacity=1000)
        netlist = random_netlist(system, 10)
        router = InitialRouter(system, netlist, config=RouterConfig(weight_mode="delay"))
        router.route()
        assert router.stats.weight_mode == "delay"

    def test_mu_encourages_sharing(self):
        # A 2-sink net whose sinks sit behind the same TDM edge should
        # share it rather than split across the two TDM edges.
        system = build_two_fpga_system(sll_capacity=1000, tdm_capacity=16)
        netlist = Netlist([Net("a", 3, (4, 5))])
        solution = InitialRouter(system, netlist).route()
        tdm34 = system.edge_between(3, 4).index
        hops0 = dict.fromkeys(e for e, _ in solution.path_hops(0))
        hops1 = dict.fromkeys(e for e, _ in solution.path_hops(1))
        assert tdm34 in hops0 and tdm34 in hops1


class TestStats:
    def test_connection_count(self):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 25, seed=2)
        router = InitialRouter(system, netlist)
        router.route()
        assert router.stats.connections_routed == netlist.num_connections
