"""Unit tests for the phase I initial router."""

import math
import random

import numpy as np
import pytest

from repro import Net, Netlist, RouterConfig
from repro.core.initial_routing import InitialRouter, InitialRoutingStats
from repro.core.pathfinder import NegotiationState
from repro.route.graph import RoutingGraph
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


# ----------------------------------------------------------------------
# Victim ranking against the per-edge sort it replaced
# ----------------------------------------------------------------------
def sorted_victims(state, overflowed, net_weight, factor):
    """Oracle: per overflowed edge, a full scan for its nets and a
    ``(weight, net)`` sort (the selection before the per-route ranking)."""
    victims = set()
    for edge_index in overflowed:
        nets = [
            net_index
            for net_index in range(len(net_weight))
            if edge_index in (state.net_edges_view(net_index) or {})
        ]
        if factor == float("inf"):
            victims.update(nets)
            continue
        quota = int(math.ceil(factor * state.overuse(edge_index)))
        ranked = sorted(nets, key=lambda n: (net_weight[n], n))
        victims.update(ranked[:quota])
    return victims


class SortedVictimRouter(InitialRouter):
    """Phase I that picks its rip-up victims with the oracle."""

    def _net_victim_ranks(self, dist):
        self.oracle_weights = self._net_routing_weights(dist)
        return super()._net_victim_ranks(dist)

    def _select_victims(self, state, overflowed, net_rank):
        return sorted_victims(
            state, overflowed, self.oracle_weights, self.config.ripup_factor
        )


def tied_dist(system, rng):
    """A distance matrix of three values: many nets tie on weight."""
    size = system.num_dies
    return np.array(
        [[float(rng.choice((1, 2, 3))) for _ in range(size)] for _ in range(size)]
    )


class TestVictimRanking:
    FACTORS = [0.5, 1.0, 2.0, float("inf")]

    @pytest.mark.parametrize("seed", range(4))
    def test_ranks_order_nets_by_weight_then_index(self, seed):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 40, seed=seed)
        router = InitialRouter(system, netlist)
        dist = tied_dist(system, random.Random(seed))
        weights = router._net_routing_weights(dist)
        ranks = router._net_victim_ranks(dist)
        assert len(set(weights)) < len(weights)
        assert sorted(ranks) == list(range(netlist.num_nets))
        assert sorted(range(netlist.num_nets), key=ranks.__getitem__) == sorted(
            range(netlist.num_nets), key=lambda n: (weights[n], n)
        )

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("seed", range(4))
    def test_selection_matches_oracle_through_rip_ups(self, factor, seed):
        """Random overflowed states, then the same states after random
        rip-ups and re-adds (the index kept current in between)."""
        rng = random.Random(seed)
        wide = build_two_fpga_system(sll_capacity=100)
        narrow = build_two_fpga_system(sll_capacity=2)
        netlist = random_netlist(wide, 40, seed=seed)
        routed = InitialRouter(wide, netlist).route()
        router = InitialRouter(
            narrow, netlist, config=RouterConfig(ripup_factor=factor)
        )
        dist = tied_dist(narrow, rng)
        ranks = router._net_victim_ranks(dist)
        weights = router._net_routing_weights(dist)
        state = NegotiationState(RoutingGraph(narrow))
        live = []
        for conn in netlist.connections:
            state.add_path(conn.net_index, routed.path(conn.index))
            live.append((conn.net_index, routed.path(conn.index)))
        for _ in range(5):
            overflowed = state.overflowed_sll_edges()
            assert overflowed
            assert router._select_victims(
                state, overflowed, ranks
            ) == sorted_victims(state, overflowed, weights, factor)
            for _ in range(6):
                net, path = live.pop(rng.randrange(len(live)))
                state.remove_path(net, path)
            for net, path in rng.sample(live, 3):
                state.add_path(net, path)
                live.append((net, path))

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("seed", range(3))
    def test_routes_match_oracle_router(self, factor, seed):
        """Whole negotiated routes equal those of the oracle's selection."""
        system = build_two_fpga_system(sll_capacity=3, tdm_capacity=16)
        netlist = random_netlist(system, 40, seed=seed)
        config = RouterConfig(ripup_factor=factor)
        router = InitialRouter(system, netlist, config=config)
        oracle = SortedVictimRouter(system, netlist, config=config)
        solution = router.route()
        expected = oracle.route()
        assert router.stats.negotiation_rounds >= 1
        assert router.stats.to_dict() == oracle.stats.to_dict()
        assert router.ripped_nets == oracle.ripped_nets
        assert solution.paths() == expected.paths()


# ----------------------------------------------------------------------
# Restoring carried and resumed paths
# ----------------------------------------------------------------------
class TestRestore:
    @pytest.fixture
    def case(self):
        system = build_two_fpga_system()
        assert system.edge_between(0, 2) is None
        return system, Netlist([Net("a", 0, (2,)), Net("b", 1, (3,))])

    @staticmethod
    def _payload(system, paths):
        return {
            "round": 0,
            "paths": paths,
            "history": [0.0] * RoutingGraph(system).num_edges,
            "stats": InitialRoutingStats().to_dict(),
        }

    def test_carried_paths_are_kept(self, case):
        system, netlist = case
        routed = InitialRouter(system, netlist).route()
        router = InitialRouter(system, netlist)
        solution = router.route(carried=routed.paths())
        assert solution.paths() == routed.paths()
        assert router.stats.connections_routed == 0

    def test_resumed_json_lists_match_carried_tuples(self, case):
        system, netlist = case
        routed = InitialRouter(system, netlist).route()
        lists = [list(path) for path in routed.paths()]
        solution = InitialRouter(system, netlist).route(
            resume=self._payload(system, lists)
        )
        assert solution.paths() == routed.paths()

    def test_carried_non_adjacent_path_rejected(self, case):
        system, netlist = case
        with pytest.raises(ValueError, match="not adjacent"):
            InitialRouter(system, netlist).route(carried=[(0, 2), None])

    def test_resumed_non_adjacent_path_rejected(self, case):
        system, netlist = case
        with pytest.raises(ValueError, match="not adjacent"):
            InitialRouter(system, netlist).route(
                resume=self._payload(system, [[0, 2], None])
            )

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_saved_paths_rejected(self, case, count):
        system, netlist = case
        with pytest.raises(ValueError, match="saved paths for 2 connections"):
            InitialRouter(system, netlist).route(carried=[None] * count)
        with pytest.raises(ValueError, match="saved paths for 2 connections"):
            InitialRouter(system, netlist).route(
                resume=self._payload(system, [None] * count)
            )
