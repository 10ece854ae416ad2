"""Unit tests for the routing solution container."""

import pytest

from repro.drc import DesignRuleChecker, ViolationKind
from repro.netlist import Net, Netlist
from repro.route.solution import RoutingSolution
from repro.timing import DelayModel
from tests.conftest import build_two_fpga_system


@pytest.fixture
def case():
    system = build_two_fpga_system()
    netlist = Netlist(
        [
            Net("a", 0, (2, 4)),   # conns 0 (0->2), 1 (0->4)
            Net("b", 1, (2,)),     # conn 2
            Net("c", 7, (0,)),     # conn 3
        ]
    )
    return system, netlist


class TestPaths:
    def test_set_and_get(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1, 2])
        assert solution.path(0) == (0, 1, 2)
        assert solution.path(1) is None
        assert not solution.is_complete

    def test_endpoint_mismatch_rejected(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        with pytest.raises(ValueError, match="does not run"):
            solution.set_path(0, [0, 1])  # sink of conn 0 is die 2

    def test_invalid_hop_rejected(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        with pytest.raises(ValueError, match="not adjacent"):
            solution.set_path(0, [0, 2])

    def test_set_paths_matches_set_path_per_connection(self, case):
        system, netlist = case
        paths = [[0, 1, 2], None, (1, 2), [7, 0]]
        bulk = RoutingSolution(system, netlist)
        bulk.set_paths(paths)
        single = RoutingSolution(system, netlist)
        for index, path in enumerate(paths):
            if path is not None:
                single.set_path(index, path)
        assert bulk.paths() == single.paths() == [(0, 1, 2), None, (1, 2), (7, 0)]
        for index in (0, 2, 3):
            assert bulk.path_hops(index) == single.path_hops(index)
        assert bulk.unrouted_connections() == [1]
        assert bulk.edge_demand(bulk.path_hops(3)[0][0]) == 1

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0, 1], "does not run"),
            ([], "does not run"),
            ([0, 1, 0, 1, 2], "revisits"),
            ([0, 2], "not adjacent"),
        ],
    )
    def test_set_paths_rejects_as_set_path_does(self, case, bad, message):
        system, netlist = case
        with pytest.raises(ValueError) as single:
            RoutingSolution(system, netlist).set_path(0, bad)
        solution = RoutingSolution(system, netlist)
        solution.set_path(2, [1, 2])
        with pytest.raises(ValueError, match=message) as bulk:
            solution.set_paths([bad, None, None, [7, 0]])
        assert str(bulk.value) == str(single.value)
        # A rejected call leaves every path as it was.
        assert solution.paths() == [None, None, (1, 2), None]

    def test_set_paths_needs_one_entry_per_connection(self, case):
        system, netlist = case
        with pytest.raises(ValueError, match="1 paths for 4 connections"):
            RoutingSolution(system, netlist).set_paths([None])

    def test_clear_path(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1, 2])
        solution.clear_path(0)
        assert solution.path(0) is None
        assert 0 in solution.unrouted_connections()

    def test_path_hops_requires_route(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        with pytest.raises(ValueError, match="unrouted"):
            solution.path_hops(0)


class TestDemandCounting:
    def test_demand_counts_distinct_nets(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        edge01 = system.edge_between(0, 1).index
        # Net a uses edge (0,1) on both its connections; net b does not.
        solution.set_path(0, [0, 1, 2])
        solution.set_path(1, [0, 1, 2, 3, 4])
        solution.set_path(2, [1, 2])
        assert solution.edge_demand(edge01) == 1
        assert solution.edge_nets(edge01) == {0}

    def test_directed_tdm_nets(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        tdm34 = system.edge_between(3, 4).index
        solution.set_path(1, [0, 1, 2, 3, 4])   # crosses 3->4: direction 0
        solution.set_path(3, [7, 6, 5, 4, 3, 2, 1, 0])  # crosses 4->3: direction 1
        assert solution.directed_tdm_nets(tdm34, 0) == [0]
        assert solution.directed_tdm_nets(tdm34, 1) == [2]

    def test_net_uses(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        tdm34 = system.edge_between(3, 4).index
        solution.set_path(1, [0, 1, 2, 3, 4])
        uses = solution.net_uses(0)
        assert uses == [(0, tdm34, 0)]
        assert solution.all_net_uses() == uses


class TestOverflow:
    def test_sll_overflow_reported(self):
        system = build_two_fpga_system(sll_capacity=1)
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 0, (1,))])
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1])
        solution.set_path(1, [0, 1])
        overflows = solution.sll_overflows()
        assert len(overflows) == 1
        assert overflows[0].demand == 2 and overflows[0].capacity == 1
        assert overflows[0].excess == 1
        assert solution.conflict_count() == 1

    def test_clean_solution_has_no_conflicts(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1, 2])
        assert solution.conflict_count() == 0

    @pytest.mark.parametrize("tdm_maps_first", [True, False])
    def test_overflow_counts_agree_with_tdm_maps_and_drc(self, tdm_maps_first):
        system = build_two_fpga_system(sll_capacity=1)
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 0, (1,))])
        solution = RoutingSolution(system, netlist)
        # Both nets detour over both TDM edges and five SLL edges.
        detour = [0, 7, 6, 5, 4, 3, 2, 1]
        solution.set_path(0, detour)
        solution.set_path(1, detour)
        tdm07 = system.edge_between(0, 7).index
        tdm34 = system.edge_between(3, 4).index
        sll_used = sorted(
            system.edge_between(a, b).index
            for a, b in ((7, 6), (6, 5), (5, 4), (3, 2), (2, 1))
        )

        def counts():
            return (
                solution.conflict_count(),
                sorted((o.edge_index, o.demand) for o in solution.sll_overflows()),
                [solution.edge_demand(edge.index) for edge in system.edges],
            )

        if tdm_maps_first:
            uses = solution.all_net_uses()
            first = counts()
        else:
            first = counts()
            uses = solution.all_net_uses()
        assert first[0] == 5
        assert first[1] == [(edge, 2) for edge in sll_used]
        assert first[2] == [
            2 if edge.index in sll_used or edge.index in (tdm07, tdm34) else 0
            for edge in system.edges
        ]
        assert sorted(uses) == sorted(
            (net, edge, direction)
            for net in (0, 1)
            for edge, direction in solution.path_hops(0)
            if edge in (tdm07, tdm34)
        )
        assert solution.directed_tdm_nets(tdm07, solution.path_hops(0)[0][1]) == [0, 1]
        report = DesignRuleChecker(system, netlist, DelayModel()).check(
            solution, check_wires=False
        )
        assert report.count(ViolationKind.SLL_CAPACITY) == len(first[1])

        # A path change rebuilds both maps.
        solution.set_path(1, [0, 1])
        assert solution.conflict_count() == 0
        assert solution.edge_nets(system.edge_between(0, 1).index) == {1}
        assert {use[0] for use in solution.all_net_uses()} == {0}


class TestRatios:
    def test_set_and_lookup(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        solution.set_ratio(0, 6, 0, 8)
        assert solution.ratio_of(0, 6, 0) == 8

    def test_non_positive_rejected(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        with pytest.raises(ValueError):
            solution.set_ratio(0, 6, 0, 0)

    def test_missing_raises(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        with pytest.raises(KeyError):
            solution.ratio_of(0, 6, 0)


class TestCopyTopology:
    def test_paths_copied_state_cleared(self, case):
        system, netlist = case
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1, 2])
        solution.set_ratio(0, 6, 0, 8)
        clone = solution.copy_topology()
        assert clone.path(0) == (0, 1, 2)
        assert clone.ratios == {}
        assert clone.wires == {}
        # Mutating the clone leaves the original untouched.
        clone.clear_path(0)
        assert solution.path(0) == (0, 1, 2)

    def test_netlist_mismatch_validation(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (99,))])
        with pytest.raises(ValueError):
            RoutingSolution(system, netlist)
