"""Unit tests for weight estimation, Floyd-Warshall and ordering."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ordering import (
    WeightMode,
    estimate_edge_weights,
    estimate_sll_pressure,
    floyd_warshall,
    order_connections,
    select_weight_mode,
)
from repro.netlist import Net, Netlist
from repro.route.graph import RoutingGraph
from tests.conftest import build_two_fpga_system, random_netlist


@pytest.fixture
def graph():
    return RoutingGraph(build_two_fpga_system())


class TestWeightModes:
    def test_forced_delay_mode(self, graph):
        netlist = Netlist([Net("a", 0, (1,))])
        weights = estimate_edge_weights(graph, netlist, "delay")
        assert np.all(weights[~graph.is_tdm] == 1.0)
        assert np.all(weights[graph.is_tdm] == graph.num_dies + 1)

    def test_forced_congestion_mode(self, graph):
        netlist = Netlist([Net("a", 0, (1,))])
        weights = estimate_edge_weights(graph, netlist, "congestion")
        assert np.all(weights[~graph.is_tdm] == graph.num_dies + 1)
        assert np.all(weights[graph.is_tdm] == 1.0)

    def test_unknown_mode_rejected(self, graph):
        with pytest.raises(ValueError):
            estimate_edge_weights(graph, Netlist([]), "bogus")

    def test_auto_low_pressure_is_delay_driven(self):
        system = build_two_fpga_system(sll_capacity=1000)
        graph = RoutingGraph(system)
        netlist = random_netlist(system, 20)
        assert select_weight_mode(graph, netlist) is WeightMode.DELAY_DRIVEN

    def test_auto_high_pressure_is_congestion_driven(self):
        system = build_two_fpga_system(sll_capacity=4)
        graph = RoutingGraph(system)
        netlist = random_netlist(system, 200)
        assert select_weight_mode(graph, netlist) is WeightMode.CONGESTION_DRIVEN


class TestSllPressure:
    def test_zero_for_empty_netlist(self, graph):
        assert estimate_sll_pressure(graph, Netlist([])) == 0.0

    def test_counts_nets_not_connections(self):
        system = build_two_fpga_system(sll_capacity=10)
        graph = RoutingGraph(system)
        # One net with two sinks behind the same first hop: 1 net on (0,1).
        netlist = Netlist([Net("a", 0, (2, 3))])
        pressure = estimate_sll_pressure(graph, netlist)
        assert pressure == pytest.approx(1 / 10)

    def test_scales_with_traffic(self):
        system = build_two_fpga_system(sll_capacity=10)
        graph = RoutingGraph(system)
        netlist = Netlist([Net(f"n{i}", 0, (1,)) for i in range(5)])
        assert estimate_sll_pressure(graph, netlist) == pytest.approx(0.5)


class TestFloydWarshall:
    def test_matches_networkx(self, graph):
        weights = np.arange(1, graph.num_edges + 1, dtype=float)
        dist = floyd_warshall(graph, weights)
        nxg = nx.Graph()
        for e in range(graph.num_edges):
            nxg.add_edge(int(graph.die_a[e]), int(graph.die_b[e]), weight=float(weights[e]))
        expected = dict(nx.all_pairs_dijkstra_path_length(nxg))
        for a in range(graph.num_dies):
            for b in range(graph.num_dies):
                assert dist[a, b] == pytest.approx(expected[a][b])

    def test_diagonal_zero(self, graph):
        dist = floyd_warshall(graph, np.ones(graph.num_edges))
        assert np.all(np.diag(dist) == 0.0)


class TestOrderConnections:
    def test_descending_weight(self, graph):
        netlist = Netlist(
            [
                Net("near", 0, (1,)),    # weight 1
                Net("far", 0, (3,)),     # weight 3
            ]
        )
        dist = floyd_warshall(graph, np.ones(graph.num_edges))
        order = order_connections(netlist, dist)
        assert order == [1, 0]

    def test_fanout_breaks_ties(self, graph):
        netlist = Netlist(
            [
                Net("wide", 0, (3, 1, 2)),  # fanout 3, includes a weight-3 conn
                Net("thin", 0, (3,)),       # fanout 1, same weight-3 conn
            ]
        )
        dist = floyd_warshall(graph, np.ones(graph.num_edges))
        order = order_connections(netlist, dist)
        # The weight-3 connection of the *thin* net routes first.
        thin_conn = netlist.connection_indices_of(1)[0]
        wide_far_conn = netlist.connection_indices_of(0)[0]  # sink 3 listed first
        assert order.index(thin_conn) < order.index(wide_far_conn)

    def test_deterministic(self, graph):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 50, seed=11)
        dist = floyd_warshall(graph, np.ones(graph.num_edges))
        assert order_connections(netlist, dist) == order_connections(netlist, dist)

    @settings(max_examples=60, deadline=None)
    @given(
        nets=st.lists(
            st.tuples(
                st.integers(0, 7), st.lists(st.integers(0, 7), min_size=1, max_size=4)
            ),
            max_size=30,
        ),
        weights=st.lists(
            st.sampled_from([0.0, 1.0, 2.0, np.inf]), min_size=9, max_size=9
        ),
    )
    def test_matches_sorted_key_oracle(self, nets, weights):
        # Few weight values and small fanouts make ties common; an edge of
        # weight inf can leave a pair unreachable.
        graph = RoutingGraph(build_two_fpga_system(num_tdm_edges=3))
        netlist = Netlist(
            [Net(f"n{i}", source, tuple(sinks)) for i, (source, sinks) in enumerate(nets)]
        )
        dist = floyd_warshall(graph, np.asarray(weights))
        order = order_connections(netlist, dist)
        assert order == _sorted_key_order(netlist, dist)
        assert all(type(index) is int for index in order)


def _sorted_key_order(netlist, dist):
    """The per-connection sort key ``order_connections`` replaced: the oracle."""
    dist_rows = dist.tolist()
    fanouts = [net.fanout for net in netlist.nets]
    connections = netlist.connections

    def key(conn_index):
        conn = connections[conn_index]
        weight = dist_rows[conn.source_die][conn.sink_die]
        return (-weight, fanouts[conn.net_index], conn_index)

    return sorted(range(netlist.num_connections), key=key)
