"""Unit and property tests for negotiation demand bookkeeping."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pathfinder import NegotiationState
from repro.route.graph import RoutingGraph
from tests.conftest import build_two_fpga_system


@pytest.fixture
def state():
    return NegotiationState(RoutingGraph(build_two_fpga_system(sll_capacity=2)))


class TestDemand:
    def test_counts_nets_not_connections(self, state):
        edge = state.graph.system.edge_between(0, 1).index
        state.add_path(0, [0, 1])
        state.add_path(0, [0, 1, 2])
        assert state.demand[edge] == 1
        state.add_path(1, [0, 1])
        assert state.demand[edge] == 2

    def test_remove_restores(self, state):
        edge = state.graph.system.edge_between(0, 1).index
        state.add_path(0, [0, 1])
        state.add_path(0, [0, 1, 2])
        state.remove_path(0, [0, 1])
        assert state.demand[edge] == 1  # still used by the other connection
        state.remove_path(0, [0, 1, 2])
        assert state.demand[edge] == 0

    def test_remove_unknown_net_raises(self, state):
        with pytest.raises(KeyError):
            state.remove_path(9, [0, 1])

    def test_net_edges_view(self, state):
        state.add_path(0, [0, 1, 2])
        edges = state.net_edges(0)
        e01 = state.graph.system.edge_between(0, 1).index
        e12 = state.graph.system.edge_between(1, 2).index
        assert edges == {e01: 1, e12: 1}


class TestOverflow:
    def test_overflow_detection(self, state):
        for net in range(3):
            state.add_path(net, [0, 1])
        edge = state.graph.system.edge_between(0, 1).index
        assert edge in state.overflowed_sll_edges()
        assert state.overuse(edge) == 1
        assert state.total_overflow() == 1

    def test_tdm_never_overflows(self, state):
        # TDM edge between dies 3 and 4; capacity 16 wires but demand-based
        # overflow does not apply to TDM edges.
        for net in range(40):
            state.add_path(net, [3, 4])
        assert state.overflowed_sll_edges() == []
        assert state.total_overflow() == 0

    def test_nets_on_edge(self, state):
        state.add_path(3, [0, 1])
        state.add_path(5, [0, 1])
        edge = state.graph.system.edge_between(0, 1).index
        assert sorted(state.nets_on_edge(edge)) == [3, 5]
        assert state.nets_on_edges([edge]) == {3, 5}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_add_remove_symmetry(seed):
    """Random add/remove interleavings leave demand consistent."""
    rng = random.Random(seed)
    graph = RoutingGraph(build_two_fpga_system())
    state = NegotiationState(graph)
    live = []  # (net, path)
    paths = [[0, 1], [0, 1, 2], [2, 3, 4], [7, 6], [4, 5, 6, 7], [3, 4]]
    for _ in range(30):
        if live and rng.random() < 0.4:
            net, path = live.pop(rng.randrange(len(live)))
            state.remove_path(net, path)
        else:
            net = rng.randrange(4)
            path = rng.choice(paths)
            state.add_path(net, path)
            live.append((net, path))
    # Recompute demand from scratch and compare.
    expected = [set() for _ in range(graph.num_edges)]
    for net, path in live:
        for a, b in zip(path, path[1:]):
            expected[graph.system.edge_between(a, b).index].add(net)
    assert state.demand == [len(nets) for nets in expected]


# ----------------------------------------------------------------------
# Edge -> nets index against the full scan it replaced
# ----------------------------------------------------------------------
NUM_NETS = 6
PATHS = [[0, 1], [0, 1, 2], [2, 3, 4], [7, 6], [4, 5, 6, 7], [3, 4], [1, 2, 3]]


def scan_nets_on_edge(state, edge_index):
    """Oracle: every net whose edge map holds the edge (the old full scan)."""
    return [
        net_index
        for net_index in range(NUM_NETS)
        if edge_index in (state.net_edges_view(net_index) or {})
    ]


def scan_nets_on_edges(state, edge_indices):
    """Oracle: every net whose edge map meets the edges (the old full scan)."""
    targets = set(edge_indices)
    return {
        net_index
        for net_index in range(NUM_NETS)
        if targets.intersection(state.net_edges_view(net_index) or {})
    }


def assert_index_matches_scan(state, rng):
    for edge_index in range(state.graph.num_edges):
        assert sorted(state.nets_on_edge(edge_index)) == scan_nets_on_edge(
            state, edge_index
        )
    edges = rng.sample(range(state.graph.num_edges), rng.randint(0, 4))
    assert state.nets_on_edges(edges) == scan_nets_on_edges(state, edges)
    overflowed = state.overflowed_sll_edges()
    assert state.nets_on_edges(overflowed) == scan_nets_on_edges(state, overflowed)


@pytest.mark.parametrize("build_at", ["before", "during", "after"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_edge_index_matches_full_scan(build_at, seed):
    """The edge -> nets index equals the full scan it replaced, whether it
    is first built before, part-way through or after a random sequence of
    add_path/add_hops/remove_path calls."""
    rng = random.Random(seed)
    graph = RoutingGraph(build_two_fpga_system(sll_capacity=1))
    state = NegotiationState(graph)
    if build_at == "before":
        assert_index_matches_scan(state, rng)
    steps = 40
    build_step = rng.randrange(steps)
    live = []  # (net, path)
    for step in range(steps):
        if live and rng.random() < 0.4:
            net, path = live.pop(rng.randrange(len(live)))
            state.remove_path(net, path)
        else:
            net = rng.randrange(NUM_NETS)
            path = rng.choice(PATHS)
            if rng.random() < 0.5:
                state.add_path(net, path)
            else:
                state.add_hops(
                    net,
                    [(graph.edge_index_between(a, b), 0) for a, b in zip(path, path[1:])],
                )
            live.append((net, path))
        if build_at == "before" or (build_at == "during" and step >= build_step):
            assert_index_matches_scan(state, rng)
    assert_index_matches_scan(state, rng)


def test_index_is_not_built_by_accounting(state):
    """Paths accounted before the first rip-up query build no index."""
    state.add_path(0, [0, 1, 2])
    state.add_hops(1, [(state.graph.edge_index_between(0, 1), 0)])
    state.remove_path(0, [0, 1, 2])
    assert state._edge_nets is None
    edge = state.graph.edge_index_between(0, 1)
    assert state.nets_on_edge(edge) == [1]
    assert state._edge_nets is not None


def test_nets_on_edge_returns_a_copy(state):
    edge = state.graph.edge_index_between(0, 1)
    state.add_path(3, [0, 1])
    nets = state.nets_on_edge(edge)
    nets.append(99)
    state.add_path(4, [0, 1])
    assert sorted(state.nets_on_edge(edge)) == [3, 4]
