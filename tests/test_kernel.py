"""Tests of the phase I routing kernel (`repro.route.kernel`).

The kernel's contract is exactness: with a fresh ``sync()``, its
array-driven searches must price every edge bit-identically to the
closure-based reference (`dijkstra_path` over `EdgeCostModel.cost`), and
therefore find the same paths at the same total cost.  The property test
drives random graphs, demands and histories through both and compares;
the router-level oracle swaps a closure stand-in for the kernel and
compares whole phase I runs; the unit tests pin the cost-epoch
semantics of ``sync()``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.initial_routing
from repro import DelayModel, Net, Netlist, RouterConfig, SystemBuilder
from repro.core.cost import EdgeCostModel
from repro.core.initial_routing import InitialRouter
from repro.core.ordering import estimate_edge_weights
from repro.core.pathfinder import NegotiationState
from repro.obs import Tracer
from repro.route.dijkstra import dijkstra_path
from repro.route.graph import RoutingGraph
from repro.route.kernel import RoutingKernel

from tests.conftest import build_two_fpga_system, random_netlist


def build_context(
    system,
    config=None,
    weight_mode="delay",
):
    """(graph, cost_model, state) for a system, as the router builds them."""
    graph = RoutingGraph(system)
    config = config if config is not None else RouterConfig()
    netlist = Netlist([Net("seed", 0, (system.num_dies - 1,))])
    weights = estimate_edge_weights(graph, netlist, weight_mode)
    cost_model = EdgeCostModel(graph, DelayModel(), config, weights)
    state = NegotiationState(graph)
    return graph, cost_model, state


def closure_cost(cost_model, state, net_edges):
    """The reference per-relaxation cost closure of the legacy router."""
    demand = state.demand
    cost = cost_model.cost
    net_edges = net_edges if net_edges is not None else {}

    def edge_cost(edge_index, frm, to):
        return cost(edge_index, demand[edge_index], edge_index in net_edges)

    return edge_cost


def path_cost(path, cost_model, state, net_edges, graph):
    """Total cost of a die path under the reference closure."""
    edge_cost = closure_cost(cost_model, state, net_edges)
    total = 0.0
    for frm, to in zip(path, path[1:]):
        total += edge_cost(graph.edge_index_between(frm, to), frm, to)
    return total


# ----------------------------------------------------------------------
# Property: kernel == closure reference
# ----------------------------------------------------------------------
@st.composite
def kernel_scenario(draw):
    """Random system + random pre-existing demand/history + queries."""
    sll_capacity = draw(st.integers(min_value=1, max_value=6))
    tdm_capacity = draw(st.integers(min_value=2, max_value=8))
    num_tdm_edges = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_paths = draw(st.integers(min_value=0, max_value=30))
    history_rounds = draw(st.integers(min_value=0, max_value=3))
    mode = draw(st.sampled_from(["delay", "congestion"]))
    return (
        sll_capacity,
        tdm_capacity,
        num_tdm_edges,
        seed,
        num_paths,
        history_rounds,
        mode,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=kernel_scenario())
def test_kernel_matches_closure_reference(scenario):
    """Kernel paths cost exactly what the closure search's paths cost."""
    (
        sll_capacity,
        tdm_capacity,
        num_tdm_edges,
        seed,
        num_paths,
        history_rounds,
        mode,
    ) = scenario
    system = build_two_fpga_system(
        sll_capacity=sll_capacity,
        tdm_capacity=tdm_capacity,
        num_tdm_edges=num_tdm_edges,
    )
    graph, cost_model, state = build_context(system, weight_mode=mode)
    rng = random.Random(seed)

    # Random pre-existing demand: route arbitrary shortest paths under
    # unit costs and account them to random nets.
    for _ in range(num_paths):
        source = rng.randrange(system.num_dies)
        sink = rng.randrange(system.num_dies)
        if source == sink:
            continue
        path = dijkstra_path(graph.adjacency, source, sink, lambda e, a, b: 1.0)
        state.add_path(rng.randrange(8), path)

    # Random negotiation history on random SLL edge subsets.
    sll_edges = [int(e) for e in graph.sll_edge_indices]
    for _ in range(history_rounds):
        bumped = rng.sample(sll_edges, rng.randint(1, len(sll_edges)))
        cost_model.add_history(bumped)

    kernel = RoutingKernel(graph, cost_model, state)

    for _ in range(12):
        source = rng.randrange(system.num_dies)
        sink = rng.randrange(system.num_dies)
        net_index = rng.randrange(8)
        net_edges = state.net_edges_view(net_index)

        kernel.sync()
        kernel_path = kernel.route(source, sink, net_edges)
        reference_path = dijkstra_path(
            graph.adjacency,
            source,
            sink,
            closure_cost(cost_model, state, net_edges),
        )
        assert (kernel_path is None) == (reference_path is None)
        if kernel_path is None:
            continue
        kernel_cost = path_cost(kernel_path, cost_model, state, net_edges, graph)
        reference_cost = path_cost(
            reference_path, cost_model, state, net_edges, graph
        )
        # Bit-exact, not approximate: the kernel prices edges from the
        # same floats the closure computes.
        assert kernel_cost == reference_cost
        assert kernel_path == reference_path

        # Occasionally mutate state between queries, as negotiation does.
        if rng.random() < 0.5:
            state.add_path(net_index, kernel_path)


# ----------------------------------------------------------------------
# Epoch semantics
# ----------------------------------------------------------------------
class TestCostEpoch:
    def setup_method(self):
        self.system = build_two_fpga_system(sll_capacity=4, tdm_capacity=8)
        self.graph, self.cost_model, self.state = build_context(self.system)
        self.kernel = RoutingKernel(self.graph, self.cost_model, self.state)

    def sll_edge(self):
        return int(self.graph.sll_edge_indices[0])

    def tdm_edge(self):
        return int(self.graph.tdm_edge_indices[0])

    def test_fresh_kernel_is_synced(self):
        assert self.kernel.sync() is False
        assert self.kernel.epoch == 0

    def test_sll_below_capacity_keeps_epoch(self):
        """SLL demand below capacity prices identically: no epoch bump."""
        edge = self.sll_edge()
        a = int(self.graph.die_a[edge])
        b = int(self.graph.die_b[edge])
        self.state.add_path(0, [a, b])
        assert self.kernel.sync() is False
        assert self.kernel.epoch == 0
        assert self.kernel.stats.epoch_bumps == 0

    def test_tdm_demand_bumps_epoch(self):
        edge = self.tdm_edge()
        a = int(self.graph.die_a[edge])
        b = int(self.graph.die_b[edge])
        before = self.kernel.cost_vec[edge]
        self.state.add_path(0, [a, b])
        assert self.kernel.sync() is True
        assert self.kernel.epoch == 1
        assert self.kernel.cost_vec[edge] == self.cost_model.cost(edge, 1, False)
        assert self.kernel.cost_vec[edge] != before

    def test_sll_prospective_overuse_bumps_epoch(self):
        """Demand at capacity turns on the (prospective) pressure factor."""
        edge = self.sll_edge()
        a = int(self.graph.die_a[edge])
        b = int(self.graph.die_b[edge])
        capacity = int(self.graph.capacity[edge])
        for net_index in range(capacity - 1):
            self.state.add_path(net_index, [a, b])
        # demand + 1 <= capacity: the next connection still fits freely.
        assert self.kernel.sync() is False
        self.state.add_path(capacity, [a, b])
        # demand + 1 > capacity: the next connection would overflow.
        assert self.kernel.sync() is True
        assert self.kernel.cost_vec[edge] == self.cost_model.cost(
            edge, capacity, False
        )

    def test_history_bump_bumps_epoch(self):
        edge = self.sll_edge()
        self.cost_model.add_history([edge])
        assert self.kernel.sync() is True
        assert self.kernel.cost_vec[edge] == self.cost_model.cost(edge, 0, False)


# ----------------------------------------------------------------------
# µ overlay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mu", [0.5, 0.25, 0.7])
@pytest.mark.parametrize("weight_mode", ["delay", "congestion"])
def test_mu_overlay_matches_scalar_cost(mu, weight_mode):
    """Patched overlay entries are bit-equal to cost(e, demand, True)."""
    system = build_two_fpga_system(sll_capacity=2, tdm_capacity=4)
    config = RouterConfig(mu_shared=mu)
    graph, cost_model, state = build_context(
        system, config=config, weight_mode=weight_mode
    )
    rng = random.Random(11)
    # Load every edge with assorted demand, including SLL overflow.
    for _ in range(40):
        source = rng.randrange(system.num_dies)
        sink = rng.randrange(system.num_dies)
        if source == sink:
            continue
        path = dijkstra_path(graph.adjacency, source, sink, lambda e, a, b: 1.0)
        state.add_path(rng.randrange(4), path)
    cost_model.add_history([int(e) for e in graph.sll_edge_indices])

    vec = cost_model.cost_vector(state.demand)
    edges = list(range(graph.num_edges))
    cost_model.apply_mu_overlay(vec, state.demand, edges)
    for edge_index in edges:
        expected = cost_model.cost(edge_index, state.demand[edge_index], True)
        assert vec[edge_index] == expected


def test_cost_vector_matches_scalar_cost():
    system = build_two_fpga_system(sll_capacity=2, tdm_capacity=4)
    graph, cost_model, state = build_context(system)
    rng = random.Random(3)
    for _ in range(30):
        source = rng.randrange(system.num_dies)
        sink = rng.randrange(system.num_dies)
        if source == sink:
            continue
        path = dijkstra_path(graph.adjacency, source, sink, lambda e, a, b: 1.0)
        state.add_path(rng.randrange(4), path)
    vec = cost_model.cost_vector(state.demand)
    for edge_index in range(graph.num_edges):
        assert vec[edge_index] == cost_model.cost(
            edge_index, state.demand[edge_index], False
        )


def test_refresh_cost_entries_matches_scalar_cost():
    """Inlined refresh arithmetic stays bit-equal to cost()."""
    system = build_two_fpga_system(sll_capacity=2, tdm_capacity=4)
    graph, cost_model, state = build_context(system)
    vec = cost_model.cost_vector(state.demand)
    rng = random.Random(5)
    for _ in range(30):
        source = rng.randrange(system.num_dies)
        sink = rng.randrange(system.num_dies)
        if source == sink:
            continue
        path = dijkstra_path(graph.adjacency, source, sink, lambda e, a, b: 1.0)
        state.add_path(rng.randrange(4), path)
    cost_model.add_history([int(e) for e in graph.sll_edge_indices])
    cost_model.refresh_cost_entries(vec, state.demand, range(graph.num_edges))
    for edge_index in range(graph.num_edges):
        assert vec[edge_index] == cost_model.cost(
            edge_index, state.demand[edge_index], False
        )


# ----------------------------------------------------------------------
# Router integration: the closure search as a whole-run oracle
# ----------------------------------------------------------------------
class ClosureKernel:
    """Closure-search stand-in for :class:`RoutingKernel`.

    Installed over ``repro.core.initial_routing.RoutingKernel``, it makes
    phase I search with ``dijkstra_path`` over ``EdgeCostModel.cost``
    (with the µ flag for the net's own edges) — the reference the kernel
    must reproduce path for path.
    """

    def __init__(self, graph, cost_model, state, search_stats=None):
        self.graph = graph
        self.cost_model = cost_model
        self.state = state
        self.search_stats = search_stats

    def sync(self):
        # The closure reads demand and history live; only drain the
        # dirty sets, as the real kernel does.
        self.state.drain_dirty()
        self.cost_model.drain_dirty()
        return False

    def route(self, source, sink, net_edges=None):
        return dijkstra_path(
            self.graph.adjacency,
            source,
            sink,
            closure_cost(self.cost_model, self.state, net_edges),
            stats=self.search_stats,
        )

    def publish_stats(self, tracer):
        pass


@pytest.mark.parametrize(
    "sll_capacity, tdm_capacity, num_nets, seed",
    [
        # Never converges: every one of the 30 negotiation rounds runs.
        pytest.param(3, 6, 60, 13, id="unconverged"),
        # Negotiates to a legal topology in a few rounds.
        pytest.param(20, 8, 40, 3, id="converged"),
    ],
)
def test_router_matches_closure_oracle(
    monkeypatch, sll_capacity, tdm_capacity, num_nets, seed
):
    """Phase I on the kernel routes exactly as on the closure search."""
    system = build_two_fpga_system(
        sll_capacity=sll_capacity, tdm_capacity=tdm_capacity
    )
    netlist = random_netlist(system, num_nets, seed=seed)
    runs = []
    for kernel_class in (RoutingKernel, ClosureKernel):
        monkeypatch.setattr(
            repro.core.initial_routing, "RoutingKernel", kernel_class
        )
        router = InitialRouter(system, netlist)
        solution = router.route()
        paths = [solution.path(i) for i in range(netlist.num_connections)]
        runs.append((paths, router.stats.history, router.stats.reroutes))
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2] > 0
    assert runs[0][0] == runs[1][0]


def test_kernel_counters_reach_the_tracer():
    system = build_two_fpga_system(sll_capacity=2, tdm_capacity=6)
    netlist = random_netlist(system, 40, seed=3)
    tracer = Tracer()
    router = InitialRouter(system, netlist, tracer=tracer)
    router.route()
    counters = tracer.snapshot().counters
    assert "kernel.epoch_bumps" in counters
    assert "kernel.overlay_searches" in counters
    assert counters["kernel.epoch_bumps"] >= 1
