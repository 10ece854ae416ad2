"""The per-connection passes that the topology index replaced, as oracles.

A routing topology is one path id per connection into a table of
distinct die paths, and every per-connection reader works on the
memoized :class:`repro.route.solution.TopologyIndex`.  The loops below
are the code those readers replaced, kept verbatim in behaviour:

* :func:`restore_oracle` — ``InitialRouter._restore``: one
  ``NegotiationState.add_path`` per saved path;
* :func:`rebuild_state_oracle` — ``TimingDrivenRefiner._rebuild_state``:
  one ``add_hops`` per routed connection;
* :func:`analyze_oracle` — ``TimingAnalyzer.analyze``: two accumulators
  per connection, a ratio lookup per TDM hop;
* :func:`edge_nets_oracle` / :func:`tdm_uses_oracle` — the solution's
  ``_ensure_edge_nets`` / ``_ensure_tdm_uses`` scans;
* :func:`sll_pressure_oracle` — ``estimate_sll_pressure`` with per-edge
  Python sets.

Hypothesis draws small topologies with repeated paths, unrouted
connections, nets without connections, SLL-only and TDM-only paths, and
missing ratios, and checks the new code against each oracle exactly.
"""

from __future__ import annotations

import random
import sys
import threading
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import SystemBuilder
from repro.arch.edges import EdgeKind
from repro.benchgen import load_case
from repro.core.ordering import estimate_sll_pressure
from repro.core.pathfinder import NegotiationState
from repro.core.timing_reroute import TimingDrivenRefiner
from repro.netlist import Net, Netlist
from repro.route.dijkstra import dijkstra_all, extract_path
from repro.route.graph import RoutingGraph
from repro.route.solution import RoutingSolution
from repro.route.tree import path_to_edge_list
from repro.timing import DelayModel, TimingAnalyzer
from repro.timing.analysis import TimingReport
from tests.conftest import build_two_fpga_system, random_netlist

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Oracles: the replaced per-connection passes
# ----------------------------------------------------------------------
def restore_oracle(state: NegotiationState, saved, net_of: List[int]) -> None:
    """``InitialRouter._restore``: account each saved path in turn."""
    for conn_index, path in enumerate(saved):
        if path is not None:
            state.add_path(net_of[conn_index], path)


def rebuild_state_oracle(graph, netlist, solution) -> NegotiationState:
    """``TimingDrivenRefiner._rebuild_state``: one ``add_hops`` per path."""
    state = NegotiationState(graph)
    for conn in netlist.connections:
        if solution.path(conn.index) is not None:
            state.add_hops(conn.net_index, solution.path_hops(conn.index))
    return state


def analyze_oracle(system, netlist, model, solution, assume_min_ratio=False):
    """``TimingAnalyzer.analyze``: the per-connection, per-hop loop."""
    delays: List[float] = []
    net_worst: Dict[int, float] = {}
    critical = 0.0
    critical_index = -1
    is_tdm = [e.kind is EdgeKind.TDM for e in system.edges]
    ratio_get = solution.ratios.get
    for conn in netlist.connections:
        net_index = conn.net_index
        sll_sum = 0.0
        tdm_sum = 0.0
        for edge_index, direction in solution.path_hops(conn.index):
            if is_tdm[edge_index]:
                ratio = ratio_get((net_index, edge_index, direction))
                if ratio is None:
                    if not assume_min_ratio:
                        raise KeyError(
                            f"no TDM ratio for net {net_index} on edge "
                            f"{edge_index} direction {direction}"
                        )
                    ratio = model.tdm_step
                tdm_sum += model.tdm_delay(ratio)
            else:
                sll_sum += model.d_sll
        delay = sll_sum + tdm_sum
        delays.append(delay)
        worst = net_worst.get(net_index, 0.0)
        if delay > worst:
            net_worst[net_index] = delay
        if delay > critical:
            critical = delay
            critical_index = conn.index
    return TimingReport(
        critical_delay=critical,
        critical_connection=critical_index,
        delays=delays,
        net_worst_delay=net_worst,
    )


def edge_nets_oracle(solution) -> List[Set[int]]:
    """The solution's old ``_ensure_edge_nets``: nets grouped by path."""
    nets_by_path: Dict[Tuple[int, ...], Set[int]] = {}
    for path, net_index in zip(
        solution.paths(), solution.netlist.connection_net_indices().tolist()
    ):
        if path is not None:
            nets_by_path.setdefault(path, set()).add(net_index)
    edge_nets: List[Set[int]] = [set() for _ in range(solution.system.num_edges)]
    for path, nets in nets_by_path.items():
        for edge_index, _ in path_to_edge_list(solution.system, path):
            edge_nets[edge_index].update(nets)
    return edge_nets


def tdm_uses_oracle(solution):
    """The solution's old ``_ensure_tdm_uses``: one scan over the hops."""
    net_uses: Dict[int, list] = {}
    directed_nets: Dict[Tuple[int, int], List[int]] = {}
    is_tdm = [edge.kind is EdgeKind.TDM for edge in solution.system.edges]
    seen = set()
    for conn in solution.netlist.connections:
        if solution.path(conn.index) is None:
            continue
        for edge_index, direction in solution.path_hops(conn.index):
            if is_tdm[edge_index]:
                use = (conn.net_index, edge_index, direction)
                if use not in seen:
                    seen.add(use)
                    net_uses.setdefault(conn.net_index, []).append(use)
                    directed_nets.setdefault((edge_index, direction), []).append(
                        conn.net_index
                    )
    return net_uses, directed_nets


def sll_pressure_oracle(graph, netlist) -> float:
    """``estimate_sll_pressure`` with a Python set of nets per edge."""
    sll_edges = graph.sll_edge_indices
    if sll_edges.size == 0 or netlist.num_connections == 0:
        return 0.0
    nets_per_edge = [set() for _ in range(graph.num_edges)]
    prev_by_source = {}
    sll_edges_of_pair = {}
    edge_of = graph.edge_index_between
    is_tdm = graph.is_tdm.tolist()
    unit = lambda e, a, b: 1.0  # noqa: E731
    for conn in netlist.connections:
        pair = (conn.source_die, conn.sink_die)
        edges = sll_edges_of_pair.get(pair)
        if edges is None:
            prev = prev_by_source.get(conn.source_die)
            if prev is None:
                _, prev = dijkstra_all(graph.adjacency, conn.source_die, unit)
                prev_by_source[conn.source_die] = prev
            path = extract_path(prev, conn.source_die, conn.sink_die)
            edges = [
                edge_index
                for edge_index in (
                    edge_of(frm, to) for frm, to in zip(path, path[1:])
                )
                if not is_tdm[edge_index]
            ]
            sll_edges_of_pair[pair] = edges
        for edge_index in edges:
            nets_per_edge[edge_index].add(conn.net_index)
    return max(
        len(nets_per_edge[int(e)]) / float(graph.capacity[int(e)]) for e in sll_edges
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _system(num_tdm_edges: int):
    return build_two_fpga_system(sll_capacity=2, num_tdm_edges=num_tdm_edges)


@lru_cache(maxsize=None)
def simple_paths(num_tdm_edges: int, source: int, sink: int) -> Tuple[tuple, ...]:
    """Every loop-free die path from ``source`` to ``sink``, sorted."""
    system = _system(num_tdm_edges)
    found = []

    def walk(path):
        if path[-1] == sink:
            found.append(tuple(path))
            return
        for _, other in system.neighbors(path[-1]):
            if other not in path:
                walk(path + [other])

    walk([source])
    return tuple(sorted(found))


@st.composite
def topologies(draw, unrouted: bool = True):
    """(system, netlist, paths): nets may have no connection; paths repeat,
    run over SLL edges only, TDM edges only or both, and (when
    ``unrouted``) may be missing."""
    num_tdm_edges = draw(st.integers(1, 3))
    system = _system(num_tdm_edges)
    nets = [
        Net(
            f"n{i}",
            draw(st.integers(0, 7)),
            tuple(draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))),
        )
        for i in range(draw(st.integers(0, 10)))
    ]
    netlist = Netlist(nets)
    paths: List[Optional[Tuple[int, ...]]] = []
    for conn in netlist.connections:
        options = simple_paths(num_tdm_edges, conn.source_die, conn.sink_die)
        choice = draw(st.integers(-1 if unrouted else 0, len(options) - 1))
        paths.append(None if choice < 0 else options[choice])
    return system, netlist, paths


def _solution(system, netlist, paths) -> RoutingSolution:
    solution = RoutingSolution(system, netlist)
    solution.set_paths(paths)
    return solution


def _assert_states_equal(new: NegotiationState, old: NegotiationState, num_nets):
    assert new.demand == old.demand
    assert new._dirty == old._dirty
    for net_index in range(num_nets):
        assert new.net_edges_view(net_index) == old.net_edges_view(net_index)
    for edge_index in range(len(old.demand)):
        assert set(new.nets_on_edge(edge_index)) == set(old.nets_on_edge(edge_index))


# ----------------------------------------------------------------------
# Negotiation state: bulk load vs add_path / add_hops
# ----------------------------------------------------------------------
class TestBulkLoad:
    @SETTINGS
    @given(topologies(), st.randoms(use_true_random=False))
    def test_load_matches_restore_through_rip_ups(self, drawn, rng):
        system, netlist, paths = drawn
        graph = RoutingGraph(system)
        net_of = netlist.connection_net_indices().tolist()
        old = NegotiationState(graph)
        restore_oracle(old, paths, net_of)
        new = NegotiationState(graph)
        new.load(*_solution(system, netlist, paths).topology_index().net_edge_counts())
        assert new.demand == old.demand
        assert new._dirty == old._dirty
        # Touch nets and edges in a random order: rip up some paths, read
        # the reverse map at random points, re-add other paths.
        live = [index for index, path in enumerate(paths) if path is not None]
        rng.shuffle(live)
        for conn_index in live[: rng.randint(0, len(live))]:
            for state in (old, new):
                state.remove_path(net_of[conn_index], paths[conn_index])
            if rng.random() < 0.5:
                edge = rng.randrange(graph.num_edges)
                assert set(new.nets_on_edge(edge)) == set(old.nets_on_edge(edge))
            if rng.random() < 0.5:
                conn = netlist.connections[conn_index]
                options = simple_paths(
                    len(system.tdm_edges), conn.source_die, conn.sink_die
                )
                path = rng.choice(options)
                for state in (old, new):
                    state.add_path(net_of[conn_index], path)
        _assert_states_equal(new, old, netlist.num_nets)

    @SETTINGS
    @given(topologies())
    def test_refiner_rebuild_matches_add_hops(self, drawn):
        system, netlist, paths = drawn
        solution = _solution(system, netlist, paths)
        refiner = TimingDrivenRefiner(system, netlist, DelayModel())
        new = refiner._rebuild_state(solution)
        old = rebuild_state_oracle(RoutingGraph(system), netlist, solution)
        _assert_states_equal(new, old, netlist.num_nets)

    def test_load_needs_a_fresh_state(self):
        system = _system(2)
        state = NegotiationState(RoutingGraph(system))
        state.add_path(0, [0, 1])
        empty = _solution(system, Netlist([]), []).topology_index()
        with pytest.raises(ValueError, match="without accounted paths"):
            state.load(*empty.net_edge_counts())

    def test_per_net_maps_wait_for_a_touch(self):
        system = _system(2)
        netlist = Netlist([Net("a", 0, (2,)), Net("b", 1, (3,))])
        solution = _solution(system, netlist, [(0, 1, 2), (1, 2, 3)])
        state = NegotiationState(RoutingGraph(system))
        state.load(*solution.topology_index().net_edge_counts())
        assert state._net_edge_count == {}
        edge = RoutingGraph(system).edge_index_between(1, 2)
        assert sorted(state.nets_on_edge(edge)) == [0, 1]
        assert state._net_edge_count == {}
        assert state.net_edges_view(1) == {
            edge: 1,
            RoutingGraph(system).edge_index_between(2, 3): 1,
        }
        assert list(state._net_edge_count) == [1]


# ----------------------------------------------------------------------
# Timing analysis vs the per-connection loop
# ----------------------------------------------------------------------
def _outcome(call):
    try:
        report = call()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return (
        report.critical_delay,
        report.critical_connection,
        report.delays,
        list(report.net_worst_delay.items()),
    )


class TestAnalyze:
    @SETTINGS
    @given(
        topologies(),
        # A small pool makes delays tie, so the first maximum matters.
        st.lists(
            st.sampled_from([0.125, 0.3, 8.0, 16.0, 64.0]), min_size=1, max_size=4
        ),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.sampled_from(
            [DelayModel(), DelayModel(d_sll=0.1, d0=0.3, d1=0.7, tdm_step=2)]
        ),
    )
    def test_matches_per_connection_loop(
        self, drawn, ratio_pool, missing_share, assume_min_ratio, model
    ):
        system, netlist, paths = drawn
        solution = _solution(system, netlist, paths)
        rng = random.Random(len(ratio_pool))
        for use in tdm_uses_oracle(solution)[0].values():
            for net_index, edge_index, direction in use:
                if rng.random() >= missing_share:
                    solution.set_ratio(
                        net_index, edge_index, direction, rng.choice(ratio_pool)
                    )
        analyzer = TimingAnalyzer(system, netlist, model)
        new = _outcome(lambda: analyzer.analyze(solution, assume_min_ratio))
        old = _outcome(
            lambda: analyze_oracle(system, netlist, model, solution, assume_min_ratio)
        )
        assert new == old

    def test_errors_name_the_first_offending_connection(self):
        system = _system(2)
        netlist = Netlist([Net("a", 0, (7,)), Net("b", 0, (1,)), Net("c", 3, (4,))])
        model = DelayModel()
        analyzer = TimingAnalyzer(system, netlist, model)
        solution = _solution(system, netlist, [(0, 7), None, (3, 4)])
        # Connection 0 lacks a ratio before connection 1 is found unrouted.
        with pytest.raises(KeyError, match="no TDM ratio for net 0 on edge"):
            analyzer.analyze(solution)
        # With minimum ratios, the unrouted connection raises.
        with pytest.raises(ValueError, match="connection 1 is unrouted"):
            analyzer.analyze(solution, assume_min_ratio=True)
        for use in solution.net_uses(0):
            solution.set_ratio(*use, 8.0)
        with pytest.raises(ValueError, match="connection 1 is unrouted"):
            analyzer.analyze(solution)

    def test_six_sll_hops_sum_hop_by_hop(self):
        # 0.1 added six times is 0.6, but 6 * 0.1 is 0.6000000000000001.
        builder = SystemBuilder()
        builder.add_fpga(num_dies=7, sll_capacity=4)
        system = builder.build()
        netlist = Netlist([Net("a", 0, (6,))])
        solution = _solution(system, netlist, [tuple(range(7))])
        model = DelayModel(d_sll=0.1)
        report = TimingAnalyzer(system, netlist, model).analyze(solution)
        assert report.delays == analyze_oracle(system, netlist, model, solution).delays
        assert report.delays == [0.1 + 0.1 + 0.1 + 0.1 + 0.1 + 0.1]

    def test_ties_pick_the_first_connection(self):
        system = _system(2)
        netlist = Netlist([Net("a", 0, (1, 2)), Net("b", 1, (2,)), Net("c", 0, (2,))])
        solution = _solution(system, netlist, [(0, 1), (0, 1, 2), (1, 2), (0, 1, 2)])
        report = TimingAnalyzer(system, netlist, DelayModel()).analyze(solution)
        assert report.delays == [0.5, 1.0, 0.5, 1.0]
        assert (report.critical_delay, report.critical_connection) == (1.0, 1)
        assert list(report.net_worst_delay.items()) == [(0, 1.0), (1, 0.5), (2, 1.0)]

    def test_zero_delays_have_no_critical_connection(self):
        system = _system(2)
        netlist = Netlist([Net("a", 0, (1,)), Net("b", 4, (4,))])
        solution = _solution(system, netlist, [(0, 1)])
        report = TimingAnalyzer(system, netlist, DelayModel(d_sll=0.0)).analyze(
            solution
        )
        assert (report.critical_delay, report.critical_connection) == (0.0, -1)
        assert report.net_worst_delay == {}


# ----------------------------------------------------------------------
# Derived usage maps vs the old scans
# ----------------------------------------------------------------------
class TestDerivedMaps:
    @SETTINGS
    @given(topologies())
    def test_usage_maps_match_scans(self, drawn):
        system, netlist, paths = drawn
        solution = _solution(system, netlist, paths)
        edge_nets = edge_nets_oracle(solution)
        for edge in system.edges:
            assert solution.edge_nets(edge.index) == edge_nets[edge.index]
            assert solution.edge_demand(edge.index) == len(edge_nets[edge.index])
        assert solution.conflict_count() == sum(
            max(0, len(edge_nets[edge.index]) - edge.capacity)
            for edge in system.sll_edges
        )
        net_uses, directed_nets = tdm_uses_oracle(solution)
        for net_index in range(netlist.num_nets):
            assert solution.net_uses(net_index) == net_uses.get(net_index, [])
        assert solution.all_net_uses() == [
            use for uses in net_uses.values() for use in uses
        ]
        for edge in system.tdm_edges:
            for direction in (0, 1):
                assert solution.directed_tdm_nets(
                    edge.index, direction
                ) == directed_nets.get((edge.index, direction), [])

    @SETTINGS
    @given(topologies())
    def test_copies_share_the_table_not_the_paths(self, drawn):
        system, netlist, paths = drawn
        solution = _solution(system, netlist, paths)
        clone = solution.copy_topology()
        assert clone.paths() == solution.paths() == list(paths)
        assert clone._table is solution._table
        for index, path in enumerate(paths):
            if path is not None:
                clone.clear_path(index)
                assert solution.path(index) == path
                assert clone.path(index) is None
                break


# ----------------------------------------------------------------------
# SLL pressure vs per-edge Python sets
# ----------------------------------------------------------------------
class TestSllPressure:
    @pytest.mark.parametrize("num_tdm_edges", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_netlists(self, num_tdm_edges, seed):
        system = build_two_fpga_system(sll_capacity=3, num_tdm_edges=num_tdm_edges)
        netlist = random_netlist(system, 30, seed=seed)
        graph = RoutingGraph(system)
        assert estimate_sll_pressure(graph, netlist) == sll_pressure_oracle(
            graph, netlist
        )

    @pytest.mark.parametrize("name", ["case02", "case05", "case07"])
    def test_table2_cases(self, name):
        case = load_case(name)
        graph = RoutingGraph(case.system)
        assert estimate_sll_pressure(graph, case.netlist) == sll_pressure_oracle(
            graph, case.netlist
        )

    def test_no_connections(self):
        graph = RoutingGraph(_system(2))
        assert estimate_sll_pressure(graph, Netlist([Net("a", 1, (1,))])) == 0.0


# ----------------------------------------------------------------------
# A path table shared across threads
# ----------------------------------------------------------------------
def test_shared_table_gives_each_path_one_id_under_contention():
    """Solutions derived from one base (concurrent ECO migrates) append to
    one table; racing appends must neither lose a path nor give two
    paths one id."""
    system = _system(3)
    keys = [
        path
        for source in range(system.num_dies)
        for sink in range(system.num_dies)
        if source != sink
        for path in simple_paths(3, source, sink)
    ]
    table = RoutingSolution(system, Netlist([]))._table
    seen: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}

    def worker(index: int) -> None:
        order = list(keys)
        random.Random(index).shuffle(order)
        seen[index] = [(key, table.id_of(key)) for key in order]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 6
    assert len(table) == len(set(keys))
    for pairs in seen.values():
        for key, pid in pairs:
            assert table.paths[pid] == key
            assert table.hops[pid] == path_to_edge_list(system, key)
    starts, edges, _ = table.columns()
    assert starts[-1] == edges.shape[0] == sum(len(hops) for hops in table.hops)
