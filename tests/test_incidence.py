"""Unit tests for the TDM incidence arrays."""

import numpy as np
import pytest

from repro import DelayModel, Net, Netlist
from repro.core.incidence import TdmIncidence, build_incidence
from repro.obs import Tracer
from repro.route.solution import RoutingSolution
from repro.timing import TimingAnalyzer
from tests.conftest import build_two_fpga_system, random_netlist
from tests.oracles import (
    assert_incidences_bit_equal,
    build_reference,
    ratios_from_solution,
    write_ratios,
)
from repro.core.initial_routing import InitialRouter


@pytest.fixture
def incidence_case():
    system = build_two_fpga_system()
    netlist = Netlist(
        [
            Net("a", 0, (4,)),   # conn 0: crosses a TDM edge
            Net("b", 2, (1,)),   # conn 1: pure SLL
            Net("c", 3, (4, 5)),  # conns 2, 3: share the (3,4) TDM edge
        ]
    )
    model = DelayModel()
    solution = RoutingSolution(system, netlist)
    solution.set_path(0, [0, 1, 2, 3, 4])
    solution.set_path(1, [2, 1])
    solution.set_path(2, [3, 4])
    solution.set_path(3, [3, 4, 5])
    return system, netlist, model, solution


class TestConstruction:
    def test_pairs_deduplicated_per_net(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        # Net a uses (3,4); net c uses it twice but is one pair.
        assert inc.num_pairs == 2
        nets = sorted(inc.pair_net.tolist())
        assert nets == [0, 2]

    def test_incidence_rows(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        # Conns 0, 2, 3 each cross one TDM edge.
        assert sorted(inc.inc_conn.tolist()) == [0, 2, 3]

    def test_conn_sll_delay(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        assert inc.conn_sll_delay[0] == pytest.approx(3 * model.d_sll)
        assert inc.conn_sll_delay[1] == pytest.approx(model.d_sll)
        assert inc.conn_sll_delay[2] == pytest.approx(0.0)

    def test_pairs_of_directed_edge(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        tdm = system.edge_between(3, 4).index
        pairs = inc.pairs_of_directed_edge(tdm, 0)
        assert len(pairs) == 2
        assert inc.pairs_of_directed_edge(tdm, 1) == []


class TestEvaluations:
    def test_connection_delays_match_analyzer(self):
        system = build_two_fpga_system()
        netlist = random_netlist(system, 30, seed=9)
        model = DelayModel()
        solution = InitialRouter(system, netlist, model).route()
        inc = TdmIncidence(system, netlist, solution, model)
        ratios = np.full(inc.num_pairs, float(model.tdm_step))
        delays = inc.connection_delays(ratios)
        analyzer = TimingAnalyzer(system, netlist, model)
        for conn in netlist.connections:
            expected = analyzer.connection_delay(solution, conn.index, assume_min_ratio=True)
            assert delays[conn.index] == pytest.approx(expected)

    def test_pair_criticality_is_max_over_connections(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        ratios = np.full(inc.num_pairs, 8.0)
        delays = inc.connection_delays(ratios)
        criticality = inc.pair_criticality(delays)
        tdm = system.edge_between(3, 4).index
        pair_a = inc.use_index[(0, tdm, 0)]
        pair_c = inc.use_index[(2, tdm, 0)]
        assert criticality[pair_a] == pytest.approx(delays[0])
        assert criticality[pair_c] == pytest.approx(max(delays[2], delays[3]))

    def test_ratio_round_trip(self, incidence_case):
        system, netlist, model, solution = incidence_case
        inc = TdmIncidence(system, netlist, solution, model)
        ratios = np.array([8.0, 16.0])
        write_ratios(inc, solution, ratios)
        back = ratios_from_solution(inc, solution)
        assert np.allclose(back, ratios)

    def test_empty_case(self):
        system = build_two_fpga_system()
        netlist = Netlist([Net("a", 0, (1,))])
        model = DelayModel()
        solution = RoutingSolution(system, netlist)
        solution.set_path(0, [0, 1])
        inc = TdmIncidence(system, netlist, solution, model)
        assert inc.num_pairs == 0
        delays = inc.connection_delays(np.zeros(0))
        assert delays[0] == pytest.approx(model.d_sll)


# ----------------------------------------------------------------------
# Vectorized construction vs. the pure-Python reference builder
# ----------------------------------------------------------------------
def _routed_case(seed, num_nets=60):
    system = build_two_fpga_system(sll_capacity=20, tdm_capacity=8, num_tdm_edges=3)
    netlist = random_netlist(system, num_nets, seed=seed)
    solution = InitialRouter(system, netlist).route()
    return system, netlist, solution


class TestVectorizedEquivalence:
    """The numpy constructor must match the reference builder bit-for-bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_construction_bit_equal(self, seed):
        system, netlist, solution = _routed_case(seed)
        model = DelayModel()
        fast = TdmIncidence(system, netlist, solution, model)
        ref = build_reference(system, netlist, solution, model)
        assert_incidences_bit_equal(fast, ref)

    @pytest.mark.parametrize("seed", range(5))
    def test_evaluations_bit_equal(self, seed):
        system, netlist, solution = _routed_case(seed)
        model = DelayModel()
        fast = TdmIncidence(system, netlist, solution, model)
        ref = build_reference(system, netlist, solution, model)
        rng = np.random.default_rng(seed)
        ratios = rng.uniform(1.0, 9.0, fast.num_pairs)
        fast_delays = fast.connection_delays(ratios)
        ref_delays = ref.connection_delays(ratios)
        assert np.array_equal(fast_delays, ref_delays)
        assert np.array_equal(
            fast.pair_criticality(fast_delays), ref.pair_criticality(ref_delays)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_buffered_delays_bit_equal(self, seed):
        system, netlist, solution = _routed_case(seed)
        model = DelayModel()
        inc = TdmIncidence(system, netlist, solution, model)
        rng = np.random.default_rng(seed)
        out = np.empty(inc.num_connections, dtype=np.float64)
        for _ in range(3):  # reused buffers must not leak state
            ratios = rng.uniform(1.0, 9.0, inc.num_pairs)
            buffered = inc.connection_delays(ratios, out=out)
            assert buffered is out
            assert np.array_equal(buffered, inc.connection_delays(ratios))

    def test_ratio_round_trip_matches_reference(self):
        system, netlist, solution = _routed_case(11)
        model = DelayModel()
        fast = TdmIncidence(system, netlist, solution, model)
        ref = build_reference(system, netlist, solution, model)
        ratios = np.arange(fast.num_pairs, dtype=np.float64) + 2.0
        fast_sol = solution.copy_topology()
        ref_sol = solution.copy_topology()
        write_ratios(fast, fast_sol, ratios)
        write_ratios(ref, ref_sol, ratios)
        assert fast_sol.ratios == ref_sol.ratios
        assert np.array_equal(
            ratios_from_solution(fast, fast_sol), ratios_from_solution(ref, ref_sol)
        )

    def test_directed_edge_groups_are_csr_slices(self):
        system, netlist, solution = _routed_case(12)
        inc = TdmIncidence(system, netlist, solution, DelayModel())
        groups = list(inc.directed_edge_groups())
        assert [(e, d) for e, d, _ in groups] == inc.directed_edges()
        for edge_index, direction, pairs in groups:
            assert pairs.tolist() == inc.pairs_of_directed_edge(edge_index, direction)
            assert sorted(pairs.tolist()) == pairs.tolist()


class TestBuildIncidenceGate:
    """:func:`build_incidence`, the phase II front door, counts its builds."""

    def test_cold_without_previous(self):
        system, netlist, solution = _routed_case(9)
        tracer = Tracer()
        inc = build_incidence(system, netlist, solution, DelayModel(), tracer=tracer)
        assert tracer.counter("incidence.cold_builds") == 1
        assert inc.num_pairs > 0
