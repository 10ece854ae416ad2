"""Legalization and wire assignment against their per-net oracles.

:class:`TdmLegalizer` refines one criticality window at a time and
:class:`WireAssigner` picks a wire once per overflow bump and writes the
solution's dicts once.  The code below is the per-net form they replace:
Algorithm 2 as a heap of ``(-criticality, position)`` keys, and the greedy
that picks a wire per leftover net after ``write_ratios``.  The tests
generate directed edges and require every output to match bit for bit:
arrays, step counts, wire lists, ``solution.ratios`` in insertion order,
``net_wire``, stats, and the ``legalization.*``/``wire_assignment.*``
counters and histograms.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import DelayModel, RouterConfig
from repro.arch.edges import TdmWire
from repro.core.incidence import TdmIncidence
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner, WireAssignmentStats
from repro.obs import InMemorySink, Tracer
from tests.conftest import build_two_fpga_system, random_netlist
from tests.oracles import write_ratios

#: The default model and one whose criticality drop ``d1·p`` is not dyadic.
MODELS = [DelayModel(), DelayModel(d1=0.3, tdm_step=1)]


# ----------------------------------------------------------------------
# Oracles: the per-net forms
# ----------------------------------------------------------------------
def heap_refine(pairs, budget, ratios, criticality, model, epsilon) -> int:
    """Algorithm 2 on one directed edge with a priority queue."""
    step = model.tdm_step
    crit_drop = model.d1 * step
    margin = budget - float(np.sum(1.0 / ratios[pairs]))
    if margin <= epsilon:
        return 0
    local_ratios = ratios[pairs].tolist()
    local_crit = criticality[pairs].tolist()
    heap: List[Tuple[float, int]] = [
        (-crit, position) for position, crit in enumerate(local_crit)
    ]
    heapq.heapify(heap)
    steps = 0
    item: Optional[Tuple[float, int]] = heap and heapq.heappop(heap) or None
    while item is not None and margin > epsilon:
        neg_crit, position = item
        ratio = local_ratios[position]
        if ratio <= step:
            item = heapq.heappop(heap) if heap else None
            continue
        delta = 1.0 / (ratio - step) - 1.0 / ratio
        if delta > margin - epsilon:
            item = heapq.heappop(heap) if heap else None
            continue
        local_ratios[position] = ratio - step
        crit = -neg_crit - crit_drop
        local_crit[position] = crit
        margin -= delta
        steps += 1
        item = heapq.heappushpop(heap, (-crit, position))
    if steps:
        ratios[pairs] = local_ratios
        criticality[pairs] = local_crit
    return steps


class HeapLegalizer(TdmLegalizer):
    """:class:`TdmLegalizer` with the heap form of Algorithm 2."""

    def _refine_directed_edge(self, pairs, budget, ratios, criticality):
        return heap_refine(
            pairs,
            budget,
            ratios,
            criticality,
            self.incidence.delay_model,
            self.config.refine_margin_epsilon,
        )


class GreedyWireAssigner(WireAssigner):
    """:class:`WireAssigner` as the per-net greedy with per-wire updates."""

    def assign(self, solution, ratios, wire_budgets, criticality):
        inc = self.incidence
        write_ratios(inc, solution, ratios)
        stats = WireAssignmentStats()
        edges = sorted({edge for edge, _ in inc.directed_edges()})
        ratio_list = ratios.tolist()
        if criticality is None:
            crit_arr = np.zeros(len(ratio_list), dtype=np.float64)
        else:
            crit_arr = criticality
        crit_list = crit_arr.tolist()
        neg_crit = np.negative(crit_arr)
        pair_net = inc.pair_net.tolist()
        tracer = self.tracer
        for edge_index in edges:
            wires: List[TdmWire] = []
            for direction in (0, 1):
                pair_slice = inc.pair_slice_of_directed_edge(edge_index, direction)
                if not pair_slice.size:
                    continue
                order = pair_slice[
                    np.lexsort((neg_crit[pair_slice], ratios[pair_slice]))
                ].tolist()
                edge_wires, bumps, moves = self._greedy_directed_edge(
                    edge_index,
                    direction,
                    pair_slice.tolist(),
                    order,
                    wire_budgets[(edge_index, direction)],
                    ratio_list,
                    crit_list,
                    pair_net,
                )
                wires.extend(edge_wires)
                stats.nets_assigned += pair_slice.size
                stats.overflow_bumps += bumps
                stats.critical_moves += moves
            solution.wires[edge_index] = wires
            for position, wire in enumerate(wires):
                for net_index in wire.net_indices:
                    use = (net_index, edge_index, wire.direction)
                    solution.net_wire[use] = position
                    solution.ratios[use] = float(wire.ratio)
            stats.wires_used += len(wires)
            for direction in (0, 1):
                budget = wire_budgets.get((edge_index, direction))
                if not budget:
                    continue
                used = sum(1 for wire in wires if wire.direction == direction)
                tracer.observe(
                    "wire_assignment.utilization.dir0"
                    if direction == 0
                    else "wire_assignment.utilization.dir1",
                    used / budget,
                )
        tracer.add("wire_assignment.wires_used", stats.wires_used)
        tracer.add("wire_assignment.nets_assigned", stats.nets_assigned)
        tracer.add("wire_assignment.overflow_bumps", stats.overflow_bumps)
        tracer.add("wire_assignment.critical_moves", stats.critical_moves)
        return stats

    def _greedy_directed_edge(
        self, edge_index, direction, pairs, order, budget, ratios, criticality, pair_net
    ):
        model = self.incidence.delay_model
        step = model.tdm_step
        overflow_bumps = critical_moves = 0
        wires: List[TdmWire] = []
        wire_ratios: List[int] = []
        wire_demands: List[int] = []
        wire_crit: List[float] = []
        cursor = 0
        total = len(order)
        while cursor < total and len(wires) < budget:
            wire_ratio = int(round(ratios[order[cursor]]))
            group = order[cursor : cursor + wire_ratio]
            wire = TdmWire(edge_index=edge_index, direction=direction, ratio=wire_ratio)
            wire.net_indices.extend([pair_net[pair] for pair in group])
            wires.append(wire)
            wire_ratios.append(wire_ratio)
            wire_demands.append(len(group))
            wire_crit.append(max([criticality[pair] for pair in group]))
            cursor += len(group)
        for pair in order[cursor:]:
            target = self._pick_per_net(wire_ratios, wire_demands, wire_crit)
            if wire_demands[target] >= wire_ratios[target]:
                wire_ratios[target] += step
                wires[target].ratio += step
                overflow_bumps += 1
            wires[target].add_net(pair_net[pair])
            wire_demands[target] += 1
            if criticality[pair] > wire_crit[target]:
                wire_crit[target] = criticality[pair]
        spare = budget - len(wires)
        if spare > 0 and wires:
            net_to_wire: Dict[int, int] = {}
            for index, wire in enumerate(wires):
                for net in wire.net_indices:
                    net_to_wire[net] = index
            pair_wire = {
                pair: net_to_wire[pair_net[pair]]
                for pair in order
                if pair_net[pair] in net_to_wire
            }
            candidates = sorted(
                (p for p in pairs if p in pair_wire), key=lambda p: -criticality[p]
            )
            for pair in candidates:
                if spare <= 0:
                    break
                source = wires[pair_wire[pair]]
                if source.demand < 2 or source.ratio <= step:
                    continue
                net = pair_net[pair]
                source.net_indices.remove(net)
                fresh = TdmWire(edge_index=edge_index, direction=direction, ratio=step)
                fresh.add_net(net)
                wires.append(fresh)
                spare -= 1
                critical_moves += 1
        for wire in wires:
            wire.ratio = model.legalize_ratio(wire.demand)
        return wires, overflow_bumps, critical_moves

    @staticmethod
    def _pick_per_net(wire_ratios, wire_demands, wire_crit) -> int:
        """Headroom first (smallest ratio), then the least critical wire."""
        best = -1
        best_ratio = 0
        for index, ratio in enumerate(wire_ratios):
            if wire_demands[index] < ratio and (best < 0 or ratio < best_ratio):
                best = index
                best_ratio = ratio
        if best >= 0:
            return best
        return min(range(len(wire_crit)), key=wire_crit.__getitem__)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def raw_tracer() -> Tracer:
    """A tracer whose sink keeps every histogram observation."""
    return Tracer(InMemorySink())


def telemetry(tracer: Tracer, prefix: str):
    """Counters and raw histogram values whose names start with ``prefix``."""
    snapshot = tracer.snapshot()
    counters = {k: v for k, v in snapshot.counters.items() if k.startswith(prefix)}
    histograms: Dict[str, List[float]] = {}
    for event in tracer.sink.of_type("observe"):
        if event["name"].startswith(prefix):
            histograms.setdefault(event["name"], []).append(event["value"])
    return counters, histograms


def routed_incidence(num_nets, tdm_capacity, seed, model):
    system = build_two_fpga_system(tdm_capacity=tdm_capacity)
    netlist = random_netlist(system, num_nets, seed=seed)
    solution = InitialRouter(system, netlist, model).route()
    return solution, TdmIncidence(system, netlist, solution, model)


def refine_both(pairs_count, budget, ratios, crits, model, epsilon):
    """Run the window and heap forms on copies; return both outcomes."""
    config = RouterConfig(refine_margin_epsilon=epsilon)
    legalizer = TdmLegalizer(SimpleNamespace(delay_model=model), config)
    pairs = np.arange(pairs_count, dtype=np.int64)
    outcomes = []
    for refine in (
        legalizer._refine_directed_edge,
        lambda *args: heap_refine(*args, model, epsilon),
    ):
        r = np.array(ratios, dtype=np.float64)
        c = np.array(crits, dtype=np.float64)
        steps = refine(pairs, budget, r, c)
        outcomes.append((steps, r.tobytes(), c.tobytes()))
    return outcomes


# ----------------------------------------------------------------------
# Algorithm 2
# ----------------------------------------------------------------------
CRITICALITIES = st.one_of(
    # Few distinct values: ties across nets and windows.
    st.sampled_from([0.0, 5.0, 6.5, 7.0, 7.25, 9.0, 13.0, 13.5]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    # Huge keys, where ``c - d1·p == c``.
    st.sampled_from([2.0**60, 2.0**60 + 256.0]),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    model=st.sampled_from(MODELS),
    epsilon=st.sampled_from([0.0, 1e-6, 1.0 / 64, 1.0 / 16, 0.1, 0.25]),
    extra=st.integers(min_value=-1, max_value=4),
)
def test_refine_matches_heap(data, model, epsilon, extra):
    count = data.draw(st.integers(min_value=1, max_value=40))
    multiples = data.draw(
        st.lists(
            st.sampled_from([1, 1, 2, 3, 4, 8, 16]), min_size=count, max_size=count
        )
    )
    ratios = [model.tdm_step * m for m in multiples]
    crits = data.draw(st.lists(CRITICALITIES, min_size=count, max_size=count))
    demand = float(np.sum(1.0 / np.array(ratios, dtype=np.float64)))
    budget = max(0, math.ceil(demand) + extra)
    window, heap = refine_both(count, budget, ratios, crits, model, epsilon)
    assert window == heap


def test_margin_reaching_epsilon_mid_window_stops_refinement():
    # Nets at ratio 16 in one window; the budget leaves the margin exactly
    # one step's gain (1/8 - 1/16) above epsilon, so the first pop spends
    # it and no other net steps.
    for epsilon, count in ((0.0, 15), (1.0 / 16, 14)):
        window, heap = refine_both(
            count, 1, [16.0] * count, [10.0] * count, DelayModel(), epsilon
        )
        assert window == heap
        assert window[0] == 1


def test_stepped_net_at_the_window_floor_pops_by_position():
    # Net 0 steps from 13 to 13 - d1*p = 9, the key net 1 already holds.
    # The queue pops net 0 again first (lower position), and that step
    # leaves net 1 unaffordable; processing net 1 in net 0's first window
    # would do the opposite.
    ratios = [24.0, 16.0] + [8.0] * 6
    crits = [13.0, 9.0] + [0.0] * 6
    window, heap = refine_both(8, 1, ratios, crits, DelayModel(), 1e-6)
    assert window == heap
    assert window[0] == 2


def test_guard_when_the_criticality_drop_is_below_an_ulp():
    # 2**60 - 4 == 2**60: a stepped net keeps its key and pops again.
    ratios = [64.0, 64.0, 32.0, 64.0]
    crits = [2.0**60, 7.0, 2.0**60, 9.0]
    window, heap = refine_both(4, 4, ratios, crits, DelayModel(), 1e-6)
    assert window == heap
    assert window[0] > 3


@settings(max_examples=40, deadline=None)
@given(
    num_nets=st.integers(min_value=2, max_value=60),
    tdm_capacity=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=500),
    model=st.sampled_from(MODELS),
    epsilon=st.sampled_from([0.0, 1e-6, 0.05]),
)
def test_legalize_matches_heap(num_nets, tdm_capacity, seed, model, epsilon):
    config = RouterConfig(refine_margin_epsilon=epsilon)
    _, inc = routed_incidence(num_nets, tdm_capacity, seed, model)
    if not inc.num_pairs:
        return
    lr_ratios = LagrangianTdmAssigner(inc, config).solve().ratios
    outcomes = []
    for cls in (TdmLegalizer, HeapLegalizer):
        tracer = raw_tracer()
        legal = cls(inc, config, tracer=tracer).legalize(lr_ratios.copy())
        outcomes.append(
            (
                legal.ratios.tobytes(),
                legal.criticality.tobytes(),
                legal.wire_budgets,
                legal.refinement_steps,
                telemetry(tracer, "legalization."),
            )
        )
    assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Wire assignment
# ----------------------------------------------------------------------
def assign_both(solution, inc, ratios, budgets, criticality, stale_uses=()):
    """Run both assigners on fresh copies; return everything they write."""
    outcomes = []
    for cls in (WireAssigner, GreedyWireAssigner):
        target = solution.copy_topology()
        # Keys from an earlier assignment keep their insertion slots.
        for use in stale_uses:
            target.ratios[use] = -1.0
        tracer = raw_tracer()
        stats = cls(inc, RouterConfig(), tracer=tracer).assign(
            target,
            ratios.copy(),
            dict(budgets),
            None if criticality is None else criticality.copy(),
        )
        wires = {
            edge: [(w.edge_index, w.direction, w.ratio, w.net_indices) for w in ws]
            for edge, ws in target.wires.items()
        }
        outcomes.append(
            (
                stats,
                list(target.wires),
                wires,
                list(target.ratios.items()),
                target.net_wire,
                telemetry(tracer, "wire_assignment."),
            )
        )
    return outcomes


@settings(max_examples=60, deadline=None)
@given(
    num_nets=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=500),
    model=st.sampled_from(MODELS),
    budget_mode=st.sampled_from(["tight", "spare", "mixed"]),
    multiples=st.sampled_from([(1,), (1, 2), (2, 3, 4), (1, 2, 4, 8)]),
    with_criticality=st.booleans(),
    stale=st.booleans(),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_assign_matches_per_net_greedy(
    num_nets, seed, model, budget_mode, multiples, with_criticality, stale, rng_seed
):
    solution, inc = routed_incidence(num_nets, 64, seed, model)
    if not inc.num_pairs:
        return
    rng = np.random.default_rng(rng_seed)
    ratios = (
        rng.choice(np.array(multiples), size=inc.num_pairs) * model.tdm_step
    ).astype(np.float64)
    # Criticalities from a few levels, so ties are common.
    criticality = (
        rng.choice(np.array([3.0, 6.5, 7.0, 9.5, 12.0]), size=inc.num_pairs)
        if with_criticality
        else None
    )
    budgets = {}
    for edge_index, direction, pairs in inc.directed_edge_groups():
        wanted = len(pairs)
        if budget_mode == "tight":
            high = max(1, wanted // 4)
        elif budget_mode == "spare":
            high = 2 * wanted + 2
        else:
            high = wanted + 2
        budgets[(edge_index, direction)] = int(rng.integers(1, high + 1))
    stale_uses = inc.uses[::3] + [(10**6, 0, 0)] if stale else ()
    new, old = assign_both(solution, inc, ratios, budgets, criticality, stale_uses)
    assert new == old


def test_assign_covers_bumps_and_critical_moves():
    """Both overflow bumps and spare-wire moves occur, and still match."""
    model = DelayModel()
    solution, inc = routed_incidence(60, 64, 5, model)
    criticality = np.arange(inc.num_pairs, dtype=np.float64) % 7
    groups = list(inc.directed_edge_groups())
    # One wire at ratio p per direction overflows; a spare wire per net
    # at ratio 2p leaves room for every critical move.
    tight = {(e, d): 1 for e, d, _ in groups}
    spare = {(e, d): len(pairs) + 1 for e, d, pairs in groups}
    for multiple, budgets, field in (
        (1, tight, "overflow_bumps"),
        (2, spare, "critical_moves"),
    ):
        ratios = np.full(inc.num_pairs, float(multiple * model.tdm_step))
        new, old = assign_both(solution, inc, ratios, budgets, criticality)
        assert new == old
        assert getattr(new[0], field) > 0


@settings(max_examples=25, deadline=None)
@given(
    num_nets=st.integers(min_value=2, max_value=60),
    tdm_capacity=st.integers(min_value=2, max_value=32),
    seed=st.integers(min_value=0, max_value=500),
)
def test_legalized_pipeline_matches_oracles(num_nets, tdm_capacity, seed):
    """LR ratios through both legalizers and both assigners."""
    model = DelayModel()
    config = RouterConfig()
    solution, inc = routed_incidence(num_nets, tdm_capacity, seed, model)
    if not inc.num_pairs:
        return
    lr_ratios = LagrangianTdmAssigner(inc, config).solve().ratios
    legal = TdmLegalizer(inc, config).legalize(lr_ratios)
    new, old = assign_both(
        solution, inc, legal.ratios, legal.wire_budgets, legal.criticality
    )
    assert new == old
