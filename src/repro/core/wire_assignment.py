"""Greedy TDM wire assignment (Section III-D, last stage).

For each directed TDM edge, nets are packed onto physical wires following
the paper's greedy: repeatedly open a wire whose ratio is the smallest
remaining net ratio and fill it with the ``ratio`` smallest-ratio nets.
Leftover demand (wires exhausted) is folded onto the wires whose nets are
least critical, bumping their ratio a step at a time; leftover capacity
(wires to spare) is spent moving the most critical nets onto empty wires
at the minimum ratio.  Finally every wire's ratio is shrunk to the legal
minimum for its demand — a pure improvement the rules always allow — and
each net's ratio becomes its wire's ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.edges import TdmWire
from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence
from repro.obs import Tracer, get_logger
from repro.route.solution import RoutingSolution

logger = get_logger(__name__)


@dataclass
class WireAssignmentStats:
    """Counters describing one wire-assignment run."""

    wires_used: int = 0
    nets_assigned: int = 0
    overflow_bumps: int = 0
    critical_moves: int = 0


class WireAssigner:
    """Assigns nets to physical TDM wires per directed edge."""

    def __init__(
        self,
        incidence: TdmIncidence,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.incidence = incidence
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------
    def assign(
        self,
        solution: RoutingSolution,
        ratios: np.ndarray,
        wire_budgets: Dict[Tuple[int, int], int],
        criticality: np.ndarray,
    ) -> WireAssignmentStats:
        """Build ``solution.wires`` / ``solution.net_wire`` and final ratios.

        Args:
            solution: solution to receive the wires (its topology must be
                the one the incidence was built from).
            ratios: legalized per-pair ratios.
            wire_budgets: per-(edge, direction) wire counts from
                legalization.
            criticality: per-pair criticality from legalization.
        """
        inc = self.incidence
        stats = WireAssignmentStats()
        edges = sorted({edge for edge, _ in inc.directed_edges()})
        # Plain-list views shared by every per-edge call: the greedy
        # probes these per pair, where numpy scalar access would dominate
        # (both arrays are read-only here).
        ratio_list = ratios.tolist()
        if criticality is None:
            crit_arr = np.zeros(len(ratio_list), dtype=np.float64)
        else:
            crit_arr = criticality
        crit_list = crit_arr.tolist()
        neg_crit = np.negative(crit_arr)
        pair_net = inc.pair_net.tolist()

        tracer = self.tracer
        net_wire = solution.net_wire
        final_ratios = solution.ratios
        for edge_index in edges:
            wires: List[TdmWire] = []
            for direction in (0, 1):
                pair_slice = inc.pair_slice_of_directed_edge(edge_index, direction)
                if not pair_slice.size:
                    continue
                # Ascending ratio; among equal ratios the more critical
                # net first so it lands on the (smaller-ratio) earlier
                # wire; lexsort is stable, so remaining ties keep the
                # ascending pair order — exactly the Python
                # sorted(key=(ratio, -criticality)) order.
                order = pair_slice[
                    np.lexsort((neg_crit[pair_slice], ratios[pair_slice]))
                ].tolist()
                budget = wire_budgets[(edge_index, direction)]
                edge_wires, bumps, moves = self._assign_directed_edge(
                    edge_index,
                    direction,
                    pair_slice.tolist(),
                    order,
                    budget,
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
                direction = wire.direction
                wire_ratio = float(wire.ratio)
                uses = [
                    (net_index, edge_index, direction)
                    for net_index in wire.net_indices
                ]
                net_wire.update(zip(uses, repeat(position)))
                final_ratios.update(zip(uses, repeat(wire_ratio)))
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
        logger.info(
            "wire assignment: %d nets on %d wires (%d overflow bumps, "
            "%d critical moves)",
            stats.nets_assigned,
            stats.wires_used,
            stats.overflow_bumps,
            stats.critical_moves,
        )
        return stats

    # ------------------------------------------------------------------
    def _assign_directed_edge(
        self,
        edge_index: int,
        direction: int,
        pairs: List[int],
        order: List[int],
        budget: int,
        ratios: List[float],
        criticality: List[float],
        pair_net: List[int],
    ) -> Tuple[List[TdmWire], int, int]:
        """The paper's greedy for one directed edge.

        Args:
            pairs: the directed edge's pair indices, ascending.
            order: the same pairs sorted by (ratio, -criticality).

        Returns:
            ``(wires, overflow_bumps, critical_moves)``.
        """
        model = self.incidence.delay_model
        overflow_bumps = 0
        critical_moves = 0
        step = model.tdm_step
        wires: List[TdmWire] = []
        # Plain mirrors of each wire's ratio/demand/max-criticality: the
        # leftover scan probes them per wire, where dataclass attribute
        # access would dominate.
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

        # Leftover demand: fold onto existing wires, preferring headroom,
        # otherwise bump the wire whose nets are least critical.
        if cursor < total:
            for pair in order[cursor:]:
                target = self._pick_wire_for_leftover(
                    wire_ratios, wire_demands, wire_crit
                )
                if wire_demands[target] >= wire_ratios[target]:
                    wire_ratios[target] += step
                    wires[target].ratio += step
                    overflow_bumps += 1
                wires[target].add_net(pair_net[pair])
                wire_demands[target] += 1
                crit = criticality[pair]
                if crit > wire_crit[target]:
                    wire_crit[target] = crit

        # Leftover capacity: give the most critical shared nets private
        # wires at the minimum ratio.
        spare = budget - len(wires)
        if spare > 0 and wires:
            pair_wire = self._pair_wire_map(wires, order, pair_net)
            candidates = sorted(
                (p for p in pairs if p in pair_wire),
                key=lambda p: -criticality[p],
            )
            for pair in candidates:
                if spare <= 0:
                    break
                source = wires[pair_wire[pair]]
                if source.demand < 2 or source.ratio <= step:
                    continue
                net = pair_net[pair]
                source.net_indices.remove(net)
                fresh = TdmWire(
                    edge_index=edge_index, direction=direction, ratio=step
                )
                fresh.add_net(net)
                wires.append(fresh)
                spare -= 1
                critical_moves += 1

        # Final shrink: a wire's ratio only needs to be the smallest legal
        # multiple of the step covering its demand.
        for wire in wires:
            wire.ratio = model.legalize_ratio(wire.demand)
        return wires, overflow_bumps, critical_moves

    # ------------------------------------------------------------------
    @staticmethod
    def _pick_wire_for_leftover(
        wire_ratios: List[int], wire_demands: List[int], wire_crit: List[float]
    ) -> int:
        """Wire to receive a leftover net: headroom first, then least critical."""
        best = -1
        best_ratio = 0
        for index, ratio in enumerate(wire_ratios):
            if wire_demands[index] < ratio and (best < 0 or ratio < best_ratio):
                best = index
                best_ratio = ratio
        if best >= 0:
            return best
        # First index of the minimum, matching np.argmin.
        return min(range(len(wire_crit)), key=wire_crit.__getitem__)

    @staticmethod
    def _pair_wire_map(
        wires: List[TdmWire], order: List[int], pair_net: List[int]
    ) -> Dict[int, int]:
        """Map each assigned pair to the index of its wire."""
        net_to_wire: Dict[int, int] = {}
        for index, wire in enumerate(wires):
            for net in wire.net_indices:
                net_to_wire[net] = index
        return {
            pair: net_to_wire[pair_net[pair]]
            for pair in order
            if pair_net[pair] in net_to_wire
        }
