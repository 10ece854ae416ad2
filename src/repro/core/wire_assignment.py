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

Two observations keep the per-net Python work small.  Leftovers exist
only when every opened wire is full, so each bump opens exactly ``p``
slots on one wire and the next ``p`` leftover nets fill them: the wire is
picked once per bump, not once per net.  And a spare wire only takes a
net off a wire with demand at least 2 and ratio above ``p``; moves only
lower demand, so when no wire qualifies up front the pass is skipped.
The output equals the per-net greedy's, bit for bit
(``tests/test_lgwa_oracle.py``).  ``solution.ratios`` and
``solution.net_wire`` are written once, in pair order.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        legal_ratio = inc.delay_model.legalize_ratio
        # Every wire in solution order: its edge, direction and final
        # ratio, with all wires' pairs end to end.  Nets, wire positions
        # and net ratios are gathered from these once at the end.
        wire_keys: List[Tuple[int, int, int]] = []
        wire_positions: List[int] = []
        wire_demands: List[int] = []
        wired_pairs: List[int] = []

        tracer = self.tracer
        for edge_index in edges:
            solution.wires[edge_index] = []
            used = [0, 0]
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
                ]
                budget = wire_budgets[(edge_index, direction)]
                groups, bumps, moves = self._assign_directed_edge(
                    order, budget, ratio_list, crit_list, crit_arr
                )
                position = used[0]
                for group in groups:
                    # Final shrink: a wire's ratio only needs to be the
                    # smallest legal multiple of the step covering its
                    # demand.
                    wire_keys.append((edge_index, direction, legal_ratio(len(group))))
                    wire_positions.append(position)
                    wire_demands.append(len(group))
                    wired_pairs.extend(group)
                    position += 1
                used[direction] = len(groups)
                stats.nets_assigned += pair_slice.size
                stats.overflow_bumps += bumps
                stats.critical_moves += moves
            stats.wires_used += used[0] + used[1]
            for direction in (0, 1):
                budget = wire_budgets.get((edge_index, direction))
                if not budget:
                    continue
                tracer.observe(
                    "wire_assignment.utilization.dir0"
                    if direction == 0
                    else "wire_assignment.utilization.dir1",
                    used[direction] / budget,
                )
        # Every pair sits on exactly one wire, so the scatters cover all
        # pairs, and the updates keep ``solution.ratios``' pair order.
        counts = np.array(wire_demands, dtype=np.int64)
        pairs = np.array(wired_pairs, dtype=np.int64)
        nets = inc.pair_net[pairs].tolist()
        stop = 0
        for (edge_index, direction, ratio), demand in zip(wire_keys, wire_demands):
            start, stop = stop, stop + demand
            solution.wires[edge_index].append(
                TdmWire(edge_index, direction, ratio, nets[start:stop])
            )
        pair_position = np.empty(inc.num_pairs, dtype=np.int64)
        pair_position[pairs] = np.repeat(wire_positions, counts)
        pair_ratio = np.empty(inc.num_pairs, dtype=np.float64)
        pair_ratio[pairs] = np.repeat(
            np.array([key[2] for key in wire_keys], dtype=np.float64), counts
        )
        uses = inc.uses
        solution.ratios.update(zip(uses, pair_ratio.tolist()))
        solution.net_wire.update(zip(uses, pair_position.tolist()))
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
        order: np.ndarray,
        budget: int,
        ratios: List[float],
        criticality: List[float],
        crit_arr: np.ndarray,
    ) -> Tuple[List[List[int]], int, int]:
        """The paper's greedy for one directed edge.

        Args:
            order: the directed edge's pairs sorted by
                (ratio, -criticality, pair).
            ratios / criticality: per-pair plain lists.
            crit_arr: per-pair criticality array.

        Returns:
            ``(groups, overflow_bumps, critical_moves)``: each wire's
            pairs in the order its nets were added.
        """
        step = self.incidence.delay_model.tdm_step
        order_list = order.tolist()
        groups: List[List[int]] = []
        group_ratios: List[int] = []
        cursor = 0
        total = len(order_list)
        while cursor < total and len(groups) < budget:
            wire_ratio = int(round(ratios[order_list[cursor]]))
            group = order_list[cursor : cursor + wire_ratio]
            groups.append(group)
            group_ratios.append(wire_ratio)
            cursor += len(group)

        # Leftover demand.  Only the last opened group can be short, and
        # it ends the order, so here every wire is full: a bump gives the
        # least critical wire exactly ``step`` free slots, which the next
        # ``step`` leftover nets take.
        overflow_bumps = 0
        if cursor < total:
            starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
            wire_crit = np.maximum.reduceat(crit_arr[order[:cursor]], starts).tolist()
            for start in range(cursor, total, step):
                chunk = order_list[start : start + step]
                target = self._pick_wire_for_leftover(wire_crit)
                overflow_bumps += 1
                groups[target].extend(chunk)
                crit = max([criticality[pair] for pair in chunk])
                if crit > wire_crit[target]:
                    wire_crit[target] = crit
            return groups, overflow_bumps, 0

        # Leftover capacity: give the most critical shared nets private
        # wires at the minimum ratio.  Only a wire with demand >= 2 and a
        # ratio above the step can give one up, and moves only lower
        # demand, so the candidates are the nets on such wires up front.
        spare = budget - len(groups)
        critical_moves = 0
        sources = [
            index
            for index, group in enumerate(groups)
            if len(group) >= 2 and group_ratios[index] > step
        ]
        if spare > 0 and sources:
            pair_wire = {pair: index for index in sources for pair in groups[index]}
            candidates = sorted(pair_wire, key=lambda pair: (-criticality[pair], pair))
            for pair in candidates:
                if spare <= 0:
                    break
                source = groups[pair_wire[pair]]
                if len(source) < 2:
                    continue
                source.remove(pair)
                groups.append([pair])
                spare -= 1
                critical_moves += 1
        return groups, 0, critical_moves

    # ------------------------------------------------------------------
    @staticmethod
    def _pick_wire_for_leftover(wire_crit: List[float]) -> int:
        """Wire to bump for a leftover chunk: the least critical one.

        Every wire is full when a bump happens, so no wire has headroom.
        Ties go to the first index, matching ``np.argmin``.
        """
        return min(range(len(wire_crit)), key=wire_crit.__getitem__)
