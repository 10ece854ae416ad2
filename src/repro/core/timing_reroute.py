"""Timing-driven topology refinement between phase II rounds.

After TDM ratios and wires exist, the actual critical connections are
known exactly.  The refiner rips up only those connections and offers each
a new path priced with the *measured* state of the solution: SLL hops cost
``d_SLL`` (and are forbidden where they would overflow), TDM hops cost
``d0 + d1 * r̄`` with ``r̄`` the demand-weighted mean wire ratio of the
directed edge.  A move is accepted only when its priced delay strictly
beats both the connection's measured delay and the price of its old path.

The caller (:class:`repro.core.router.SynergisticRouter`) re-runs phase II
on the refined topology and keeps the result only if the critical delay
actually improved — so the loop is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.core.pathfinder import NegotiationState
from repro.netlist.netlist import Netlist
from repro.route.dijkstra import dijkstra_path
from repro.route.graph import RoutingGraph
from repro.route.solution import RoutingSolution
from repro.timing.analysis import TimingAnalyzer, TimingReport
from repro.timing.delay import DelayModel

#: Upper bound on connections re-routed per round; the critical set is
#: normally tiny, this only guards degenerate plateaus.
MAX_TARGETS_PER_ROUND = 512


@dataclass
class RefineOutcome:
    """Result of one refinement round.

    Attributes:
        solution: the refined topology (paths only; ratios must be
            re-assigned), or ``None`` when no connection could move.
        moves: number of accepted reroutes.
    """

    solution: Optional[RoutingSolution]
    moves: int = 0


class TimingDrivenRefiner:
    """Reroutes measured-critical connections on a ratio-aware cost."""

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: DelayModel,
        config: Optional[RouterConfig] = None,
    ) -> None:
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model
        self.config = config if config is not None else RouterConfig()
        self._graph = RoutingGraph(system)
        self._analyzer = TimingAnalyzer(system, netlist, delay_model)

    def refine(
        self,
        solution: RoutingSolution,
        report: Optional["TimingReport"] = None,
    ) -> RefineOutcome:
        """One refinement round over the solution's critical connections.

        Args:
            solution: the routed, ratio-assigned solution to refine.
            report: an up-to-date timing analysis of ``solution``, when
                the caller already holds one; analyzed here otherwise.
        """
        if report is None:
            report = self._analyzer.analyze(solution)
        if report.critical_connection < 0:
            return RefineOutcome(solution=None)
        critical = report.critical_delay
        targets = [
            index
            for index, delay in enumerate(report.delays)
            if delay >= critical - 1e-9
        ][:MAX_TARGETS_PER_ROUND]

        ratio_means = self._mean_wire_ratios(solution)
        refined = solution.copy_topology()
        state = self._rebuild_state(refined)
        moves = 0
        for conn_index in targets:
            moves += self._reroute(
                refined, state, ratio_means, conn_index, report.delays[conn_index]
            )
        if not moves:
            return RefineOutcome(solution=None)
        return RefineOutcome(solution=refined, moves=moves)

    # ------------------------------------------------------------------
    def _mean_wire_ratios(self, solution: RoutingSolution) -> Dict[Tuple[int, int], float]:
        """Demand-weighted mean wire ratio per directed TDM edge."""
        means: Dict[Tuple[int, int], float] = {}
        for edge_index, wires in solution.wires.items():
            for direction in (0, 1):
                total = 0
                weighted = 0.0
                for wire in wires:
                    if wire.direction == direction and wire.demand:
                        total += wire.demand
                        weighted += wire.ratio * wire.demand
                if total:
                    means[(edge_index, direction)] = weighted / total
        return means

    def _rebuild_state(self, solution: RoutingSolution) -> NegotiationState:
        state = NegotiationState(self._graph)
        state.load(*solution.topology_index().net_edge_counts())
        return state

    def _reroute(
        self,
        solution: RoutingSolution,
        state: NegotiationState,
        ratio_means: Dict[Tuple[int, int], float],
        conn_index: int,
        measured_delay: float,
    ) -> bool:
        conn = self.netlist.connections[conn_index]
        model = self.delay_model
        graph = self._graph
        old_path = list(solution.path(conn_index))
        state.remove_path(conn.net_index, old_path)
        net_edges = state.net_edges(conn.net_index)
        demand = state.demand
        infinity = float("inf")
        min_ratio = float(model.tdm_step)

        def edge_cost(edge_index: int, frm: int, to: int) -> float:
            if graph.is_tdm[edge_index]:
                direction = 0 if frm < to else 1
                ratio = ratio_means.get((edge_index, direction), min_ratio)
                return model.tdm_delay(ratio)
            if (
                edge_index not in net_edges
                and demand[edge_index] + 1 > graph.capacity[edge_index]
            ):
                return infinity
            return model.d_sll

        def path_price(path: List[int]) -> float:
            total = 0.0
            for frm, to in zip(path, path[1:]):
                edge = self.system.edge_between(frm, to)
                total += edge_cost(edge.index, frm, to)
            return total

        new_path = dijkstra_path(
            graph.adjacency, conn.source_die, conn.sink_die, edge_cost
        )
        accept = False
        if new_path is not None and new_path != old_path:
            new_price = path_price(new_path)
            bar = min(measured_delay, path_price(old_path))
            if new_price < bar - 1e-9 and new_price < infinity:
                accept = True
        if accept:
            state.add_path(conn.net_index, new_path)
            solution.set_path(conn_index, new_path)
            return True
        state.add_path(conn.net_index, old_path)
        return False
