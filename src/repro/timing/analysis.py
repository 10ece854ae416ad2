"""Timing analysis of routing solutions (Eq. 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.arch.edges import EdgeKind
from repro.arch.system import MultiFpgaSystem
from repro.netlist.netlist import Netlist
from repro.route.solution import RoutingSolution
from repro.timing.delay import DelayModel


@dataclass(frozen=True)
class ConnectionTiming:
    """Delay breakdown of one routed connection.

    Attributes:
        connection_index: index of the connection.
        delay: total delay (SLL + TDM contributions).
        sll_delay: contribution of the SLL edges (``d_SLL_c``).
        tdm_delay: contribution of the TDM edges.
        num_sll_edges: SLL hops on the path.
        num_tdm_edges: TDM hops on the path.
    """

    connection_index: int
    delay: float
    sll_delay: float
    tdm_delay: float
    num_sll_edges: int
    num_tdm_edges: int


@dataclass
class TimingReport:
    """Summary of a full timing analysis.

    Attributes:
        critical_delay: the maximum connection delay (the objective).
        critical_connection: index of a connection attaining it (-1 when
            there are no connections).
        delays: per-connection delays, indexed by connection index.
        net_worst_delay: worst connection delay per net (only nets with at
            least one connection appear).
    """

    critical_delay: float
    critical_connection: int
    delays: List[float] = field(repr=False, default_factory=list)
    net_worst_delay: Dict[int, float] = field(repr=False, default_factory=dict)

    def histogram(self, bins: int = 10) -> List[int]:
        """Delay histogram with ``bins`` equal-width buckets up to the max."""
        if not self.delays or self.critical_delay <= 0:
            return [0] * bins
        counts = [0] * bins
        width = self.critical_delay / bins
        for delay in self.delays:
            bucket = min(int(delay / width), bins - 1)
            counts[bucket] += 1
        return counts

    def slack(self, connection_index: int) -> float:
        """Critical delay minus this connection's delay (0 = critical)."""
        return self.critical_delay - self.delays[connection_index]

    def near_critical(self, margin: float) -> List[int]:
        """Connections with slack at most ``margin`` (the timing wall)."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        return [
            index
            for index, delay in enumerate(self.delays)
            if self.critical_delay - delay <= margin + 1e-12
        ]


class TimingAnalyzer:
    """Evaluates connection delays for a (system, netlist, delay model)."""

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: DelayModel,
    ) -> None:
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model

    def connection_timing(
        self,
        solution: RoutingSolution,
        connection_index: int,
        assume_min_ratio: bool = False,
    ) -> ConnectionTiming:
        """Delay breakdown of one connection.

        Args:
            solution: the routing solution (paths required; ratios required
                unless ``assume_min_ratio``).
            connection_index: which connection.
            assume_min_ratio: evaluate unassigned TDM edges at the minimum
                legal ratio (one TDM step); used to score topologies before
                phase II has run.
        """
        conn = self.netlist.connections[connection_index]
        model = self.delay_model
        sll_delay = 0.0
        tdm_delay = 0.0
        num_sll = 0
        num_tdm = 0
        for edge_index, direction in solution.path_hops(connection_index):
            edge = self.system.edge(edge_index)
            if edge.kind is EdgeKind.SLL:
                sll_delay += model.d_sll
                num_sll += 1
            else:
                key = (conn.net_index, edge_index, direction)
                ratio = solution.ratios.get(key)
                if ratio is None:
                    if not assume_min_ratio:
                        raise KeyError(
                            f"no TDM ratio for net {conn.net_index} on edge "
                            f"{edge_index} direction {direction}"
                        )
                    ratio = model.tdm_step
                tdm_delay += model.tdm_delay(ratio)
                num_tdm += 1
        return ConnectionTiming(
            connection_index=connection_index,
            delay=sll_delay + tdm_delay,
            sll_delay=sll_delay,
            tdm_delay=tdm_delay,
            num_sll_edges=num_sll,
            num_tdm_edges=num_tdm,
        )

    def connection_delay(
        self,
        solution: RoutingSolution,
        connection_index: int,
        assume_min_ratio: bool = False,
    ) -> float:
        """Total delay of one connection."""
        return self.connection_timing(
            solution, connection_index, assume_min_ratio=assume_min_ratio
        ).delay

    def analyze(
        self,
        solution: RoutingSolution,
        assume_min_ratio: bool = False,
    ) -> TimingReport:
        """Full timing analysis: per-connection delays and the critical delay.

        Vectorized over the solution's topology index, bit-equal to
        :meth:`connection_timing` per connection: each connection's SLL
        and TDM terms are two accumulators summed in path order
        (``np.bincount`` adds its weights in input order), then added.

        Raises:
            ValueError: when a connection is unrouted.
            KeyError: when a TDM hop has no ratio and not
                ``assume_min_ratio``.  Either error names the first
                offending connection, as a scan in connection order would.
        """
        model = self.delay_model
        index = solution.topology_index()
        num_conns = index.num_connections
        tdm_conn = index.tdm_conn
        hop_pair = index.pairs.hop_pair
        pair_ratio = self._pair_ratios(solution, index, assume_min_ratio)
        if index.unrouted >= 0:
            raise ValueError(f"connection {index.unrouted} is unrouted")
        sll_conn = index.sll_conn
        sll_sum = np.bincount(
            sll_conn, weights=np.full(sll_conn.size, model.d_sll), minlength=num_conns
        )
        pair_delay = model.d0 + model.d1 * pair_ratio
        tdm_sum = np.bincount(
            tdm_conn, weights=pair_delay[hop_pair], minlength=num_conns
        )
        delays = sll_sum + tdm_sum
        critical = 0.0
        critical_index = -1
        net_worst: Dict[int, float] = {}
        if num_conns:
            # fmax skips NaN as the scalar ``delay > worst`` test does.
            peak = float(np.fmax.reduce(delays))
            if peak > 0.0:
                critical = peak
                critical_index = int(np.argmax(delays == peak))
            # Connections come grouped by net, in ascending net order.
            conn_net = index.conn_net
            starts = np.flatnonzero(np.diff(conn_net, prepend=-1))
            worst = np.fmax.reduceat(delays, starts)
            positive = worst > 0.0
            net_worst = dict(
                zip(conn_net[starts][positive].tolist(), worst[positive].tolist())
            )
        return TimingReport(
            critical_delay=critical,
            critical_connection=critical_index,
            delays=delays.tolist(),
            net_worst_delay=net_worst,
        )

    def _pair_ratios(
        self, solution: RoutingSolution, index, assume_min_ratio: bool
    ) -> np.ndarray:
        """Each TDM use pair's ratio, looked up once by its use tuple.

        A missing ratio takes the minimum legal ratio under
        ``assume_min_ratio``; otherwise the first hop (in connection
        order) without one raises ``KeyError`` — unless an unrouted
        connection comes first, which raises ``ValueError``.
        """
        ratios = solution.ratios
        num_pairs = int(index.pairs.net.shape[0])
        try:
            return np.fromiter(
                map(ratios.__getitem__, index.use_keys()),
                dtype=np.float64,
                count=num_pairs,
            )
        except KeyError:
            pass
        uses = list(index.use_keys())
        looked_up = [ratios.get(use) for use in uses]
        missing = np.fromiter(
            (ratio is None for ratio in looked_up), dtype=bool, count=num_pairs
        )
        if not assume_min_ratio:
            hop = int(np.argmax(missing[index.pairs.hop_pair]))
            conn = int(index.tdm_conn[hop])
            if 0 <= index.unrouted < conn:
                raise ValueError(f"connection {index.unrouted} is unrouted")
            net_index, edge_index, direction = uses[index.pairs.hop_pair[hop]]
            raise KeyError(
                f"no TDM ratio for net {net_index} on edge "
                f"{edge_index} direction {direction}"
            )
        min_ratio = self.delay_model.tdm_step
        return np.array(
            [min_ratio if ratio is None else ratio for ratio in looked_up],
            dtype=np.float64,
        )

    def critical_delay(
        self,
        solution: RoutingSolution,
        assume_min_ratio: bool = False,
    ) -> float:
        """The critical connection delay (the paper's objective, Eq. 1)."""
        return self.analyze(solution, assume_min_ratio=assume_min_ratio).critical_delay

    def worst_connections(
        self,
        solution: RoutingSolution,
        count: int = 10,
        assume_min_ratio: bool = False,
    ) -> List[ConnectionTiming]:
        """The ``count`` connections with the largest delays, sorted."""
        timings = [
            self.connection_timing(solution, conn.index, assume_min_ratio=assume_min_ratio)
            for conn in self.netlist.connections
        ]
        timings.sort(key=lambda t: t.delay, reverse=True)
        return timings[:count]
