"""Incremental (ECO) rerouting.

Emulation flows iterate: after an engineering change order only a few
nets differ, and re-running the full router discards a known-good
solution.  :class:`EcoRouter` supports two incremental operations:

* :meth:`EcoRouter.reroute_nets` — rip up and re-route a chosen set of
  nets of an existing solution (e.g. timing-failing ones) under the
  current congestion picture, then re-run phase II.
* :meth:`EcoRouter.migrate` — carry a solution over to a *new* netlist:
  connections of nets whose name and pins are unchanged keep their paths;
  only new or modified nets are routed.

Both hand the kept paths to the phase I router
(:class:`~repro.core.initial_routing.InitialRouter`), which routes only
the connections without one and negotiates any SLL overflow exactly as a
cold run does.  Untouched nets keep their topology unless negotiation
rips them up (disturbed nets are reported, never hidden).  Kept paths
travel as path ids into the old solution's path table, so nothing is
converted or validated again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

import numpy as np

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.core.initial_routing import InitialRouter
from repro.core.router import TdmAssigner
from repro.netlist.netlist import Netlist
from repro.obs import Tracer
from repro.route.solution import RoutingSolution, ranges
from repro.timing.analysis import TimingAnalyzer
from repro.timing.delay import DelayModel


@dataclass
class EcoResult:
    """Output of an incremental routing operation.

    Attributes:
        solution: the updated solution (paths, ratios and wires).
        critical_delay: Eq. 1 objective after the update.
        conflict_count: remaining SLL overflow (phase I's final overflow).
        rerouted_connections: connections whose path was (re)computed.
        preserved_connections: connections whose path was carried over.
        disturbed_nets: untouched nets that negotiation had to move.
    """

    solution: RoutingSolution
    critical_delay: float
    conflict_count: int
    rerouted_connections: int = 0
    preserved_connections: int = 0
    disturbed_nets: Set[int] = field(default_factory=set)


class EcoRouter:
    """Incremental router over an existing solution.

    Args:
        system: the multi-FPGA system.
        delay_model: delay constants (defaults match DESIGN.md).
        config: tuning knobs for both phases.
        tracer: obs tracer receiving the phase I and phase II spans and
            counters; defaults to a fresh null-sink tracer.
    """

    def __init__(
        self,
        system: MultiFpgaSystem,
        delay_model: Optional[DelayModel] = None,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.system = system
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------
    def reroute_nets(
        self,
        solution: RoutingSolution,
        net_indices: Iterable[int],
    ) -> EcoResult:
        """Rip up and re-route the given nets of an existing solution.

        Args:
            solution: the solution whose nets to reroute.
            net_indices: nets to rip up.
        """
        netlist = solution.netlist
        targets = sorted(set(net_indices))
        for net_index in targets:
            if not 0 <= net_index < netlist.num_nets:
                raise ValueError(f"unknown net index {net_index}")
        path_ids = solution.path_ids()
        path_ids[np.isin(netlist.connection_net_indices(), targets)] = -1
        carried = solution.with_path_ids(netlist, path_ids)
        return self._route_missing(netlist, carried)

    def migrate(
        self,
        old_solution: RoutingSolution,
        new_netlist: Netlist,
    ) -> EcoResult:
        """Carry a solution to a changed netlist, routing only the delta.

        A net carries over when the new netlist has a net of the same
        name, source die and sink dies; its connections inherit the old
        paths.  Everything else is routed incrementally.
        """
        old_netlist = old_solution.netlist
        old_net_by_name = old_netlist.net_by_name
        old_offsets = old_netlist.connection_offsets()
        new_offsets = new_netlist.connection_offsets()
        new_starts: List[int] = []
        old_starts: List[int] = []
        lengths: List[int] = []
        for net in new_netlist.nets:
            start = new_offsets[net.index]
            stop = new_offsets[net.index + 1]
            if start == stop:
                continue
            old_net = old_net_by_name(net.name)
            if (
                old_net is None
                or old_net.source_die != net.source_die
                or old_net.sink_dies != net.sink_dies
            ):
                continue
            # Equal source and sinks give the same connection layout.
            new_starts.append(start)
            old_starts.append(old_offsets[old_net.index])
            lengths.append(stop - start)
        # One gather copies every carried net's slice of path ids.
        counts = np.array(lengths, dtype=np.int64)
        path_ids = np.full(new_netlist.num_connections, -1, dtype=np.int64)
        old_ids = old_solution.path_ids()
        path_ids[ranges(np.array(new_starts, dtype=np.int64), counts)] = old_ids[
            ranges(np.array(old_starts, dtype=np.int64), counts)
        ]
        carried = old_solution.with_path_ids(new_netlist, path_ids)
        result = self._route_missing(new_netlist, carried)
        result.preserved_connections = int(np.count_nonzero(path_ids >= 0))
        return result

    # ------------------------------------------------------------------
    def _route_missing(self, netlist: Netlist, carried: RoutingSolution) -> EcoResult:
        """Route every connection ``carried`` leaves unrouted, re-run phase II."""
        # The router's phase I span, so traced ECO runs share its rows.
        with self.tracer.span("phase.initial_routing"):
            router = InitialRouter(
                self.system,
                netlist,
                self.delay_model,
                self.config,
                tracer=self.tracer,
            )
            solution = router.route(carried=carried)
        # Phase I routed the connections without a carried path, then
        # every connection of each net negotiation ripped up; a ripped
        # net that had a carried path is disturbed.
        carried_ids = carried.path_ids()
        rerouted = carried_ids < 0
        offsets = netlist.connection_offsets()
        disturbed: Set[int] = set()
        for net_index in router.ripped_nets:
            conns = slice(offsets[net_index], offsets[net_index + 1])
            if (carried_ids[conns] >= 0).any():
                disturbed.add(net_index)
            rerouted[conns] = True
        TdmAssigner(
            self.system, netlist, self.delay_model, self.config, tracer=self.tracer
        ).assign(solution)
        analyzer = TimingAnalyzer(self.system, netlist, self.delay_model)
        critical = (
            analyzer.critical_delay(solution) if netlist.num_connections else 0.0
        )
        return EcoResult(
            solution=solution,
            critical_delay=critical,
            conflict_count=router.stats.final_overflow,
            rerouted_connections=int(np.count_nonzero(rerouted)),
            disturbed_nets=disturbed,
        )
