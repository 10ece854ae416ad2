"""Phase I: delay-demand-balanced initial routing (Section III-B).

The router decomposes every net into connections, orders them by
Floyd–Warshall routing weight (descending; fewer-fanout nets first on
ties), and routes each with Dijkstra under the SLL/TDM cost model of
:mod:`repro.core.cost`, searched by the exact
:class:`~repro.route.kernel.RoutingKernel`.  Because SLL edges have hard
capacities, the first pass may overflow; negotiation rounds then raise
the history cost of the overflowed edges, rip up the cheapest-to-move
nets crossing them (``ceil(ripup_factor * overuse)`` per edge), and
reroute until the topology is overlap-free (or the round budget is
exhausted — the remaining overflow is reported, never silently dropped).

One engine serves cold runs, checkpoint resume and ECO: paths restored
from a checkpoint or carried over from an earlier solution enter the
negotiation state first, and the first pass routes only the connections
still without a path.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Union

import numpy as np

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.core.cost import EdgeCostModel
from repro.core.ordering import estimate_edge_weights, floyd_warshall, order_connections
from repro.core.pathfinder import NegotiationState
from repro.netlist.netlist import Netlist
from repro.obs import Tracer, get_logger
from repro.route.dijkstra import SearchStats
from repro.route.graph import RoutingGraph
from repro.route.kernel import RoutingKernel
from repro.route.solution import RoutingSolution
from repro.timing.delay import DelayModel

logger = get_logger(__name__)


@dataclass
class InitialRoutingStats:
    """Diagnostics of one initial-routing run.

    ``degraded`` is set when a wall-clock budget cut negotiation short
    (docs/resilience.md); the remaining overflow is then still reported
    in ``final_overflow``.
    """

    negotiation_rounds: int = 0
    connections_routed: int = 0
    reroutes: int = 0
    final_overflow: int = 0
    weight_mode: str = ""
    history: List[int] = field(default_factory=list)
    degraded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (checkpoint payloads)."""
        return {
            "negotiation_rounds": self.negotiation_rounds,
            "connections_routed": self.connections_routed,
            "reroutes": self.reroutes,
            "final_overflow": self.final_overflow,
            "weight_mode": self.weight_mode,
            "history": list(self.history),
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InitialRoutingStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            negotiation_rounds=int(data["negotiation_rounds"]),
            connections_routed=int(data["connections_routed"]),
            reroutes=int(data["reroutes"]),
            final_overflow=int(data["final_overflow"]),
            weight_mode=str(data["weight_mode"]),
            history=[int(v) for v in data["history"]],
            degraded=bool(data.get("degraded", False)),
        )


class InitialRouter:
    """The paper's phase I router.

    Args:
        artifacts: optional warm per-topology state
            (:class:`repro.core.artifacts.RoutingArtifacts`, built for
            *this* case and pricing config).  When given, ``ir.prepare``
            reuses the prebuilt graph/weights/ordering instead of
            recomputing them — bit-identical to a cold run, just cheaper.

    After :meth:`route`, :attr:`ripped_nets` holds the nets negotiation
    ripped up (every connection of such a net was rerouted); ECO reports
    its delta from it.
    """

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: Optional[DelayModel] = None,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
        artifacts: Optional[Any] = None,
    ) -> None:
        netlist.validate_against(system.num_dies)
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.artifacts = artifacts
        self.stats = InitialRoutingStats()
        self._search = SearchStats()
        self._kernel: Optional[RoutingKernel] = None
        self.ripped_nets: Set[int] = set()

    def route(
        self,
        *,
        carried: Optional[
            Union[RoutingSolution, Sequence[Optional[Sequence[int]]]]
        ] = None,
        resume: Optional[Mapping[str, Any]] = None,
        checkpoint: Optional[Any] = None,
        deadline: Optional[float] = None,
    ) -> RoutingSolution:
        """Produce an overlap-free (when feasible) routing topology.

        Args:
            carried: die paths kept from an earlier solution (ECO,
                :mod:`repro.core.eco`): a topology-only
                :class:`RoutingSolution` of this netlist, whose paths
                enter as they are and whose unrouted connections are
                the ones to route; or one die path per connection
                (``None``: route it), validated as
                :meth:`RoutingSolution.set_paths` does.  They enter the
                negotiation state before the first pass, which then
                routes only the connections without one; negotiation may
                rip them up like any other path.  The returned solution
                shares a carried solution's path table and validates
                only the paths this run routed.
            resume: a ``phase1.round`` checkpoint payload
                (docs/resilience.md); the first pass is skipped, the
                checkpointed paths (JSON lists made int tuples, or a
                topology-only :class:`RoutingSolution` holding them) and
                history are restored and negotiation continues at the
                next round — bit-identical to never having stopped.
            checkpoint: duck-typed writer with
                ``save(barrier, build_payload)``
                (e.g. :class:`repro.resilience.CheckpointManager`);
                offered a barrier after connection ordering, after every
                negotiation round, and on completion.  ``build_payload``
                returns the barrier's JSON-ready state and is called
                only when the writer writes that barrier.
            deadline: wall-clock budget as a ``tracer.elapsed()`` value;
                checked at round boundaries — when exceeded, negotiation
                stops with the best-so-far topology and
                ``stats.degraded`` set.
        """
        if carried is not None and resume is not None:
            raise ValueError("pass carried paths or a resume payload, not both")
        netlist = self.netlist
        tracer = self.tracer
        with tracer.span("ir.prepare"):
            if self.artifacts is not None:
                # Warm path: the artifacts were computed with exactly the
                # functions below (repro.core.artifacts.build_artifacts),
                # so every value is bit-identical to the cold path.
                graph = self.artifacts.graph
                weights = self.artifacts.base_weights
                self.stats.weight_mode = self.artifacts.weight_mode
                dist = self.artifacts.dist
                order = list(self.artifacts.order)
                rank = dict(self.artifacts.rank)
                tracer.add("ir.warm_prepares")
            else:
                graph = RoutingGraph(self.system)
                weights = estimate_edge_weights(
                    graph, netlist, self.config.weight_mode
                )
                self.stats.weight_mode = (
                    "delay"
                    if weights[graph.is_tdm].max(initial=0) > 1
                    else "congestion"
                )
                dist = floyd_warshall(graph, weights)
                order = order_connections(netlist, dist)
                rank = {conn_index: pos for pos, conn_index in enumerate(order)}

        state = NegotiationState(graph)
        cost_model = EdgeCostModel(graph, self.delay_model, self.config, weights)
        # Paths this run routes; a restored topology stays in ``kept``
        # until negotiation rips a connection out of it.
        paths: List[Optional[Sequence[int]]] = [None] * netlist.num_connections
        kept: Optional[RoutingSolution] = None
        start_round = 0
        if resume is not None:
            # Restore the post-round snapshot *before* the kernel prices
            # anything: its initial cost vector reads demand and history.
            history = resume["history"]
            if len(history) != graph.num_edges:
                raise ValueError(
                    f"checkpoint has {len(history)} history entries, "
                    f"graph has {graph.num_edges} edges"
                )
            cost_model.history[:] = [float(h) for h in history]
            kept = self._kept_topology(resume["paths"])
            self.stats = InitialRoutingStats.from_dict(resume["stats"])
            start_round = int(resume["round"]) + 1
        elif carried is not None:
            kept = self._kept_topology(carried)
        if kept is not None:
            state.load(*kept.topology_index().net_edge_counts())
        self._kernel = RoutingKernel(
            graph, cost_model, state, search_stats=self._search
        )

        def current_path(conn_index: int) -> Optional[Sequence[int]]:
            path = paths[conn_index]
            if path is None and kept is not None:
                path = kept.path(conn_index)
            return path

        if resume is None:
            if checkpoint is not None:
                checkpoint.save(
                    "phase1.ordering",
                    lambda: {
                        "order": list(order),
                        "weight_mode": self.stats.weight_mode,
                    },
                )
            if kept is None:
                self._first_pass(order, state, paths)
            else:
                todo = np.asarray(order, dtype=np.int64)
                self._first_pass(
                    todo[kept.path_ids()[todo] < 0].tolist(), state, paths
                )

        net_rank: Optional[List[int]] = None
        with tracer.span("ir.negotiation"):
            for round_index in range(start_round, self.config.max_reroute_iterations):
                if deadline is not None and tracer.elapsed() > deadline:
                    self.stats.degraded = True
                    logger.warning(
                        "phase I budget exhausted before round %d; keeping "
                        "best-so-far topology (overflow %d)",
                        round_index,
                        state.total_overflow(),
                    )
                    break
                overflowed = state.overflowed_sll_edges()
                overflow = state.total_overflow()
                self.stats.history.append(overflow)
                if tracer.enabled:
                    tracer.event(
                        "ir.iteration",
                        iteration=round_index,
                        overflow=overflow,
                        overflowed_edges=len(overflowed),
                        overuse_histogram=state.overuse_histogram(),
                    )
                if not overflowed:
                    break
                self.stats.negotiation_rounds = round_index + 1
                cost_model.add_history(overflowed)
                if net_rank is None:
                    net_rank = self._net_victim_ranks(dist)
                victim_nets = self._select_victims(state, overflowed, net_rank)
                victim_conns = sorted(
                    (
                        conn_index
                        for net_index in victim_nets
                        for conn_index in netlist.connection_indices_of(net_index)
                        if current_path(conn_index) is not None
                    ),
                    key=lambda conn_index: rank[conn_index],
                )
                logger.debug(
                    "negotiation round %d: overflow %d on %d edges, "
                    "ripping %d nets (%d connections)",
                    round_index,
                    overflow,
                    len(overflowed),
                    len(victim_nets),
                    len(victim_conns),
                )
                tracer.add("ir.ripped_nets", len(victim_nets))
                tracer.add("ir.ripped_connections", len(victim_conns))
                self.ripped_nets.update(victim_nets)
                for conn_index in victim_conns:
                    conn = netlist.connections[conn_index]
                    state.remove_path(conn.net_index, current_path(conn_index))
                    paths[conn_index] = None
                    if kept is not None:
                        kept.clear_path(conn_index)
                for conn_index in victim_conns:
                    paths[conn_index] = self._route_connection(conn_index, state)
                    self.stats.reroutes += 1
                if checkpoint is not None:
                    checkpoint.save(
                        "phase1.round",
                        lambda: self._round_payload(
                            round_index, paths, kept, cost_model
                        ),
                    )

        self.stats.final_overflow = state.total_overflow()
        self._kernel.publish_stats(tracer)
        tracer.add("ir.connections_routed", self.stats.connections_routed)
        tracer.add("ir.reroutes", self.stats.reroutes)
        tracer.add("dijkstra.searches", self._search.searches)
        tracer.add("dijkstra.pops", self._search.pops)
        tracer.add("dijkstra.relaxations", self._search.relaxations)
        tracer.gauge("ir.negotiation_rounds", self.stats.negotiation_rounds)
        tracer.gauge("ir.final_overflow", self.stats.final_overflow)
        logger.info(
            "phase I done: %d connections, %d reroutes over %d rounds, "
            "final overflow %d (%s weights)",
            self.stats.connections_routed,
            self.stats.reroutes,
            self.stats.negotiation_rounds,
            self.stats.final_overflow,
            self.stats.weight_mode,
        )
        if checkpoint is not None:
            checkpoint.save(
                "phase1.done",
                lambda: self._round_payload(
                    self.stats.negotiation_rounds, paths, kept, cost_model
                ),
            )

        if kept is None:
            solution = RoutingSolution(self.system, netlist)
            solution.set_paths(paths)
            return solution
        # The kept topology lacks exactly the paths this run routed.
        for conn_index in kept.unrouted_connections():
            if paths[conn_index] is not None:
                kept.set_path(conn_index, paths[conn_index])
        return kept

    # ------------------------------------------------------------------
    def _round_payload(
        self,
        round_index: int,
        paths: List[Optional[Sequence[int]]],
        kept: Optional[RoutingSolution],
        cost_model: EdgeCostModel,
    ) -> Dict[str, Any]:
        """Checkpoint payload capturing the negotiation loop state."""
        if kept is not None:
            paths = [
                path if path is not None else kept_path
                for path, kept_path in zip(paths, kept.paths())
            ]
        return {
            "round": round_index,
            "paths": [list(p) if p is not None else None for p in paths],
            "history": list(cost_model.history),
            "stats": self.stats.to_dict(),
        }

    # ------------------------------------------------------------------
    def _kept_topology(
        self, saved: Union[RoutingSolution, Sequence[Optional[Sequence[int]]]]
    ) -> RoutingSolution:
        """A private topology-only solution holding resumed or carried paths.

        A solution is copied as is (its paths were validated when they
        entered its table); a list of paths is validated here.

        Raises:
            ValueError: when there is not one path per connection, or a
                listed path is malformed (as :meth:`RoutingSolution.set_paths`).
        """
        count = self.netlist.num_connections
        if isinstance(saved, RoutingSolution):
            if saved.netlist.num_connections != count:
                raise ValueError(
                    f"{saved.netlist.num_connections} saved paths for "
                    f"{count} connections"
                )
            return saved.copy_topology()
        if len(saved) != count:
            raise ValueError(f"{len(saved)} saved paths for {count} connections")
        kept = RoutingSolution(self.system, self.netlist)
        kept.set_paths(
            [None if path is None else tuple(map(int, path)) for path in saved]
        )
        return kept

    def _first_pass(
        self,
        order: List[int],
        state: NegotiationState,
        paths: List[Optional[Sequence[int]]],
    ) -> None:
        """Route each connection of ``order`` once, in that order.

        Inlined :meth:`_route_connection`: this loop runs once per
        connection and the call/attribute overhead is measurable at
        case07 scale.
        """
        with self.tracer.span("ir.first_pass"):
            kernel = self._kernel
            sync = kernel.sync
            search = kernel.route
            net_edges_view = state.net_edges_view
            add_path = state.add_path
            connections = self.netlist.connections
            for conn_index in order:
                conn = connections[conn_index]
                sync()
                path = search(
                    conn.source_die,
                    conn.sink_die,
                    net_edges_view(conn.net_index),
                )
                if path is None:
                    raise RuntimeError(
                        f"connection {conn_index} (die {conn.source_die} "
                        f"-> {conn.sink_die}) is unroutable: system "
                        "graph disconnected"
                    )
                add_path(conn.net_index, path)
                paths[conn_index] = path
            self.stats.connections_routed += len(order)

    # ------------------------------------------------------------------
    def _net_routing_weights(self, dist) -> List[float]:
        """Per-net routing weight: the largest of its connections' weights
        (0 for a net without connections)."""
        netlist = self.netlist
        sources, sinks = netlist.connection_dies()
        weights = np.zeros(netlist.num_nets, dtype=np.float64)
        np.maximum.at(weights, netlist.connection_net_indices(), dist[sources, sinks])
        return weights.tolist()

    def _net_victim_ranks(self, dist) -> List[int]:
        """Per-net position in rip-up order: by routing weight, then index.

        The stable sort keeps equal weights in index order, so ranks order
        nets exactly as the ``(weight, net index)`` pair does.
        """
        weights = self._net_routing_weights(dist)
        ranks = np.empty(len(weights), dtype=np.int64)
        ranks[np.argsort(weights, kind="stable")] = np.arange(len(weights))
        return ranks.tolist()

    def _select_victims(
        self,
        state: NegotiationState,
        overflowed: List[int],
        net_rank: List[int],
    ) -> set:
        """Choose which nets to rip up from the overflowed SLL edges.

        Per edge, only ``ceil(ripup_factor * overuse)`` nets move — those
        with the smallest routing weight (the easiest to detour), keeping
        long critical nets on their established paths.
        """
        factor = self.config.ripup_factor
        victims = set()
        for edge_index in overflowed:
            nets = state.nets_on_edge(edge_index)
            if factor == float("inf"):
                victims.update(nets)
                continue
            quota = int(math.ceil(factor * state.overuse(edge_index)))
            victims.update(heapq.nsmallest(quota, nets, key=net_rank.__getitem__))
        return victims

    def _route_connection(
        self, conn_index: int, state: NegotiationState
    ) -> List[int]:
        """Dijkstra one connection under the current negotiated costs."""
        conn = self.netlist.connections[conn_index]
        kernel = self._kernel
        kernel.sync()
        path = kernel.route(
            conn.source_die,
            conn.sink_die,
            state.net_edges_view(conn.net_index),
        )
        if path is None:
            raise RuntimeError(
                f"connection {conn_index} (die {conn.source_die} -> "
                f"{conn.sink_die}) is unroutable: system graph disconnected"
            )
        state.add_path(conn.net_index, path)
        return path
