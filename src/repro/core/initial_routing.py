"""Phase I: delay-demand-balanced initial routing (Section III-B).

The router decomposes every net into connections, orders them by
Floyd–Warshall routing weight (descending; fewer-fanout nets first on
ties), and routes each with Dijkstra under the SLL/TDM cost model of
:mod:`repro.core.cost`.  Because SLL edges have hard capacities, the first
pass may overflow; negotiation rounds then raise the history cost of the
overflowed edges, rip up every net crossing them, and reroute until the
topology is overlap-free (or the round budget is exhausted — the remaining
overflow is reported, never silently dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.core.cost import EdgeCostModel
from repro.core.ordering import estimate_edge_weights, floyd_warshall, order_connections
from repro.core.pathfinder import NegotiationState
from repro.netlist.netlist import Netlist
from repro.obs import Tracer, get_logger
from repro.route.dijkstra import SearchStats, dijkstra_path, extract_path
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
            recomputing them, and kernel runs are seeded with the
            pristine-cost SSSP trees — bit-identical to a cold run,
            just cheaper.
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

    def route(
        self,
        *,
        resume: Optional[Mapping[str, Any]] = None,
        checkpoint: Optional[Any] = None,
        deadline: Optional[float] = None,
    ) -> RoutingSolution:
        """Produce an overlap-free (when feasible) routing topology.

        Args:
            resume: a ``phase1.round`` checkpoint payload
                (docs/resilience.md); the first pass is skipped, the
                checkpointed paths/history are restored and negotiation
                continues at the next round — bit-identical to never
                having stopped.
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
        paths: List[Optional[List[int]]] = [None] * netlist.num_connections
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
            for conn_index, path in enumerate(resume["paths"]):
                if path is not None:
                    dies = [int(d) for d in path]
                    paths[conn_index] = dies
                    state.add_path(
                        netlist.connections[conn_index].net_index, dies
                    )
            self.stats = InitialRoutingStats.from_dict(resume["stats"])
            start_round = int(resume["round"]) + 1
        if self.config.use_kernel:
            # Seed trees are priced at zero demand/history, which only a
            # fresh run starts from; a resumed run restores state first.
            seed_trees = (
                self.artifacts.seed_trees
                if self.artifacts is not None and resume is None
                else None
            )
            self._kernel = RoutingKernel(
                graph,
                cost_model,
                state,
                search_stats=self._search,
                seed_trees=seed_trees,
            )

        if resume is None:
            if checkpoint is not None:
                checkpoint.save(
                    "phase1.ordering",
                    lambda: {
                        "order": list(order),
                        "weight_mode": self.stats.weight_mode,
                    },
                )
            self._first_pass(order, graph, state, cost_model, paths)

        net_weight = self._net_routing_weights(dist)
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
                victim_nets = self._select_victims(state, overflowed, net_weight)
                victim_conns = sorted(
                    (
                        conn_index
                        for net_index in victim_nets
                        for conn_index in netlist.connection_indices_of(net_index)
                        if paths[conn_index] is not None
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
                for conn_index in victim_conns:
                    conn = netlist.connections[conn_index]
                    state.remove_path(conn.net_index, paths[conn_index])
                    paths[conn_index] = None
                if self._kernel is not None and self.config.batched_negotiation:
                    # Freeze the round's costs once, post-rip-up: victims
                    # sharing a source die then route off one cached tree.
                    self._kernel.sync()
                    for conn_index in victim_conns:
                        paths[conn_index] = self._route_frozen(conn_index, state)
                        self.stats.reroutes += 1
                else:
                    for conn_index in victim_conns:
                        paths[conn_index] = self._route_connection(
                            conn_index, graph, state, cost_model
                        )
                        self.stats.reroutes += 1
                if checkpoint is not None:
                    checkpoint.save(
                        "phase1.round",
                        lambda: self._round_payload(round_index, paths, cost_model),
                    )

        self.stats.final_overflow = state.total_overflow()
        if self._kernel is not None:
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
                    self.stats.negotiation_rounds, paths, cost_model
                ),
            )

        solution = RoutingSolution(self.system, netlist)
        for conn_index, path in enumerate(paths):
            if path is not None:
                solution.set_path(conn_index, path)
        return solution

    # ------------------------------------------------------------------
    def _round_payload(
        self,
        round_index: int,
        paths: List[Optional[List[int]]],
        cost_model: EdgeCostModel,
    ) -> Dict[str, Any]:
        """Checkpoint payload capturing the negotiation loop state."""
        return {
            "round": round_index,
            "paths": [list(p) if p is not None else None for p in paths],
            "history": list(cost_model.history),
            "stats": self.stats.to_dict(),
        }

    # ------------------------------------------------------------------
    def _first_pass(
        self,
        order: List[int],
        graph: RoutingGraph,
        state: NegotiationState,
        cost_model: EdgeCostModel,
        paths: List[Optional[List[int]]],
    ) -> None:
        """Route every connection once (Steiner / batched / per-connection)."""
        with self.tracer.span("ir.first_pass"):
            order = self._steiner_first_pass(order, graph, state, cost_model, paths)
            if self.config.initial_batch_size:
                self._batched_first_pass(order, graph, state, cost_model, paths)
            elif self._kernel is not None:
                self._route_ordered(order, state, paths)
            else:
                for conn_index in order:
                    paths[conn_index] = self._route_connection(
                        conn_index, graph, state, cost_model
                    )
                    self.stats.connections_routed += 1

    def _route_ordered(
        self,
        order: List[int],
        state: NegotiationState,
        paths: List[Optional[List[int]]],
    ) -> None:
        """Kernel-exact per-connection pass over ``order``.

        Inlined :meth:`_route_connection`: this loop runs once per
        connection and the call/attribute overhead is measurable at
        case07 scale.
        """
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
    def _steiner_first_pass(
        self,
        order: List[int],
        graph: RoutingGraph,
        state: NegotiationState,
        cost_model: EdgeCostModel,
        paths: List[Optional[List[int]]],
    ) -> List[int]:
        """Route high-fanout nets as whole Steiner trees (optional).

        Nets with at least ``steiner_fanout_threshold`` crossing sinks are
        routed atomically under the Eq. 2 cost model, in the order their
        first connection appears; their connections are removed from the
        per-connection order, which is returned.
        """
        threshold = self.config.steiner_fanout_threshold
        if threshold is None:
            return order
        from repro.route.steiner import steiner_tree_paths

        netlist = self.netlist
        demand = state.demand
        cost = cost_model.cost

        def edge_cost(edge_index: int, frm: int, to: int) -> float:
            return cost(edge_index, demand[edge_index], False)

        routed_nets = set()
        remaining: List[int] = []
        for conn_index in order:
            net_index = netlist.connections[conn_index].net_index
            net = netlist.net(net_index)
            if len(net.crossing_sink_dies) < threshold:
                remaining.append(conn_index)
                continue
            if net_index in routed_nets:
                continue
            routed_nets.add(net_index)
            tree = steiner_tree_paths(
                graph.adjacency, net.source_die, net.crossing_sink_dies, edge_cost
            )
            for conn in netlist.connections_of(net_index):
                path = tree[conn.sink_die]
                paths[conn.index] = path
                state.add_path(net_index, path)
                self.stats.connections_routed += 1
        return remaining

    # ------------------------------------------------------------------
    def _batched_first_pass(
        self,
        order: List[int],
        graph: RoutingGraph,
        state: NegotiationState,
        cost_model: EdgeCostModel,
        paths: List[Optional[List[int]]],
    ) -> None:
        """Wave-based first pass: one Dijkstra per source die per wave.

        Costs are frozen at the start of each wave (µ and the wave's own
        demand growth are ignored until the next wave), so large batches
        trade quality for throughput; the negotiation rounds and the
        timing-driven loop that follow are exact either way.

        With the kernel enabled the wave freeze is simply "don't sync
        until the wave commits": the epoch-keyed tree cache then shares
        one SSSP tree per distinct source die per wave.  The closure
        fallback keeps the same semantics with an explicit demand
        snapshot (one buffer reused across waves).
        """
        from repro.route.dijkstra import dijkstra_all

        netlist = self.netlist
        batch = self.config.initial_batch_size
        kernel = self._kernel
        if kernel is not None:
            for start in range(0, len(order), batch):
                kernel.sync()
                for conn_index in order[start : start + batch]:
                    conn = netlist.connections[conn_index]
                    _, prev = kernel.tree(conn.source_die)
                    path = extract_path(prev, conn.source_die, conn.sink_die)
                    paths[conn_index] = path
                    state.add_path(conn.net_index, path)
                    self.stats.connections_routed += 1
            return

        cost = cost_model.cost
        # One snapshot buffer reused across waves: the whole wave prices
        # edges identically (committing paths mid-wave would skew later
        # sources), without reallocating a demand copy per wave.
        snapshot = [0] * graph.num_edges

        def edge_cost(edge_index: int, frm: int, to: int) -> float:
            return cost(edge_index, snapshot[edge_index], False)

        for start in range(0, len(order), batch):
            wave = order[start : start + batch]
            snapshot[:] = state.demand
            trees = {}
            for conn_index in wave:
                source = netlist.connections[conn_index].source_die
                if source not in trees:
                    _, prev = dijkstra_all(
                        graph.adjacency, source, edge_cost, stats=self._search
                    )
                    trees[source] = prev
            for conn_index in wave:
                conn = netlist.connections[conn_index]
                path = extract_path(
                    trees[conn.source_die], conn.source_die, conn.sink_die
                )
                paths[conn_index] = path
                state.add_path(conn.net_index, path)
                self.stats.connections_routed += 1

    # ------------------------------------------------------------------
    def _net_routing_weights(self, dist) -> List[float]:
        """Per-net routing weight: the largest of its connections' weights."""
        weights = [0.0] * self.netlist.num_nets
        dist_rows = dist.tolist()
        for conn in self.netlist.connections:
            weight = dist_rows[conn.source_die][conn.sink_die]
            if weight > weights[conn.net_index]:
                weights[conn.net_index] = weight
        return weights

    def _select_victims(
        self,
        state: NegotiationState,
        overflowed: List[int],
        net_weight: List[float],
    ) -> set:
        """Choose which nets to rip up from the overflowed SLL edges.

        Per edge, only ``ceil(ripup_factor * overuse)`` nets move — those
        with the smallest routing weight (the easiest to detour), keeping
        long critical nets on their established paths.
        """
        factor = self.config.ripup_factor
        victims = set()
        for edge_index in overflowed:
            overuse = state.overuse(edge_index)
            nets = state.nets_on_edge(edge_index)
            if factor == float("inf"):
                victims.update(nets)
                continue
            quota = int(math.ceil(factor * overuse))
            # sorted(), not .sort(): NegotiationState may hand out
            # references to its internals, which must stay unordered.
            ranked = sorted(nets, key=lambda n: (net_weight[n], n))
            victims.update(ranked[:quota])
        return victims

    def _route_connection(
        self,
        conn_index: int,
        graph: RoutingGraph,
        state: NegotiationState,
        cost_model: EdgeCostModel,
    ) -> List[int]:
        """Dijkstra one connection under the current negotiated costs."""
        conn = self.netlist.connections[conn_index]
        kernel = self._kernel
        if kernel is not None:
            kernel.sync()
            path = kernel.route(
                conn.source_die,
                conn.sink_die,
                state.net_edges_view(conn.net_index),
            )
        else:
            net_edges = state.net_edges(conn.net_index)
            demand = state.demand
            cost = cost_model.cost

            def edge_cost(edge_index: int, frm: int, to: int) -> float:
                return cost(edge_index, demand[edge_index], edge_index in net_edges)

            path = dijkstra_path(
                graph.adjacency,
                conn.source_die,
                conn.sink_die,
                edge_cost,
                stats=self._search,
            )
        if path is None:
            raise RuntimeError(
                f"connection {conn_index} (die {conn.source_die} -> "
                f"{conn.sink_die}) is unroutable: system graph disconnected"
            )
        state.add_path(conn.net_index, path)
        return path

    def _route_frozen(self, conn_index: int, state: NegotiationState) -> List[int]:
        """Route one victim under the kernel's frozen round costs.

        Like :meth:`_route_connection` but without the per-connection
        cost sync: the caller froze the epoch for the whole round, so
        same-source victims share one cached SSSP tree (the µ overlay,
        when the net still holds edges, is still applied per net).
        """
        conn = self.netlist.connections[conn_index]
        path = self._kernel.route(
            conn.source_die,
            conn.sink_die,
            state.net_edges_view(conn.net_index),
            prefer_tree=True,
        )
        if path is None:
            raise RuntimeError(
                f"connection {conn_index} (die {conn.source_die} -> "
                f"{conn.sink_die}) is unroutable: system graph disconnected"
            )
        state.add_path(conn.net_index, path)
        return path
