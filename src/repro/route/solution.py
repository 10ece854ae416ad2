"""The routing solution container.

A :class:`RoutingSolution` holds, for a fixed system and netlist:

* a loop-free die path per connection (*the routing topology*),
* a TDM ratio per (net, TDM edge, direction) use (*the ratio assignment*),
* the physical TDM wires per TDM edge and the net-to-wire mapping
  (*the wire assignment*).

Routers populate it in that order; the timing analyzer and the DRC only
ever read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arch.edges import EdgeKind, TdmWire
from repro.arch.system import MultiFpgaSystem
from repro.netlist.netlist import Netlist
from repro.route.tree import path_to_edge_list

#: A (net_index, edge_index, direction) triple identifying one use of a
#: directed TDM edge by a net.
NetEdgeUse = Tuple[int, int, int]


@dataclass
class SllOverflow:
    """An SLL edge whose net demand exceeds its capacity."""

    edge_index: int
    demand: int
    capacity: int

    @property
    def excess(self) -> int:
        """Number of nets beyond the capacity."""
        return self.demand - self.capacity


class RoutingSolution:
    """Mutable routing state for one (system, netlist) pair."""

    def __init__(self, system: MultiFpgaSystem, netlist: Netlist) -> None:
        netlist.validate_against(system.num_dies)
        self.system = system
        self.netlist = netlist
        self._paths: List[Optional[Tuple[int, ...]]] = [None] * netlist.num_connections
        #: TDM ratio per (net, edge, direction); populated by phase II.
        self.ratios: Dict[NetEdgeUse, float] = {}
        #: Physical wires per TDM edge index; populated by wire assignment.
        self.wires: Dict[int, List[TdmWire]] = {}
        #: Wire position (within ``wires[edge]``) per net edge use.
        self.net_wire: Dict[NetEdgeUse, int] = {}
        #: Derived usage maps, rebuilt on first read after a path change:
        #: per-edge net sets (#CONF, demand) and, separately, the TDM use
        #: maps that only phase II and the DRC read.
        self._edge_nets: Optional[List[Set[int]]] = None
        self._tdm_uses: Optional[
            Tuple[Dict[int, List[NetEdgeUse]], Dict[Tuple[int, int], List[int]]]
        ] = None
        #: Per-connection (edge_index, direction) hops, maintained by
        #: :meth:`set_path` so no consumer re-derives them from die paths.
        self._conn_hops: List[Optional[List[Tuple[int, int]]]] = [
            None
        ] * netlist.num_connections
        #: Hop lists memoized per distinct die path: connections share
        #: few distinct paths, and the lists are never mutated.
        self._hops_memo: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
        #: numpy mirrors of the hop lists, memoized per distinct path
        #: (read-only; consumed by the phase II incidence builder).
        self._hop_arrays_memo: Dict[
            Tuple[int, ...], Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._is_tdm: List[bool] = [
            edge.kind is EdgeKind.TDM for edge in system.edges
        ]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def set_path(self, connection_index: int, dies: Sequence[int]) -> None:
        """Set the routed die path of a connection.

        Args:
            connection_index: index into the netlist's connection list.
            dies: consecutive die indices from the connection's source die
                to its sink die.

        Raises:
            ValueError: if the endpoints do not match the connection, the
                path revisits a die, or consecutive dies are not adjacent.
        """
        conn = self.netlist.connections[connection_index]
        key = tuple(dies)
        self._conn_hops[connection_index] = self._checked_hops(
            key, conn.source_die, conn.sink_die
        )
        self._paths[connection_index] = key
        self._edge_nets = self._tdm_uses = None

    def set_paths(self, paths: Sequence[Optional[Sequence[int]]]) -> None:
        """Set every connection's die path at once (``None``: unrouted).

        Equivalent to :meth:`set_path` on each routed connection of a
        fresh solution, without its per-call overhead: the endpoints are
        checked against the netlist's int columns, and each distinct die
        path is validated once through the hops memo.  Nothing changes
        when a path is rejected.

        Args:
            paths: one die path (or ``None``) per connection, by index.

        Raises:
            ValueError: when the list length differs from the connection
                count, or (as :meth:`set_path`, for the first offending
                connection) when a path has wrong endpoints, revisits a
                die or joins non-adjacent dies.
        """
        count = self.netlist.num_connections
        if len(paths) != count:
            raise ValueError(f"{len(paths)} paths for {count} connections")
        sources, sinks = self.netlist.connection_dies()
        checked_hops = self._checked_hops
        keys = [None if path is None else tuple(path) for path in paths]
        conn_hops = [
            None if key is None else checked_hops(key, source, sink)
            for key, source, sink in zip(keys, sources.tolist(), sinks.tolist())
        ]
        self._paths = keys
        self._conn_hops = conn_hops
        self._edge_nets = self._tdm_uses = None

    def _checked_hops(
        self, key: Tuple[int, ...], source: int, sink: int
    ) -> List[Tuple[int, int]]:
        """Hops of die path ``key`` for a ``source`` → ``sink`` connection.

        Validates adjacency and loop-freedom once per distinct path; the
        hops are kept so no later pass (usage cache, timing, incidence)
        re-derives them.
        """
        if not key or key[0] != source or key[-1] != sink:
            raise ValueError(
                f"path {list(key)} does not run from die {source} to die {sink}"
            )
        hops = self._hops_memo.get(key)
        if hops is None:
            hops = self._hops_memo[key] = path_to_edge_list(self.system, key)
        return hops

    def clear_path(self, connection_index: int) -> None:
        """Remove the routed path of a connection."""
        self._paths[connection_index] = None
        self._conn_hops[connection_index] = None
        self._edge_nets = self._tdm_uses = None

    def path(self, connection_index: int) -> Optional[Tuple[int, ...]]:
        """The routed die path of a connection (``None`` when unrouted)."""
        return self._paths[connection_index]

    def paths(self) -> List[Optional[Tuple[int, ...]]]:
        """Every connection's die path by connection index (a new list)."""
        return list(self._paths)

    def path_hops(self, connection_index: int) -> List[Tuple[int, int]]:
        """``(edge_index, direction)`` hops of a connection's path."""
        hops = self._conn_hops[connection_index]
        if hops is None:
            raise ValueError(f"connection {connection_index} is unrouted")
        return hops

    def path_hop_arrays(self, connection_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(edge_indices, directions)`` int64 arrays of a connection's hops.

        Memoized per distinct die path (like :meth:`path_hops`); the
        returned arrays are shared and must not be mutated.
        """
        path = self._paths[connection_index]
        if path is None:
            raise ValueError(f"connection {connection_index} is unrouted")
        arrays = self._hop_arrays_memo.get(path)
        if arrays is None:
            hops = self._conn_hops[connection_index]
            count = len(hops)
            arrays = (
                np.fromiter((hop[0] for hop in hops), dtype=np.int64, count=count),
                np.fromiter((hop[1] for hop in hops), dtype=np.int64, count=count),
            )
            self._hop_arrays_memo[path] = arrays
        return arrays

    @property
    def is_complete(self) -> bool:
        """Whether every connection has a routed path."""
        return all(path is not None for path in self._paths)

    def unrouted_connections(self) -> List[int]:
        """Indices of connections without a routed path."""
        return [i for i, path in enumerate(self._paths) if path is None]

    # ------------------------------------------------------------------
    # Derived usage maps
    # ------------------------------------------------------------------
    def _ensure_edge_nets(self) -> List[Set[int]]:
        if self._edge_nets is None:
            # Group nets by die path first: many connections share a
            # path, so each distinct path's edges are walked once.
            nets_by_path: Dict[Tuple[int, ...], Set[int]] = {}
            for path, net_index in zip(
                self._paths, self.netlist.connection_net_indices().tolist()
            ):
                if path is not None:
                    nets = nets_by_path.get(path)
                    if nets is None:
                        nets_by_path[path] = {net_index}
                    else:
                        nets.add(net_index)
            edge_nets: List[Set[int]] = [set() for _ in range(self.system.num_edges)]
            for path, nets in nets_by_path.items():
                for edge_index, _ in self._hops_memo[path]:
                    edge_nets[edge_index].update(nets)
            self._edge_nets = edge_nets
        return self._edge_nets

    def _ensure_tdm_uses(
        self,
    ) -> Tuple[Dict[int, List[NetEdgeUse]], Dict[Tuple[int, int], List[int]]]:
        if self._tdm_uses is None:
            net_uses: Dict[int, List[NetEdgeUse]] = {}
            directed_nets: Dict[Tuple[int, int], List[int]] = {}
            is_tdm = self._is_tdm
            seen_uses: Set[NetEdgeUse] = set()
            for conn in self.netlist.connections:
                hops = self._conn_hops[conn.index]
                if hops is None:
                    continue
                net_index = conn.net_index
                for edge_index, direction in hops:
                    if is_tdm[edge_index]:
                        use = (net_index, edge_index, direction)
                        if use not in seen_uses:
                            seen_uses.add(use)
                            net_uses.setdefault(net_index, []).append(use)
                            directed_nets.setdefault(
                                (edge_index, direction), []
                            ).append(net_index)
            self._tdm_uses = (net_uses, directed_nets)
        return self._tdm_uses

    def edge_nets(self, edge_index: int) -> Set[int]:
        """Set of net indices routed over an edge."""
        return self._ensure_edge_nets()[edge_index]

    def edge_demand(self, edge_index: int) -> int:
        """Number of distinct nets routed over an edge (``demand_e``)."""
        return len(self.edge_nets(edge_index))

    def net_uses(self, net_index: int) -> List[NetEdgeUse]:
        """Directed TDM edge uses of a net (one per edge+direction)."""
        return self._ensure_tdm_uses()[0].get(net_index, [])

    def all_net_uses(self) -> List[NetEdgeUse]:
        """Every (net, TDM edge, direction) use in the solution."""
        uses: List[NetEdgeUse] = []
        for net_uses in self._ensure_tdm_uses()[0].values():
            uses.extend(net_uses)
        return uses

    def directed_tdm_nets(self, edge_index: int, direction: int) -> List[int]:
        """Nets using a TDM edge in the given direction (in routing order)."""
        return list(self._ensure_tdm_uses()[1].get((edge_index, direction), []))

    def sll_overflows(self) -> List[SllOverflow]:
        """SLL edges whose demand exceeds capacity."""
        edge_nets = self._ensure_edge_nets()
        overflows = []
        for edge in self.system.sll_edges:
            demand = len(edge_nets[edge.index])
            if demand > edge.capacity:
                overflows.append(
                    SllOverflow(edge_index=edge.index, demand=demand, capacity=edge.capacity)
                )
        return overflows

    def conflict_count(self) -> int:
        """Total SLL overflow (the paper's #CONF metric)."""
        return sum(o.excess for o in self.sll_overflows())

    # ------------------------------------------------------------------
    # Ratios and wires
    # ------------------------------------------------------------------
    def set_ratio(self, net_index: int, edge_index: int, direction: int, ratio: float) -> None:
        """Assign the TDM ratio of a net on a directed TDM edge."""
        if ratio <= 0:
            raise ValueError("TDM ratios must be positive")
        self.ratios[(net_index, edge_index, direction)] = ratio

    def ratio_of(self, net_index: int, edge_index: int, direction: int) -> float:
        """The TDM ratio of a net on a directed TDM edge.

        Raises:
            KeyError: when no ratio has been assigned yet.
        """
        return self.ratios[(net_index, edge_index, direction)]

    def copy_topology(self) -> "RoutingSolution":
        """A new solution with the same paths but no ratios or wires.

        Used by the Fig. 5(a) experiment: re-run our TDM algorithms on a
        baseline router's topology.
        """
        clone = RoutingSolution(self.system, self.netlist)
        clone._paths = list(self._paths)
        clone._conn_hops = list(self._conn_hops)
        # The memo caches are append-only maps from immutable path tuples
        # to immutable hop views, so clones can share them.
        clone._hops_memo = self._hops_memo
        clone._hop_arrays_memo = self._hop_arrays_memo
        return clone

    def __repr__(self) -> str:
        routed = sum(1 for p in self._paths if p is not None)
        return (
            f"RoutingSolution(routed={routed}/{len(self._paths)}, "
            f"ratios={len(self.ratios)}, wired_edges={len(self.wires)})"
        )
