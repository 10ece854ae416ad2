"""The routing solution container.

A :class:`RoutingSolution` holds, for a fixed system and netlist:

* a loop-free die path per connection (*the routing topology*),
* a TDM ratio per (net, TDM edge, direction) use (*the ratio assignment*),
* the physical TDM wires per TDM edge and the net-to-wire mapping
  (*the wire assignment*).

Routers populate it in that order; the timing analyzer and the DRC only
ever read it.

The topology is one int *path id* per connection (``-1``: unrouted) into
a :class:`PathTable` of distinct, validated die paths.  Connections share
few distinct paths (871 for case10's 28,434 connections), so the table
stays small, and solutions derived from one another share it.  Every
per-connection reader that runs on each route (phase II incidence,
timing analysis, #CONF, the negotiation state of a restore) reads one
:class:`TopologyIndex`, memoized until the next path change, whose
views come from one gather of the hop columns over the path ids.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

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


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i]``, ..., ``starts[i] + lengths[i] - 1`` for
    every ``i``, one run after the other (int64)."""
    offsets = np.cumsum(lengths) - lengths
    positions = np.repeat(starts - offsets, lengths)
    positions += np.arange(positions.shape[0], dtype=np.int64)
    return positions


class PathTable:
    """Append-only table of distinct, validated die paths of one system.

    Entry ``i`` (a *path id*) holds a die path tuple, its
    ``(edge_index, direction)`` hops and, in flat int64 columns over all
    entries, the same hops as arrays.  A path is checked for loops and
    adjacency once, when it enters the table; entries never change, so
    any number of solutions can share one table.
    """

    def __init__(self, system: MultiFpgaSystem) -> None:
        self.system = system
        #: Die path tuple per id.
        self.paths: List[Tuple[int, ...]] = []
        #: ``(edge_index, direction)`` hops per id (never mutated).
        self.hops: List[List[Tuple[int, int]]] = []
        self._ids: Dict[Tuple[int, ...], int] = {}
        self._starts: List[int] = [0]
        self._flat_edges: List[int] = []
        self._flat_dirs: List[int] = []
        self._columns: Optional[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = None
        # Appends from solutions that share the table on other threads
        # must not hand two paths one id.
        self._lock = threading.Lock()
        edges = system.edges
        self.edge_is_tdm = np.fromiter(
            (edge.kind is EdgeKind.TDM for edge in edges), dtype=bool, count=len(edges)
        )
        self.edge_is_tdm.setflags(write=False)

    def __len__(self) -> int:
        return len(self.paths)

    def id_of(self, key: Tuple[int, ...]) -> int:
        """The id of die path ``key``, validating and appending it if new.

        Raises:
            ValueError: as :func:`repro.route.tree.path_to_edge_list`, when
                the path revisits a die or joins non-adjacent dies.
        """
        pid = self._ids.get(key)
        if pid is None:
            hops = path_to_edge_list(self.system, key)
            with self._lock:
                pid = self._ids.get(key)
                if pid is None:
                    pid = len(self.paths)
                    self.paths.append(key)
                    self.hops.append(hops)
                    self._flat_edges.extend(edge for edge, _ in hops)
                    self._flat_dirs.extend(direction for _, direction in hops)
                    self._starts.append(len(self._flat_edges))
                    self._ids[key] = pid
        return pid

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, edges, directions)``: the hops of every entry.

        Entry ``i`` owns ``edges[starts[i]:starts[i + 1]]``.  The arrays
        are read-only and rebuilt only after the table grew.
        """
        with self._lock:
            columns = self._columns
            if columns is None or columns[0] != len(self.paths):
                arrays = [
                    np.array(values, dtype=np.int64)
                    for values in (self._starts, self._flat_edges, self._flat_dirs)
                ]
                for array in arrays:
                    array.setflags(write=False)
                columns = self._columns = (len(self.paths), *arrays)
        return columns[1], columns[2], columns[3]

    def gather(self, path_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hop counts, edges, directions)`` of a path id column.

        One entry of ``hop counts`` per id (0 for ``-1``); the hops of all
        ids follow one another, in id order and path order.
        """
        starts, flat_edges, flat_dirs = self.columns()
        routed = path_ids >= 0
        ids = path_ids[routed]
        lengths = starts[ids + 1] - starts[ids]
        counts = np.zeros(path_ids.shape[0], dtype=np.int64)
        counts[routed] = lengths
        positions = ranges(starts[ids], lengths)
        return counts, flat_edges[positions], flat_dirs[positions]


class TdmPairs(NamedTuple):
    """Distinct TDM uses of flat per-hop columns, in first-occurrence order.

    Attributes:
        net / edge / direction: per-pair components; the position of a
            (net, edge, direction) use is its *pair index*.
        hop_pair: pair index of every input hop.
    """

    net: np.ndarray
    edge: np.ndarray
    direction: np.ndarray
    hop_pair: np.ndarray


def tdm_pairs(
    hop_net: np.ndarray, hop_edge: np.ndarray, hop_dir: np.ndarray, num_edges: int
) -> TdmPairs:
    """Number the distinct (net, edge, direction) uses of TDM hop columns.

    The hops must come sorted by connection, each path in order — the
    order a scan over connections produces — so the first-occurrence
    order groups pairs by net (net indices never decrease over
    connection indices) and matches the historical per-connection scan.
    """
    keys = (hop_net * num_edges + hop_edge) * 2 + hop_dir
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # np.unique sorts by key; recover first-occurrence order.
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    hop_pair = rank[inverse] if inverse.size else np.zeros(0, np.int64)
    first_in_order = first[order]
    return TdmPairs(
        net=hop_net[first_in_order],
        edge=hop_edge[first_in_order],
        direction=hop_dir[first_in_order],
        hop_pair=hop_pair,
    )


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


class TopologyIndex:
    """Flat views of one routing topology; never mutated once built.

    Built by :meth:`RoutingSolution.topology_index` over a snapshot of
    the path ids.  Each view gathers the hop columns (connection, edge,
    direction) over the ids on first read and keeps only what it derives,
    not the per-hop columns themselves.

    Attributes:
        num_connections: connections of the netlist.
        unrouted: the first connection without a path (``-1``: none).
        conn_net: per-connection owning net index.
    """

    def __init__(self, solution: "RoutingSolution") -> None:
        self._table = solution._table
        # The solution copies its id array before changing it while an
        # index exists, so this snapshot stays as it is.
        self._path_ids = solution._path_id
        self.num_connections = self._path_ids.shape[0]
        self.num_edges = solution.system.num_edges
        self.conn_net = solution.netlist.connection_net_indices()
        unrouted = np.flatnonzero(self._path_ids < 0)
        self.unrouted = int(unrouted[0]) if unrouted.size else -1

    def hops(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(connection, edge, direction)`` of every hop of every routed
        connection, by connection and then path order (a fresh gather)."""
        counts, edges, directions = self._table.gather(self._path_ids)
        conns = np.repeat(np.arange(self.num_connections, dtype=np.int64), counts)
        return conns, edges, directions

    # ------------------------------------------------------------------
    # Hops by edge kind, TDM use pairs
    # ------------------------------------------------------------------
    @cached_property
    def _by_kind(self) -> Tuple[np.ndarray, np.ndarray, TdmPairs]:
        conns, edges, directions = self.hops()
        tdm = self._table.edge_is_tdm[edges]
        sll_conn = conns[~tdm]
        tdm_conn = conns[tdm]
        pairs = tdm_pairs(
            self.conn_net[tdm_conn], edges[tdm], directions[tdm], self.num_edges
        )
        _read_only(sll_conn, tdm_conn, *pairs)
        return sll_conn, tdm_conn, pairs

    @property
    def sll_conn(self) -> np.ndarray:
        """Connection of every SLL hop (hop order)."""
        return self._by_kind[0]

    @property
    def tdm_conn(self) -> np.ndarray:
        """Connection of every TDM hop (hop order)."""
        return self._by_kind[1]

    @property
    def pairs(self) -> TdmPairs:
        """The distinct TDM uses, numbered in first-occurrence order;
        ``pairs.hop_pair`` runs parallel to :attr:`tdm_conn`."""
        return self._by_kind[2]

    @cached_property
    def uses(self) -> List[NetEdgeUse]:
        """The (net, edge, direction) triples in pair-index order."""
        pairs = self.pairs
        return list(
            zip(pairs.net.tolist(), pairs.edge.tolist(), pairs.direction.tolist())
        )

    def use_keys(self) -> Iterable[NetEdgeUse]:
        """The use triples in pair order, for one pass of dict lookups.

        The :attr:`uses` list when something built it (wire assignment
        wrote ``solution.ratios`` through those tuples); otherwise tuples
        made on the fly, so a lookup keeps no second copy of them.
        """
        uses = self.__dict__.get("uses")
        if uses is not None:
            return uses
        pairs = self.pairs
        return zip(pairs.net.tolist(), pairs.edge.tolist(), pairs.direction.tolist())

    @cached_property
    def tdm_use_maps(
        self,
    ) -> Tuple[Dict[int, List[NetEdgeUse]], Dict[Tuple[int, int], List[int]]]:
        """Per-net uses and per-directed-edge nets, in pair order."""
        net_uses: Dict[int, List[NetEdgeUse]] = {}
        directed_nets: Dict[Tuple[int, int], List[int]] = {}
        for use in self.uses:
            net, edge, direction = use
            net_uses.setdefault(net, []).append(use)
            directed_nets.setdefault((edge, direction), []).append(net)
        return net_uses, directed_nets

    # ------------------------------------------------------------------
    # (net, edge) use counts
    # ------------------------------------------------------------------
    def net_edge_counts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(net, edge, count)``: how many of a net's connections use an edge.

        One entry per distinct (net, edge) pair, sorted by net and then
        edge; a loop-free path crosses an edge at most once, so a count
        is the number of the net's paths over that edge.  Computed anew
        on each call.
        """
        conns, edges, _ = self.hops()
        num_edges = max(self.num_edges, 1)
        keys, counts = np.unique(
            self.conn_net[conns] * num_edges + edges, return_counts=True
        )
        return keys // num_edges, keys % num_edges, counts

    @cached_property
    def edge_demand(self) -> np.ndarray:
        """Distinct nets per edge (``demand_e``), one entry per edge."""
        demand = np.bincount(self.net_edge_counts()[1], minlength=self.num_edges)
        _read_only(demand)
        return demand

    @cached_property
    def edge_nets(self) -> List[Set[int]]:
        """Per edge: the set of nets routed over it."""
        nets, edges, _ = self.net_edge_counts()
        order = np.argsort(edges, kind="stable")
        bounds = np.searchsorted(edges[order], np.arange(self.num_edges + 1))
        grouped = nets[order].tolist()
        return [
            set(grouped[start:stop])
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]


class RoutingSolution:
    """Mutable routing state for one (system, netlist) pair."""

    def __init__(self, system: MultiFpgaSystem, netlist: Netlist) -> None:
        netlist.validate_against(system.num_dies)
        self.system = system
        self.netlist = netlist
        self._table = PathTable(system)
        #: Path id per connection into ``_table`` (``-1``: unrouted).
        self._path_id = np.full(netlist.num_connections, -1, dtype=np.int64)
        #: Memoized topology index; dropped on every path change.
        self._index: Optional[TopologyIndex] = None
        #: TDM ratio per (net, edge, direction); populated by phase II.
        self.ratios: Dict[NetEdgeUse, float] = {}
        #: Physical wires per TDM edge index; populated by wire assignment.
        self.wires: Dict[int, List[TdmWire]] = {}
        #: Wire position (within ``wires[edge]``) per net edge use.
        self.net_wire: Dict[NetEdgeUse, int] = {}

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
        sources, sinks = self.netlist.connection_dies()
        pid = self._checked_id(
            tuple(dies), int(sources[connection_index]), int(sinks[connection_index])
        )
        self._writable_ids()[connection_index] = pid

    def set_paths(self, paths: Sequence[Optional[Sequence[int]]]) -> None:
        """Set every connection's die path at once (``None``: unrouted).

        Equivalent to :meth:`set_path` on each routed connection of a
        fresh solution, without its per-call overhead: the endpoints are
        checked against the netlist's int columns, and each distinct die
        path is validated once, when it enters the path table.  Nothing
        changes when a path is rejected.

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
        checked_id = self._checked_id
        ids = [
            -1 if path is None else checked_id(tuple(path), source, sink)
            for path, source, sink in zip(paths, sources.tolist(), sinks.tolist())
        ]
        self._path_id = np.array(ids, dtype=np.int64).reshape(count)
        self._index = None

    def _checked_id(self, key: Tuple[int, ...], source: int, sink: int) -> int:
        """Path id of die path ``key`` for a ``source`` → ``sink`` connection.

        The table validates adjacency and loop-freedom once per distinct
        path, so no later pass re-derives or re-checks its hops.
        """
        if not key or key[0] != source or key[-1] != sink:
            raise ValueError(
                f"path {list(key)} does not run from die {source} to die {sink}"
            )
        pid = self._table._ids.get(key)
        return self._table.id_of(key) if pid is None else pid

    def clear_path(self, connection_index: int) -> None:
        """Remove the routed path of a connection."""
        self._writable_ids()[connection_index] = -1

    def _writable_ids(self) -> np.ndarray:
        """The path id array, ready for a write that drops the index.

        A built index reads the array it was built over, so the first
        write after one goes to a copy.
        """
        if self._index is not None:
            self._path_id = self._path_id.copy()
            self._index = None
        return self._path_id

    def path(self, connection_index: int) -> Optional[Tuple[int, ...]]:
        """The routed die path of a connection (``None`` when unrouted)."""
        pid = self._path_id[connection_index]
        return None if pid < 0 else self._table.paths[pid]

    def paths(self) -> List[Optional[Tuple[int, ...]]]:
        """Every connection's die path by connection index (a new list)."""
        # Id -1 picks the trailing None.
        lookup = [*self._table.paths, None]
        return list(map(lookup.__getitem__, self._path_id.tolist()))

    def path_ids(self) -> np.ndarray:
        """Every connection's path id (``-1``: unrouted), as a new array.

        The ids index this solution's path table; :meth:`with_path_ids`
        builds a solution from them.
        """
        return self._path_id.copy()

    def with_path_ids(
        self, netlist: Netlist, path_ids: np.ndarray
    ) -> "RoutingSolution":
        """A topology-only solution for ``netlist`` over this path table.

        The new solution shares this solution's path table, and its
        connection ``i`` takes path id ``path_ids[i]`` (``-1``: unrouted)
        without a second validation: each path must run between its
        connection's dies, as when a connection keeps the path of an
        identical connection (ECO).

        Raises:
            ValueError: when ``path_ids`` has not one id per connection
                of ``netlist``.
        """
        ids = np.array(path_ids, dtype=np.int64)
        if ids.shape != (netlist.num_connections,):
            raise ValueError(
                f"{ids.size} path ids for {netlist.num_connections} connections"
            )
        solution = RoutingSolution(self.system, netlist)
        solution._table = self._table
        solution._path_id = ids
        return solution

    def path_hops(self, connection_index: int) -> List[Tuple[int, int]]:
        """``(edge_index, direction)`` hops of a connection's path."""
        pid = self._path_id[connection_index]
        if pid < 0:
            raise ValueError(f"connection {connection_index} is unrouted")
        return self._table.hops[pid]

    def topology_index(self) -> TopologyIndex:
        """The flat hop columns of the current topology (memoized).

        Built on first call after a path change; the returned index
        reads a snapshot of the path ids and is never mutated, so a
        reader may keep it (it then describes the topology of that
        moment).
        """
        index = self._index
        if index is None:
            index = self._index = TopologyIndex(self)
        return index

    @property
    def is_complete(self) -> bool:
        """Whether every connection has a routed path."""
        return bool((self._path_id >= 0).all())

    def unrouted_connections(self) -> List[int]:
        """Indices of connections without a routed path."""
        return np.flatnonzero(self._path_id < 0).tolist()

    # ------------------------------------------------------------------
    # Derived usage maps
    # ------------------------------------------------------------------
    def edge_nets(self, edge_index: int) -> Set[int]:
        """Set of net indices routed over an edge."""
        return self.topology_index().edge_nets[edge_index]

    def edge_demand(self, edge_index: int) -> int:
        """Number of distinct nets routed over an edge (``demand_e``)."""
        return int(self.topology_index().edge_demand[edge_index])

    def net_uses(self, net_index: int) -> List[NetEdgeUse]:
        """Directed TDM edge uses of a net (one per edge+direction)."""
        return list(self.topology_index().tdm_use_maps[0].get(net_index, []))

    def all_net_uses(self) -> List[NetEdgeUse]:
        """Every (net, TDM edge, direction) use in the solution."""
        return list(self.topology_index().uses)

    def directed_tdm_nets(self, edge_index: int, direction: int) -> List[int]:
        """Nets using a TDM edge in the given direction (in routing order)."""
        return list(
            self.topology_index().tdm_use_maps[1].get((edge_index, direction), [])
        )

    def sll_overflows(self) -> List[SllOverflow]:
        """SLL edges whose demand exceeds capacity."""
        demand = self.topology_index().edge_demand.tolist()
        overflows = []
        for edge in self.system.sll_edges:
            if demand[edge.index] > edge.capacity:
                overflows.append(
                    SllOverflow(
                        edge_index=edge.index,
                        demand=demand[edge.index],
                        capacity=edge.capacity,
                    )
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

    def unassigned_use(self) -> Optional[NetEdgeUse]:
        """The first TDM use of the topology (in pair order) without a
        ratio or a wire, or ``None`` when phase II covered every use."""
        ratios, net_wire = self.ratios, self.net_wire
        for use in self.topology_index().use_keys():
            if use not in ratios or use not in net_wire:
                return use
        return None

    def copy_topology(self) -> "RoutingSolution":
        """A new solution with the same paths but no ratios or wires.

        Used by the Fig. 5(a) experiment: re-run our TDM algorithms on a
        baseline router's topology.  The clone shares the path table and,
        until either side changes a path, the topology index.
        """
        clone = self.with_path_ids(self.netlist, self._path_id)
        clone._index = self._index
        return clone

    def __repr__(self) -> str:
        routed = int((self._path_id >= 0).sum())
        return (
            f"RoutingSolution(routed={routed}/{self._path_id.shape[0]}, "
            f"ratios={len(self.ratios)}, wired_edges={len(self.wires)})"
        )
