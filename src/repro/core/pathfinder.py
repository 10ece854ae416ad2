"""Negotiation bookkeeping for the PathFinder-style initial router.

:class:`NegotiationState` tracks, incrementally, which edges each net uses
and how many distinct nets each edge carries (``demand_e``).  Demand counts
*nets*, not connections: two connections of one net sharing an edge consume
a single SLL wire / TDM slot, which is exactly why the µ discount of the
cost model pays off.

The reverse map (edge -> nets on it), which rip-up reads, is built on the
first such read and kept current from then on: the first pass and path
restores account every (net, edge) pair once and never read it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.route.graph import RoutingGraph


class NegotiationState:
    """Incremental demand tracking during initial routing."""

    def __init__(self, graph: RoutingGraph) -> None:
        self.graph = graph
        #: Number of distinct nets using each edge.
        self.demand: List[int] = [0] * graph.num_edges
        #: Per net: edge -> number of its connections using the edge.
        self._net_edge_count: Dict[int, Dict[int, int]] = {}
        #: Edges whose demand changed since the last :meth:`drain_dirty`
        #: (consumed by the routing kernel to refresh its cost vector).
        self._dirty: Set[int] = set()
        #: Edge lists memoized per distinct die path (paths repeat
        #: heavily across connections; the lists are never mutated).
        self._path_edges: Dict[Tuple[int, ...], List[int]] = {}
        #: Per edge: the nets using it (``None`` until first read).
        self._edge_nets: Optional[List[Set[int]]] = None
        # Plain-int mirrors of the graph's numpy arrays: the per-round
        # overflow scans index these instead of numpy scalars.
        self._sll_edges: List[int] = [int(e) for e in graph.sll_edge_indices]
        self._capacity: List[int] = [int(c) for c in graph.capacity]

    def net_edges(self, net_index: int) -> Dict[int, int]:
        """Edges currently used by a net (edge -> connection count)."""
        return self._net_edge_count.setdefault(net_index, {})

    def net_edges_view(self, net_index: int) -> Optional[Dict[int, int]]:
        """Like :meth:`net_edges`, but ``None`` for a net with no edges.

        Read-only fast path for the router's inner loop: it never
        allocates the per-net dict, which :meth:`net_edges` would create
        for every not-yet-routed net.
        """
        return self._net_edge_count.get(net_index)

    def _edges_of_path(self, path: Sequence[int]) -> List[int]:
        key = tuple(path)
        edges = self._path_edges.get(key)
        if edges is None:
            edge_of = self.graph.edge_index_between
            edges = [edge_of(frm, to) for frm, to in zip(path, path[1:])]
            self._path_edges[key] = edges
        return edges

    def add_path(self, net_index: int, path: Sequence[int]) -> None:
        """Account a routed die path of one of the net's connections."""
        counts = self._net_edge_count.setdefault(net_index, {})
        edge_nets = self._edge_nets
        for edge_index in self._edges_of_path(path):
            previous = counts.get(edge_index, 0)
            counts[edge_index] = previous + 1
            if previous == 0:
                self.demand[edge_index] += 1
                self._dirty.add(edge_index)
                if edge_nets is not None:
                    edge_nets[edge_index].add(net_index)

    def add_hops(self, net_index: int, hops: Iterable[Tuple[int, int]]) -> None:
        """Account a routed path given as ``(edge_index, direction)`` hops.

        Same bookkeeping as :meth:`add_path` without the die-pair lookup;
        used when the caller already holds the hop list (e.g. from
        :meth:`repro.route.solution.RoutingSolution.path_hops`).
        """
        counts = self._net_edge_count.setdefault(net_index, {})
        edge_nets = self._edge_nets
        for edge_index, _ in hops:
            previous = counts.get(edge_index, 0)
            counts[edge_index] = previous + 1
            if previous == 0:
                self.demand[edge_index] += 1
                self._dirty.add(edge_index)
                if edge_nets is not None:
                    edge_nets[edge_index].add(net_index)

    def remove_path(self, net_index: int, path: Sequence[int]) -> None:
        """Reverse :meth:`add_path` for a ripped-up connection."""
        counts = self._net_edge_count.get(net_index)
        if counts is None:
            raise KeyError(f"net {net_index} has no routed paths")
        edge_nets = self._edge_nets
        for edge_index in self._edges_of_path(path):
            remaining = counts[edge_index] - 1
            if remaining == 0:
                del counts[edge_index]
                self.demand[edge_index] -= 1
                self._dirty.add(edge_index)
                if edge_nets is not None:
                    edge_nets[edge_index].remove(net_index)
            else:
                counts[edge_index] = remaining

    def drain_dirty(self) -> Set[int]:
        """Edges whose demand changed since the last drain (and reset)."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def overflowed_sll_edges(self) -> List[int]:
        """SLL edges whose demand exceeds their capacity."""
        demand = self.demand
        capacity = self._capacity
        return [
            edge_index
            for edge_index in self._sll_edges
            if demand[edge_index] > capacity[edge_index]
        ]

    def _ensure_edge_nets(self) -> List[Set[int]]:
        edge_nets = self._edge_nets
        if edge_nets is None:
            edge_nets = [set() for _ in range(self.graph.num_edges)]
            for net_index, counts in self._net_edge_count.items():
                for edge_index in counts:
                    edge_nets[edge_index].add(net_index)
            self._edge_nets = edge_nets
        return edge_nets

    def nets_on_edges(self, edge_indices: Iterable[int]) -> Set[int]:
        """Nets using any of the given edges."""
        edge_nets = self._ensure_edge_nets()
        return set().union(*(edge_nets[edge_index] for edge_index in edge_indices))

    def nets_on_edge(self, edge_index: int) -> List[int]:
        """Nets using one edge (unordered; a new list)."""
        return list(self._ensure_edge_nets()[edge_index])

    def overuse(self, edge_index: int) -> int:
        """Demand beyond capacity on one edge (0 when legal)."""
        return max(0, self.demand[edge_index] - self._capacity[edge_index])

    def total_overflow(self) -> int:
        """Sum of SLL overuse over all edges (the #CONF metric)."""
        demand = self.demand
        capacity = self._capacity
        return sum(
            max(0, demand[e] - capacity[e]) for e in self._sll_edges
        )

    def overuse_histogram(self) -> Dict[int, int]:
        """Histogram of SLL overuse: overuse value -> number of edges.

        Only overflowed edges appear (overuse ``>= 1``); an empty dict
        means the topology is legal.  Cheap enough to emit once per
        negotiation round as telemetry.
        """
        histogram: Dict[int, int] = {}
        demand = self.demand
        capacity = self._capacity
        for edge_index in self._sll_edges:
            over = demand[edge_index] - capacity[edge_index]
            if over > 0:
                histogram[over] = histogram.get(over, 0) + 1
        return histogram
