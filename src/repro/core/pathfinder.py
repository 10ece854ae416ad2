"""Negotiation bookkeeping for the PathFinder-style initial router.

:class:`NegotiationState` tracks, incrementally, which edges each net uses
and how many distinct nets each edge carries (``demand_e``).  Demand counts
*nets*, not connections: two connections of one net sharing an edge consume
a single SLL wire / TDM slot, which is exactly why the µ discount of the
cost model pays off.

The reverse map (edge -> nets on it), which rip-up reads, is built on the
first such read and kept current from then on: the first pass and path
restores account every (net, edge) pair once and never read it.

A restored topology (checkpoint resume, ECO carry-over, the timing
refiner's rebuild) enters in one :meth:`NegotiationState.load` call from
its distinct (net, edge) use counts.  Demand comes from those counts at
once; a net's edge-count map is built only when something touches the
net, and the reverse map of an edge only when rip-up reads that edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

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
        #: Per edge: the nets using it (``None`` until first read; after
        #: :meth:`load`, an edge's entry stays ``None`` until read).
        self._edge_nets: Optional[List[Optional[Set[int]]]] = None
        #: Use counts of a :meth:`load`, for nets not yet in
        #: ``_net_edge_count``: ``(net, edge, count)`` columns sorted by
        #: net, and per-net slice bounds into them.
        self._loaded: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._loaded_bounds: List[int] = []
        # Plain-int mirrors of the graph's numpy arrays: the per-round
        # overflow scans index these instead of numpy scalars.
        self._sll_edges: List[int] = [int(e) for e in graph.sll_edge_indices]
        self._capacity: List[int] = [int(c) for c in graph.capacity]

    def load(self, nets: np.ndarray, edges: np.ndarray, counts: np.ndarray) -> None:
        """Account a whole topology at once from its (net, edge) use counts.

        Leaves the state :meth:`add_path` would reach over the same paths
        (demand, dirty set, per-net edge counts), without walking them:
        ``nets``/``edges``/``counts`` hold how many of each net's paths
        cross each edge, one entry per distinct pair, sorted by net
        (:meth:`repro.route.solution.TopologyIndex.net_edge_counts`).

        Raises:
            ValueError: when the state already accounts some path.
        """
        if self._net_edge_count or self._loaded is not None:
            raise ValueError("load() needs a state without accounted paths")
        demand = np.bincount(edges, minlength=self.graph.num_edges)
        self.demand = demand.tolist()
        self._dirty = set(np.flatnonzero(demand).tolist())
        self._loaded = (nets, edges, counts)
        top = int(nets[-1]) + 1 if nets.size else 0
        self._loaded_bounds = np.searchsorted(nets, np.arange(top + 1)).tolist()

    def _loaded_counts(self, net_index: int) -> Optional[Dict[int, int]]:
        """The edge-count map of a net from :meth:`load` (``None``: none).

        Builds the map on the net's first touch, for a net not yet in
        ``_net_edge_count``; from then on that holds it like any other
        net's.
        """
        bounds = self._loaded_bounds
        if self._loaded is None or not 0 <= net_index < len(bounds) - 1:
            return None
        start, stop = bounds[net_index], bounds[net_index + 1]
        if start == stop:
            return None
        _, edges, counts = self._loaded
        loaded = dict(zip(edges[start:stop].tolist(), counts[start:stop].tolist()))
        self._net_edge_count[net_index] = loaded
        return loaded

    def net_edges(self, net_index: int) -> Dict[int, int]:
        """Edges currently used by a net (edge -> connection count)."""
        counts = self._net_edge_count.get(net_index)
        if counts is None:
            if self._loaded is not None:
                counts = self._loaded_counts(net_index)
            if counts is None:
                counts = self._net_edge_count[net_index] = {}
        return counts

    def net_edges_view(self, net_index: int) -> Optional[Dict[int, int]]:
        """Like :meth:`net_edges`, but ``None`` for a net with no edges.

        Read-only fast path for the router's inner loop: it never
        allocates the per-net dict, which :meth:`net_edges` would create
        for every not-yet-routed net.
        """
        counts = self._net_edge_count.get(net_index)
        if counts is None and self._loaded is not None:
            counts = self._loaded_counts(net_index)
        return counts

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
        counts = self._net_edge_count.get(net_index)
        if counts is None:
            if self._loaded is not None:
                counts = self._loaded_counts(net_index)
            if counts is None:
                counts = self._net_edge_count[net_index] = {}
        edge_nets = self._edge_nets
        for edge_index in self._edges_of_path(path):
            previous = counts.get(edge_index, 0)
            counts[edge_index] = previous + 1
            if previous == 0:
                self.demand[edge_index] += 1
                self._dirty.add(edge_index)
                if edge_nets is not None:
                    nets = edge_nets[edge_index]
                    if nets is not None:
                        nets.add(net_index)

    def add_hops(self, net_index: int, hops: Iterable[Tuple[int, int]]) -> None:
        """Account a routed path given as ``(edge_index, direction)`` hops.

        Same bookkeeping as :meth:`add_path` without the die-pair lookup;
        used when the caller already holds the hop list (e.g. from
        :meth:`repro.route.solution.RoutingSolution.path_hops`).
        """
        counts = self.net_edges(net_index)
        edge_nets = self._edge_nets
        for edge_index, _ in hops:
            previous = counts.get(edge_index, 0)
            counts[edge_index] = previous + 1
            if previous == 0:
                self.demand[edge_index] += 1
                self._dirty.add(edge_index)
                if edge_nets is not None:
                    nets = edge_nets[edge_index]
                    if nets is not None:
                        nets.add(net_index)

    def remove_path(self, net_index: int, path: Sequence[int]) -> None:
        """Reverse :meth:`add_path` for a ripped-up connection."""
        counts = self._net_edge_count.get(net_index)
        if counts is None:
            counts = self._loaded_counts(net_index)
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
                    nets = edge_nets[edge_index]
                    if nets is not None:
                        nets.remove(net_index)
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

    def _edge_net_set(self, edge_index: int) -> Set[int]:
        """The nets on one edge, from the reverse map (built on demand)."""
        edge_nets = self._edge_nets
        if edge_nets is None:
            if self._loaded is None:
                # Every net has its map: one scan builds every edge.
                edge_nets = [set() for _ in range(self.graph.num_edges)]
                for net_index, counts in self._net_edge_count.items():
                    for edge in counts:
                        edge_nets[edge].add(net_index)
            else:
                edge_nets = [None] * self.graph.num_edges
            self._edge_nets = edge_nets
        nets = edge_nets[edge_index]
        if nets is None:
            nets = edge_nets[edge_index] = self._loaded_edge_nets(edge_index)
        return nets

    def _loaded_edge_nets(self, edge_index: int) -> Set[int]:
        """Nets on an edge after :meth:`load`: loaded nets not yet touched,
        plus every touched net whose map holds the edge."""
        loaded_nets, edges, _ = self._loaded
        maps = self._net_edge_count
        candidates = loaded_nets[edges == edge_index].tolist()
        nets = {net for net in candidates if net not in maps}
        nets.update(net for net, counts in maps.items() if edge_index in counts)
        return nets

    def nets_on_edges(self, edge_indices: Iterable[int]) -> Set[int]:
        """Nets using any of the given edges."""
        return set().union(
            *(self._edge_net_set(edge_index) for edge_index in edge_indices)
        )

    def nets_on_edge(self, edge_index: int) -> List[int]:
        """Nets using one edge (unordered; a new list)."""
        return list(self._edge_net_set(edge_index))

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
