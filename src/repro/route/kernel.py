"""Array-driven search kernel for the phase I router.

The negotiation router's inner loop is Dijkstra on a tiny die graph, run
once per connection — potentially millions of times.  The closure-based
search in :mod:`repro.route.dijkstra` pays two Python calls per heap
relaxation (the adapter closure plus :meth:`EdgeCostModel.cost`);
:class:`RoutingKernel` replaces them with a flat per-edge cost vector
indexed directly from the CSR search loop.

Two pieces keep that exact and cheap:

* **Cost vector** — ``cost_vec[e]`` always equals
  ``EdgeCostModel.cost(e, demand[e], False)`` bit-for-bit.  The vector is
  refreshed lazily from the dirty-edge sets that
  :class:`~repro.core.pathfinder.NegotiationState` (demand deltas) and
  :class:`~repro.core.cost.EdgeCostModel` (history bumps) maintain, so a
  :meth:`sync` touches only edges that actually changed.
* **µ overlay** — a connection whose net already uses some edges searches
  a copy of the vector patched, by the cost model, for exactly those
  edges.

The caller syncs before every search, so costs, tie-breaking and
therefore paths are identical to the closure-based reference
(``dijkstra_path`` over ``EdgeCostModel.cost``).

A kernel assumes it is the sole consumer of its state's and cost model's
dirty sets; create at most one per routing run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from repro.route.dijkstra import SearchStats, dijkstra_path_flat
from repro.route.graph import RoutingGraph

if TYPE_CHECKING:  # imported for annotations only: repro.core builds on
    # repro.route, so a runtime import here would invert the layering.
    from repro.core.cost import EdgeCostModel
    from repro.core.pathfinder import NegotiationState


@dataclass
class KernelStats:
    """Pricing counters (fed to the obs layer).

    Attributes:
        epoch_bumps: syncs that found at least one changed cost value.
        overlay_searches: single-target searches run with a µ overlay.
    """

    epoch_bumps: int = 0
    overlay_searches: int = 0


class RoutingKernel:
    """Flat-array pricing for phase I.

    Args:
        graph: the routing graph (provides the CSR adjacency).
        cost_model: the negotiated cost model; its scalar :meth:`cost
            <repro.core.cost.EdgeCostModel.cost>` stays the single source
            of truth for every price the kernel uses.
        state: the demand bookkeeping whose dirty edges drive refreshes.
        search_stats: optional shared counters the flat searches
            accumulate into (same contract as the closure searches).
    """

    def __init__(
        self,
        graph: RoutingGraph,
        cost_model: "EdgeCostModel",
        state: "NegotiationState",
        search_stats: Optional[SearchStats] = None,
    ) -> None:
        self.graph = graph
        self.cost_model = cost_model
        self.state = state
        self.search_stats = search_stats
        self.stats = KernelStats()
        # Adjacency rows rebuilt from the CSR arrays as plain-int tuples
        # (CSR order == adjacency order, so relaxation order — and hence
        # tie-breaking — matches the closure searches).  Plain ints beat
        # numpy scalars in the pure-Python hot loop.
        indptr = graph.csr_indptr.tolist()
        edge_ids = graph.csr_edge.tolist()
        neighbor_dies = graph.csr_die.tolist()
        self._rows: List[List[Tuple[int, int]]] = [
            list(
                zip(
                    edge_ids[indptr[die] : indptr[die + 1]],
                    neighbor_dies[indptr[die] : indptr[die + 1]],
                )
            )
            for die in range(graph.num_dies)
        ]
        self.cost_vec: List[float] = cost_model.cost_vector(state.demand)
        self.epoch = 0
        # The vector above already reflects the current demand/history;
        # consume any dirtiness accumulated before the kernel existed.
        state.drain_dirty()
        cost_model.drain_dirty()

    # ------------------------------------------------------------------
    def sync(self) -> bool:
        """Refresh cost entries for edges that changed since last sync.

        Returns:
            True when at least one cost *value* changed (the epoch was
            bumped); False when demand/history deltas left every price
            identical.
        """
        # The kernel is the dirty sets' sole consumer (class invariant),
        # so it reads and clears them in place rather than paying a
        # replacement-set allocation per drain — this runs once per
        # routed connection.
        demand_dirty = self.state._dirty
        history_dirty = self.cost_model._dirty
        if not demand_dirty and not history_dirty:
            return False
        if not history_dirty:
            dirty = demand_dirty
        elif not demand_dirty:
            dirty = history_dirty
        else:
            dirty = demand_dirty | history_dirty
        changed = self.cost_model.refresh_cost_entries(
            self.cost_vec, self.state.demand, dirty
        )
        demand_dirty.clear()
        history_dirty.clear()
        if changed:
            self.epoch += 1
            self.stats.epoch_bumps += 1
            return True
        return False

    def route(
        self,
        source: int,
        sink: int,
        net_edges: Optional[Mapping[int, int]] = None,
    ) -> Optional[List[int]]:
        """Min-cost die path under the kernel's current cost vector.

        Args:
            source: start die.
            sink: end die.
            net_edges: edges already used by the connection's net (the µ
                discount applies to exactly these).

        Returns:
            The die path including both endpoints, or ``None`` when the
            sink is unreachable.  With a fresh :meth:`sync` this is
            bit-identical to the closure-based reference search.
        """
        if net_edges:
            # µ overlay: patch a copy of the vector for the (few) edges
            # the net already uses.  The cost model does the patching so
            # the discounting arithmetic matches its scalar cost exactly.
            costs = self.cost_vec.copy()
            self.cost_model.apply_mu_overlay(costs, self.state.demand, net_edges)
            self.stats.overlay_searches += 1
            return dijkstra_path_flat(
                self._rows, source, sink, costs, stats=self.search_stats
            )
        return dijkstra_path_flat(
            self._rows, source, sink, self.cost_vec, stats=self.search_stats
        )

    def publish_stats(self, tracer) -> None:
        """Emit the pricing counters to an obs tracer (``kernel.*``)."""
        stats = self.stats
        tracer.add("kernel.epoch_bumps", stats.epoch_bumps)
        tracer.add("kernel.overlay_searches", stats.overlay_searches)
