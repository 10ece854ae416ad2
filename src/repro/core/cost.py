"""Routing cost functions of the initial router (Section III-B).

SLL and TDM edges have different cost shapes because their timing differs:

* SLL edges cost ``µ * w_e`` where ``w_e`` is the estimated edge weight
  plus the accumulated negotiation history, scaled by a present-congestion
  factor while an edge is (about to be) overfull.
* TDM edges cost ``µ * (d0 + p + demand_e / cap_e)`` (Eq. 2): the cost
  rises with demand, spreading nets across TDM edges to keep eventual
  ratios — and hence the critical connection delay — low.

``µ`` rewards reusing an edge already carrying another connection of the
same net (µ = 1/2 in practice), steering multi-fanout nets toward shared
trees without forcing them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

import numpy as np

from repro.core.config import RouterConfig
from repro.route.graph import RoutingGraph
from repro.timing.delay import DelayModel


class EdgeCostModel:
    """Per-edge routing costs with negotiation history.

    Args:
        graph: the routing graph.
        delay_model: delay constants (``d0`` and the TDM step feed Eq. 2).
        config: router knobs (µ, history increment, present penalty).
        base_weights: per-edge estimated weights from
            :func:`repro.core.ordering.estimate_edge_weights`.
    """

    def __init__(
        self,
        graph: RoutingGraph,
        delay_model: DelayModel,
        config: RouterConfig,
        base_weights: Sequence[float],
    ) -> None:
        if len(base_weights) != graph.num_edges:
            raise ValueError("need one base weight per edge")
        self.graph = graph
        self.delay_model = delay_model
        self.config = config
        # Plain Python lists: the cost function runs once per heap edge
        # relaxation, where list indexing beats numpy scalar access.
        self.base_weights = [float(w) for w in base_weights]
        self.history = [0.0] * graph.num_edges
        self.is_tdm = [bool(t) for t in graph.is_tdm]
        self.capacity = [int(c) for c in graph.capacity]
        self._tdm_fixed = delay_model.d0 + delay_model.tdm_step
        #: Edges whose history changed since the last :meth:`drain_dirty`
        #: (consumed by the routing kernel to refresh its cost vector).
        self._dirty: Set[int] = set()

    def cost(self, edge_index: int, demand: int, used_by_net: bool) -> float:
        """Cost of routing one more connection over an edge.

        Args:
            edge_index: the edge.
            demand: current number of nets on the edge.
            used_by_net: whether the edge already routes another connection
                of the same net (enables the µ discount).
        """
        mu = self.config.mu_shared if used_by_net else 1.0
        if self.is_tdm[edge_index]:
            return mu * (self._tdm_fixed + demand / self.capacity[edge_index])
        pressure = 1.0
        overuse = demand + 1 - self.capacity[edge_index]
        if overuse > 0:
            pressure += self.config.present_penalty * overuse
        return mu * (self.base_weights[edge_index] + self.history[edge_index]) * pressure

    def add_history(self, edge_indices: Sequence[int]) -> None:
        """Bump the negotiation history of overflowed SLL edges.

        The bump scales with the edge's base weight so the negotiation
        pressure is proportional in both weight modes (a +4 absolute bump
        would dwarf a delay-mode base of 1 but vanish against a
        congestion-mode base of ``||V|| + 1``).
        """
        increment = self.config.history_increment
        for edge_index in edge_indices:
            bump = increment * self.base_weights[edge_index]
            if bump:
                self.history[edge_index] += bump
                self._dirty.add(edge_index)

    # -- kernel support ------------------------------------------------
    def drain_dirty(self) -> Set[int]:
        """Edges whose history changed since the last drain (and reset)."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    def cost_vector(self, demand: Sequence[int]) -> List[float]:
        """Undiscounted (µ = 1) cost of every edge at the given demands.

        Entry ``e`` is bit-equal to ``cost(e, demand[e], False)``: the
        kernel searches index this vector instead of calling the closure,
        and overlay entries for µ-discounted edges are computed with
        :meth:`cost` itself, so array-driven and closure-driven searches
        price every edge identically.
        """
        cost = self.cost
        return [cost(e, demand[e], False) for e in range(self.graph.num_edges)]

    def refresh_cost_entries(
        self, vec: List[float], demand: Sequence[int], edges: Iterable[int]
    ) -> bool:
        """Recompute ``vec`` entries for ``edges``; True if any changed.

        SLL edges below capacity keep a demand-independent cost, so a
        demand delta there refreshes to the identical value and reports
        no change — the caller can then keep its cost epoch.

        The arithmetic inlines :meth:`cost` at ``µ = 1`` with the same
        operation order, so entries stay bit-equal to
        ``cost(e, demand[e], False)``.  This runs once per routed
        connection, which is why it avoids the per-edge method call.
        """
        is_tdm = self.is_tdm
        capacity = self.capacity
        base_weights = self.base_weights
        history = self.history
        tdm_fixed = self._tdm_fixed
        penalty = self.config.present_penalty
        changed = False
        for edge_index in edges:
            if is_tdm[edge_index]:
                value = tdm_fixed + demand[edge_index] / capacity[edge_index]
            else:
                value = base_weights[edge_index] + history[edge_index]
                overuse = demand[edge_index] + 1 - capacity[edge_index]
                if overuse > 0:
                    value *= 1.0 + penalty * overuse
            if value != vec[edge_index]:
                vec[edge_index] = value
                changed = True
        return changed

    def apply_mu_overlay(
        self, vec: List[float], demand: Sequence[int], edges: Iterable[int]
    ) -> None:
        """Patch ``vec`` entries to the µ-discounted cost for ``edges``.

        Each patched entry is bit-equal to ``cost(e, demand[e], True)``
        (same inlining discipline as :meth:`refresh_cost_entries`); the
        kernel calls this once per per-net search on a copy of its cost
        vector.
        """
        mu = self.config.mu_shared
        is_tdm = self.is_tdm
        capacity = self.capacity
        base_weights = self.base_weights
        history = self.history
        tdm_fixed = self._tdm_fixed
        penalty = self.config.present_penalty
        for edge_index in edges:
            if is_tdm[edge_index]:
                vec[edge_index] = mu * (
                    tdm_fixed + demand[edge_index] / capacity[edge_index]
                )
            else:
                value = mu * (base_weights[edge_index] + history[edge_index])
                overuse = demand[edge_index] + 1 - capacity[edge_index]
                if overuse > 0:
                    value *= 1.0 + penalty * overuse
                vec[edge_index] = value

    def history_array(self) -> np.ndarray:
        """Copy of the per-edge history costs (diagnostics)."""
        return np.asarray(self.history, dtype=np.float64)
