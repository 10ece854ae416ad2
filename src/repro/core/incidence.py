"""Flat incidence arrays shared by the phase II algorithms.

Phase II reasons about *net edge uses* — (net, TDM edge, direction)
triples, the paper's ``r_ne`` index set — and about which uses each
connection's path crosses.  :class:`TdmIncidence` flattens both relations
into numpy index arrays once, so the Lagrangian iterations, legalization
criticalities and final delay evaluation are all O(1) vectorized passes.
This vectorization is the Python counterpart of the paper's per-edge /
per-connection OpenMP parallelism (DESIGN.md substitution 4).

Construction itself is vectorized too: the flat ``(hop connection, hop
edge, hop direction)`` columns and the pair set (deduplicated with one
``np.unique`` pass in first-occurrence order) come from the solution's
memoized :class:`~repro.route.solution.TopologyIndex`, which the timing
analyzer reads as well, so each topology's pairs are numbered once.  The
per-directed-edge grouping that legalization and wire assignment consume
is a CSR slice (``dir_indptr`` / ``dir_pairs``) instead of a dict of
Python lists.

:func:`build_incidence` is the front door used by phase II
(:class:`~repro.core.router.TdmAssigner`): it builds the incidence and
publishes the ``incidence.cold_builds`` obs counter.  LR multipliers live
in connection space (one per connection, Eq. 8) and a timing reroute
changes paths, not the connection set, so they warm-start the next
round's solve unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.system import MultiFpgaSystem
from repro.netlist.netlist import Netlist
from repro.route.solution import NetEdgeUse, RoutingSolution
from repro.timing.delay import DelayModel


class TdmIncidence:
    """Vectorized view of a solution's TDM usage.

    Attributes:
        uses: the (net, edge, direction) triples, in a fixed order; the
            position of a triple is its *pair index*.
        pair_net / pair_edge / pair_dir: per-pair component arrays.
        pair_cap: per-pair capacity of the owning TDM edge.
        inc_conn / inc_pair: parallel arrays with one entry per TDM hop of
            every routed connection: connection index and pair index
            (sorted by connection, hops in path order).
        conn_sll_delay: per-connection constant delay from SLL hops
            (``d_SLL_c``).
        conn_tdm_hops: per-connection number of TDM hops.
        conn_net: per-connection owning net index.
        dir_pairs / dir_indptr: CSR grouping of pair indices per directed
            TDM edge: group ``g`` owns ``dir_pairs[dir_indptr[g]:
            dir_indptr[g + 1]]`` (ascending pair indices); groups are
            sorted by (edge, direction).
        dir_edge / dir_dir: per-group edge index and direction.
    """

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        solution: RoutingSolution,
        delay_model: DelayModel,
    ) -> None:
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model
        num_conns = self.num_connections = netlist.num_connections

        index = solution.topology_index()
        if index.unrouted >= 0:
            raise ValueError(f"connection {index.unrouted} is unrouted")
        sll_conn = index.sll_conn
        self.conn_sll_delay = np.bincount(
            sll_conn,
            weights=np.full(sll_conn.size, delay_model.d_sll),
            minlength=num_conns,
        )
        self.conn_net = netlist.connection_net_indices()
        # The TDM hops come sorted by connection, each path in order, and
        # their pairs are numbered in first-occurrence order, which
        # reproduces the historical grouped-by-net pair ordering.
        self.inc_conn = index.tdm_conn
        self.conn_tdm_hops = np.bincount(self.inc_conn, minlength=num_conns).astype(
            np.int64, copy=False
        )
        pairs = index.pairs
        self.inc_pair = pairs.hop_pair
        self.pair_net = pairs.net
        self.pair_edge = pairs.edge
        self.pair_dir = pairs.direction
        self.num_pairs = int(self.pair_net.shape[0])
        edge_capacity = np.fromiter(
            (edge.capacity for edge in system.edges),
            dtype=np.int64,
            count=system.num_edges,
        )
        self.pair_cap = edge_capacity[self.pair_edge]

        # The tuple list and its reverse index are derived on demand (see
        # the `uses` / `use_index` properties): the LR/legalization hot
        # path never touches them.
        self._index = index
        self._uses: Optional[List[NetEdgeUse]] = None
        self._use_index: Optional[Dict[NetEdgeUse, int]] = None

        # CSR grouping of pair indices per directed TDM edge, sorted by
        # (edge, direction); stable sort keeps pair indices ascending
        # within a group (the historical dict-of-lists append order).
        dir_key = self.pair_edge * 2 + self.pair_dir
        self.dir_pairs = np.argsort(dir_key, kind="stable").astype(
            np.int64, copy=False
        )
        group_keys, group_counts = np.unique(
            dir_key[self.dir_pairs], return_counts=True
        )
        self.dir_indptr = np.zeros(group_keys.shape[0] + 1, dtype=np.int64)
        np.cumsum(group_counts, out=self.dir_indptr[1:])
        self.dir_edge = group_keys // 2
        self.dir_dir = group_keys % 2
        self._dir_group_index: Dict[Tuple[int, int], int] = {
            key: g
            for g, key in enumerate(
                zip(self.dir_edge.tolist(), self.dir_dir.tolist())
            )
        }

    # ------------------------------------------------------------------
    # Lazy tuple views
    # ------------------------------------------------------------------
    @property
    def uses(self) -> List[NetEdgeUse]:
        """The (net, edge, direction) triples in pair-index order.

        Shared with the solution's topology index, so the timing analyzer
        looks ratios up by the same tuples.
        """
        if self._uses is None:
            self._uses = self._index.uses
        return self._uses

    @property
    def use_index(self) -> Dict[NetEdgeUse, int]:
        """Reverse map from a use triple to its pair index."""
        if self._use_index is None:
            self._use_index = {use: i for i, use in enumerate(self.uses)}
        return self._use_index

    # ------------------------------------------------------------------
    # Vectorized evaluations
    # ------------------------------------------------------------------
    def connection_delays(
        self, pair_ratios: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-connection delays given per-pair TDM ratios.

        ``d_c = d_SLL_c + Σ (d0 + d1 * r_pair)`` over the connection's TDM
        hops (Eq. 4 summed along the path).

        Args:
            pair_ratios: per-pair ratio array.
            out: optional preallocated output of shape
                ``(num_connections,)``; the sum is accumulated in place so
                repeated evaluations (the LR loop) skip the output
                allocations.
        """
        model = self.delay_model
        if out is None:
            delays = self.conn_sll_delay + model.d0 * self.conn_tdm_hops
            if self.inc_conn.size:
                tdm_part = np.bincount(
                    self.inc_conn,
                    weights=model.d1 * pair_ratios[self.inc_pair],
                    minlength=self.num_connections,
                )
                delays = delays + tdm_part
            return delays
        np.multiply(self.conn_tdm_hops, model.d0, out=out)
        np.add(out, self.conn_sll_delay, out=out)
        if self.inc_conn.size:
            weights = pair_ratios[self.inc_pair]
            np.multiply(weights, model.d1, out=weights)
            tdm_part = np.bincount(
                self.inc_conn, weights=weights, minlength=self.num_connections
            )
            np.add(out, tdm_part, out=out)
        return out

    def pair_criticality(self, connection_delays: np.ndarray) -> np.ndarray:
        """Per-pair criticality: the largest delay of a connection crossing it.

        This is the paper's "criticality of a net on a TDM edge" used by
        Algorithm 2 (the refinement priority).
        """
        criticality = np.zeros(self.num_pairs, dtype=np.float64)
        if self.inc_conn.size:
            np.maximum.at(criticality, self.inc_pair, connection_delays[self.inc_conn])
        return criticality

    # ------------------------------------------------------------------
    # Directed-edge grouping
    # ------------------------------------------------------------------
    @property
    def num_directed_edges(self) -> int:
        """Number of directed TDM edges that carry at least one net."""
        return int(self.dir_edge.shape[0])

    def pairs_of_directed_edge(self, edge_index: int, direction: int) -> List[int]:
        """Pair indices of all nets crossing a directed TDM edge."""
        return self.pair_slice_of_directed_edge(edge_index, direction).tolist()

    def pair_slice_of_directed_edge(
        self, edge_index: int, direction: int
    ) -> np.ndarray:
        """CSR slice view of a directed edge's pair indices (ascending).

        Empty array when the directed edge carries no nets.
        """
        group = self._dir_group_index.get((edge_index, direction))
        if group is None:
            return self.dir_pairs[:0]
        start, stop = self.dir_indptr[group], self.dir_indptr[group + 1]
        return self.dir_pairs[start:stop]

    def directed_edges(self) -> List[Tuple[int, int]]:
        """The (edge, direction) keys that actually carry nets, sorted."""
        return list(zip(self.dir_edge.tolist(), self.dir_dir.tolist()))

    def directed_edge_groups(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(edge_index, direction, pair_indices)`` per CSR group.

        The pair index array is a slice view into :attr:`dir_pairs`
        (ascending pair indices); groups come out sorted by
        (edge, direction).
        """
        indptr = self.dir_indptr
        for group, (edge_index, direction) in enumerate(
            zip(self.dir_edge.tolist(), self.dir_dir.tolist())
        ):
            yield edge_index, direction, self.dir_pairs[
                indptr[group] : indptr[group + 1]
            ]


def build_incidence(
    system: MultiFpgaSystem,
    netlist: Netlist,
    solution: RoutingSolution,
    delay_model: DelayModel,
    tracer: Optional[object] = None,
) -> TdmIncidence:
    """Build the incidence of ``solution``'s topology.

    Publishes the ``incidence.cold_builds`` counter on ``tracer`` when
    one is given.
    """
    incidence = TdmIncidence(system, netlist, solution, delay_model)
    if tracer is not None:
        tracer.add("incidence.cold_builds", 1)
    return incidence
