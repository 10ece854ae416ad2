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
analyzer reads as well, and the per-directed-edge grouping that
legalization and wire assignment consume is a CSR slice (``dir_indptr``
/ ``dir_pairs``) instead of a dict of Python lists.

Two more entry points support the timing-reroute/ECO refine loops:

* :meth:`TdmIncidence.incremental` patches only the rows of connections
  that were actually rerouted, so each refine round rebuilds in
  proportion to its moves.  LR multipliers live in connection space
  (one per connection, Eq. 8) and a reroute changes paths, not the
  connection set, so they warm-start the next solve unchanged.
* :func:`build_incidence` is the gated front door used by phase II
  (:class:`~repro.core.router.TdmAssigner`): it picks the incremental
  path when fewer than :data:`INCREMENTAL_REBUILD_FRACTION` of the
  connections changed and publishes the ``incidence.*`` obs counters.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.arch.edges import EdgeKind
from repro.arch.system import MultiFpgaSystem
from repro.netlist.netlist import Netlist
from repro.route.solution import (
    NetEdgeUse,
    RoutingSolution,
    TdmPairs,
    TopologyIndex,
    tdm_pairs,
)
from repro.timing.delay import DelayModel

#: :func:`build_incidence` patches the previous incidence when strictly
#: fewer than this fraction of the connections changed, and cold-builds
#: otherwise.  Both builds are bit-identical; the gate only picks the
#: cheaper one.
INCREMENTAL_REBUILD_FRACTION = 0.2


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
        self.num_connections = netlist.num_connections
        self._init_edge_columns()

        index = solution.topology_index()
        if index.unrouted >= 0:
            raise ValueError(f"connection {index.unrouted} is unrouted")
        sll_conn = index.sll_conn
        conn_sll = np.bincount(
            sll_conn,
            weights=np.full(sll_conn.size, delay_model.d_sll),
            minlength=self.num_connections,
        )
        self._assemble(
            inc_conn=index.tdm_conn,
            pairs=index.pairs,
            conn_net=netlist.connection_net_indices(),
            conn_sll_delay=conn_sll,
            index=index,
        )

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _init_edge_columns(self) -> None:
        """Per-system-edge kind/capacity columns used by construction."""
        edges = self.system.edges
        num_edges = len(edges)
        self._edge_is_tdm = np.fromiter(
            (edge.kind is EdgeKind.TDM for edge in edges),
            dtype=bool,
            count=num_edges,
        )
        self._edge_capacity = np.fromiter(
            (edge.capacity for edge in edges), dtype=np.int64, count=num_edges
        )

    def _assemble(
        self,
        inc_conn: np.ndarray,
        pairs: TdmPairs,
        conn_net: np.ndarray,
        conn_sll_delay: np.ndarray,
        index: Optional[TopologyIndex] = None,
    ) -> None:
        """Derive all pair/group arrays from the TDM hops and their pairs.

        ``inc_conn`` must be sorted by connection with hops in path order
        — exactly the order a scan over connections produces — and
        ``pairs`` numbered from those hops by
        :func:`~repro.route.solution.tdm_pairs`, so the pair order
        reproduces the historical grouped-by-net ordering.  ``index`` is
        the topology index the hops came from, if any; it supplies the
        ``uses`` tuples.
        """
        num_conns = self.num_connections
        self.conn_net = conn_net
        self.conn_sll_delay = conn_sll_delay
        self.inc_conn = inc_conn
        self.conn_tdm_hops = np.bincount(inc_conn, minlength=num_conns).astype(
            np.int64, copy=False
        )
        self.inc_pair = pairs.hop_pair
        self.pair_net = pairs.net
        self.pair_edge = pairs.edge
        self.pair_dir = pairs.direction
        self.num_pairs = int(self.pair_net.shape[0])
        self.pair_cap = self._edge_capacity[self.pair_edge]

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

        Shared with the solution's topology index when built from one,
        so the timing analyzer looks ratios up by the same tuples.
        """
        if self._uses is None:
            if self._index is not None:
                self._uses = self._index.uses
            else:
                self._uses = list(
                    zip(
                        self.pair_net.tolist(),
                        self.pair_edge.tolist(),
                        self.pair_dir.tolist(),
                    )
                )
        return self._uses

    @property
    def use_index(self) -> Dict[NetEdgeUse, int]:
        """Reverse map from a use triple to its pair index."""
        if self._use_index is None:
            self._use_index = {use: i for i, use in enumerate(self.uses)}
        return self._use_index

    # ------------------------------------------------------------------
    # Incremental rebuild
    # ------------------------------------------------------------------
    @classmethod
    def incremental(
        cls,
        previous: "TdmIncidence",
        solution: RoutingSolution,
        changed_connections: Iterable[int],
    ) -> "TdmIncidence":
        """Patch a previous incidence onto a partially rerouted solution.

        Args:
            previous: incidence of the pre-reroute topology.
            solution: the rerouted topology; every connection **not** in
                ``changed_connections`` must still have its previous path
                (the caller — timing reroute, ECO — knows exactly which
                connections it moved).
            changed_connections: indices of the rerouted connections.

        Returns:
            An incidence equal to a cold :class:`TdmIncidence` build on
            ``solution`` bit-for-bit.

        Raises:
            ValueError: when the solution belongs to a different netlist
                or a changed index is out of range.
        """
        if previous.netlist is not solution.netlist:
            raise ValueError(
                "incremental rebuild requires the previous incidence and the "
                "solution to share one netlist"
            )
        num_conns = previous.num_connections
        changed = np.unique(np.fromiter(changed_connections, dtype=np.int64))
        if changed.size and (changed[0] < 0 or changed[-1] >= num_conns):
            raise ValueError("changed connection index out of range")
        changed_mask = np.zeros(num_conns, dtype=bool)
        changed_mask[changed] = True

        inc = cls.__new__(cls)
        inc.system = previous.system
        inc.netlist = previous.netlist
        inc.delay_model = previous.delay_model
        inc.num_connections = num_conns
        inc._edge_is_tdm = previous._edge_is_tdm
        inc._edge_capacity = previous._edge_capacity

        # Rows of unchanged connections carry over (triples reconstructed
        # from the previous pair columns).
        keep = ~changed_mask[previous.inc_conn]
        kept_pairs = previous.inc_pair[keep]
        old_conn = previous.inc_conn[keep]
        old_edge = previous.pair_edge[kept_pairs]
        old_dir = previous.pair_dir[kept_pairs]

        # Fresh rows (and SLL delays) for the changed connections only.
        counts = np.zeros(changed.size, dtype=np.int64)
        edge_parts: List[np.ndarray] = []
        dir_parts: List[np.ndarray] = []
        for i, conn_index in enumerate(changed.tolist()):
            edges, dirs = solution.path_hop_arrays(conn_index)
            counts[i] = edges.shape[0]
            edge_parts.append(edges)
            dir_parts.append(dirs)
        if edge_parts:
            ch_edge = np.concatenate(edge_parts)
            ch_dir = np.concatenate(dir_parts)
        else:
            ch_edge = np.zeros(0, dtype=np.int64)
            ch_dir = np.zeros(0, dtype=np.int64)
        ch_conn = np.repeat(changed, counts)
        tdm_mask = inc._edge_is_tdm[ch_edge]
        sll_rows = ch_conn[~tdm_mask]
        conn_sll = previous.conn_sll_delay.copy()
        if changed.size:
            fresh_sll = np.bincount(
                sll_rows,
                weights=np.full(sll_rows.size, previous.delay_model.d_sll),
                minlength=num_conns,
            )
            conn_sll[changed] = fresh_sll[changed]

        # Merge: each connection's rows are either all-old or all-new, so
        # a stable sort by connection restores the full scan order.
        merged_conn = np.concatenate([old_conn, ch_conn[tdm_mask]])
        merged_edge = np.concatenate([old_edge, ch_edge[tdm_mask]])
        merged_dir = np.concatenate([old_dir, ch_dir[tdm_mask]])
        order = np.argsort(merged_conn, kind="stable")
        inc_conn = merged_conn[order]
        inc._assemble(
            inc_conn=inc_conn,
            pairs=tdm_pairs(
                previous.conn_net[inc_conn],
                merged_edge[order],
                merged_dir[order],
                inc._edge_capacity.shape[0],
            ),
            conn_net=previous.conn_net,
            conn_sll_delay=conn_sll,
        )
        return inc

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
    previous: Optional[TdmIncidence] = None,
    changed_connections: Optional[Iterable[int]] = None,
    tracer: Optional[object] = None,
) -> TdmIncidence:
    """Build an incidence, incrementally when few connections changed.

    The incremental path runs when a previous incidence and the changed
    connection set are given and the changed share is strictly below
    :data:`INCREMENTAL_REBUILD_FRACTION`.  Publishes the ``incidence.*``
    counters on ``tracer`` when one is given.
    """
    changed: Optional[List[int]] = None
    if changed_connections is not None:
        changed = list(changed_connections)
    if (
        previous is not None
        and changed is not None
        and netlist.num_connections > 0
        and previous.netlist is netlist
        and len(changed) < INCREMENTAL_REBUILD_FRACTION * netlist.num_connections
    ):
        incidence = TdmIncidence.incremental(previous, solution, changed)
        if tracer is not None:
            tracer.add("incidence.incremental_builds", 1)
            tracer.add("incidence.patched_connections", len(changed))
        return incidence
    incidence = TdmIncidence(system, netlist, solution, delay_model)
    if tracer is not None:
        tracer.add("incidence.cold_builds", 1)
    return incidence
