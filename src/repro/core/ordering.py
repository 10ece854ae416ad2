"""Weight estimation and connection ordering (Section III-B).

Before any path search, the router estimates a routing weight per edge,
runs Floyd–Warshall over those weights, and orders connections by the
weight of their shortest source-to-sink path (descending; ties broken by
ascending net fanout).  Long, hard connections are thus routed first, when
the routing fabric is still empty.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

import numpy as np

from repro.netlist.netlist import Netlist
from repro.route.graph import RoutingGraph
from repro.route.solution import ranges


class WeightMode(enum.Enum):
    """Which edge family is encouraged during initial routing."""

    #: Demand is low: weight TDM edges high (``||V|| + 1``) and SLL edges
    #: low (1) so paths prefer cheap, plentiful SLL hops for less delay.
    DELAY_DRIVEN = "delay"
    #: Demand is high: weight SLL edges high so paths spread onto TDM edges
    #: and avoid SLL congestion.
    CONGESTION_DRIVEN = "congestion"


def estimate_sll_pressure(graph: RoutingGraph, netlist: Netlist) -> float:
    """Worst-edge SLL demand/capacity ratio under static hop-shortest paths.

    Every connection is walked along a hop-count-shortest path and the
    distinct nets per SLL edge are counted — a capacity-blind upper-bound
    sketch of how hard the SLL fabric would be hit without negotiation.
    """
    from repro.route.dijkstra import dijkstra_all, extract_path

    sll_edges = graph.sll_edge_indices
    if sll_edges.size == 0 or netlist.num_connections == 0:
        return 0.0
    # Connections share (source, sink) pairs heavily — on an n-die system
    # there are at most n*(n-1) pairs — so the hop-shortest path's SLL
    # edges are resolved once per pair, then spread over the connections
    # of that pair as (net, edge) columns.
    sources, sinks = netlist.connection_dies()
    conn_key = sources * graph.num_dies + sinks
    present = np.zeros(graph.num_dies * graph.num_dies, dtype=bool)
    present[conn_key] = True
    pair_keys = np.flatnonzero(present)
    conn_pair = (np.cumsum(present) - 1)[conn_key]
    edge_of = graph.edge_index_between
    is_tdm = graph.is_tdm.tolist()
    unit = lambda e, a, b: 1.0  # noqa: E731 - tiny local cost fn
    prev_by_source = {}
    pair_edges: List[int] = []
    pair_starts = [0]
    for key in pair_keys.tolist():
        source, sink = divmod(key, graph.num_dies)
        prev = prev_by_source.get(source)
        if prev is None:
            _, prev = dijkstra_all(graph.adjacency, source, unit)
            prev_by_source[source] = prev
        path = extract_path(prev, source, sink)
        pair_edges.extend(
            edge_index
            for edge_index in (edge_of(frm, to) for frm, to in zip(path, path[1:]))
            if not is_tdm[edge_index]
        )
        pair_starts.append(len(pair_edges))
    starts = np.array(pair_starts, dtype=np.int64)
    counts = (starts[1:] - starts[:-1])[conn_pair]
    edges = np.array(pair_edges, dtype=np.int64)[ranges(starts[conn_pair], counts)]
    nets = np.repeat(netlist.connection_net_indices(), counts)
    keys = np.sort(nets * graph.num_edges + edges)
    distinct = keys[np.flatnonzero(np.diff(keys, prepend=-1))] % graph.num_edges
    nets_per_edge = np.bincount(distinct, minlength=graph.num_edges)
    return float(
        np.max(nets_per_edge[sll_edges] / graph.capacity[sll_edges].astype(np.float64))
    )


def select_weight_mode(
    graph: RoutingGraph,
    netlist: Netlist,
    pressure_threshold: float = 1.0,
) -> WeightMode:
    """Apply the paper's demand-threshold rule to pick the weight mode.

    The paper switches modes when the per-die net count crosses half of
    the SLL edge capacity.  We measure the equivalent quantity directly:
    the estimated worst-edge SLL utilization under capacity-blind
    hop-shortest routing (:func:`estimate_sll_pressure`).  Below the
    threshold, SLL edges are plentiful and the delay-driven weights apply;
    at or above it, the congestion-driven weights keep nets off the SLL
    fabric.
    """
    if estimate_sll_pressure(graph, netlist) < pressure_threshold:
        return WeightMode.DELAY_DRIVEN
    return WeightMode.CONGESTION_DRIVEN


def estimate_edge_weights(
    graph: RoutingGraph,
    netlist: Netlist,
    mode: str = "auto",
) -> np.ndarray:
    """Per-edge routing weights for ordering (and SLL base costs).

    Args:
        graph: the routing graph.
        netlist: the design.
        mode: ``"auto"`` applies :func:`select_weight_mode`; ``"delay"`` or
            ``"congestion"`` force a mode.

    Returns:
        Array of ``num_edges`` float weights: 1 for the encouraged edge
        family and ``num_dies + 1`` for the discouraged one.
    """
    if mode == "auto":
        selected = select_weight_mode(graph, netlist)
    elif mode == "delay":
        selected = WeightMode.DELAY_DRIVEN
    elif mode == "congestion":
        selected = WeightMode.CONGESTION_DRIVEN
    else:
        raise ValueError(f"unknown weight mode {mode!r}")
    high = float(graph.num_dies + 1)
    weights = np.ones(graph.num_edges, dtype=np.float64)
    if selected is WeightMode.DELAY_DRIVEN:
        weights[graph.is_tdm] = high
    else:
        weights[~graph.is_tdm] = high
    return weights


def floyd_warshall(graph: RoutingGraph, edge_weights: Sequence[float]) -> np.ndarray:
    """All-pairs shortest-path weights over the die graph.

    Args:
        graph: the routing graph.
        edge_weights: one non-negative weight per edge.

    Returns:
        A ``(num_dies, num_dies)`` matrix of path weights (``inf`` for
        unreachable pairs, 0 on the diagonal).
    """
    n = graph.num_dies
    dist = np.full((n, n), np.inf, dtype=np.float64)
    np.fill_diagonal(dist, 0.0)
    for edge_index in range(graph.num_edges):
        a = int(graph.die_a[edge_index])
        b = int(graph.die_b[edge_index])
        w = float(edge_weights[edge_index])
        if w < dist[a, b]:
            dist[a, b] = w
            dist[b, a] = w
    for k in range(n):
        # Vectorized relaxation: dist = min(dist, dist[:, k] + dist[k, :]).
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist


def order_connections(
    netlist: Netlist,
    dist: np.ndarray,
) -> List[int]:
    """Routing order of connections (Section III-B).

    Connections with larger routing weight (shortest-path weight from their
    source die to their sink die) come first; among equal weights, nets
    with fewer fanouts have priority; remaining ties break on connection
    index for determinism.
    """
    sources, sinks = netlist.connection_dies()
    weights = dist[sources, sinks]
    fanouts = netlist.net_fanouts()[netlist.connection_net_indices()]
    # lexsort's last key is the primary one.
    order = np.lexsort((np.arange(len(weights)), fanouts, -weights))
    # Python ints: the order is stored in checkpoint payloads.
    return order.tolist()
