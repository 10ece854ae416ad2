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
    nets_per_edge = [set() for _ in range(graph.num_edges)]
    prev_by_source = {}
    # Connections share (source, sink) pairs heavily — on an n-die system
    # there are at most n*(n-1) pairs — so the hop-shortest path's SLL
    # edges are resolved once per pair, not once per connection.
    sll_edges_of_pair = {}
    edge_of = graph.edge_index_between
    is_tdm = graph.is_tdm.tolist()
    unit = lambda e, a, b: 1.0  # noqa: E731 - tiny local cost fn
    for conn in netlist.connections:
        pair = (conn.source_die, conn.sink_die)
        edges = sll_edges_of_pair.get(pair)
        if edges is None:
            prev = prev_by_source.get(conn.source_die)
            if prev is None:
                _, prev = dijkstra_all(graph.adjacency, conn.source_die, unit)
                prev_by_source[conn.source_die] = prev
            path = extract_path(prev, conn.source_die, conn.sink_die)
            edges = [
                edge_index
                for edge_index in (
                    edge_of(frm, to) for frm, to in zip(path, path[1:])
                )
                if not is_tdm[edge_index]
            ]
            sll_edges_of_pair[pair] = edges
        net_index = conn.net_index
        for edge_index in edges:
            nets_per_edge[edge_index].add(net_index)
    return max(
        len(nets_per_edge[int(e)]) / float(graph.capacity[int(e)])
        for e in sll_edges
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
