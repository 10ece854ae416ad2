"""Shortest-path search on the die graph.

The die graph is tiny (at most a few dozen vertices), but the router calls
these functions once per connection — potentially millions of times — so
they are written for low constant overhead: plain lists, a binary heap, and
a caller-supplied edge cost callable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Edge cost callable: ``cost(edge_index, from_die, to_die) -> float``.
EdgeCostFn = Callable[[int, int, int], float]


@dataclass
class SearchStats:
    """Accumulated search-effort counters (fed to the obs layer).

    One instance is typically shared across every search of a routing
    pass; the searches add their local counts on exit, so the per-pop
    cost on the hot path is a plain local integer increment.

    Attributes:
        searches: number of Dijkstra invocations accounted.
        pops: heap pops (settled or stale entries) across all searches.
        relaxations: successful distance improvements pushed to the heap.
    """

    searches: int = 0
    pops: int = 0
    relaxations: int = 0


def dijkstra_path(
    adjacency: Sequence[Sequence[Tuple[int, int]]],
    source: int,
    target: int,
    edge_cost: EdgeCostFn,
    stats: Optional[SearchStats] = None,
) -> Optional[List[int]]:
    """Find a min-cost simple path from ``source`` to ``target``.

    Args:
        adjacency: per-die list of ``(edge_index, other_die)`` pairs.
        source: start die.
        target: end die.
        edge_cost: cost of traversing an edge in a given orientation; must
            be non-negative.
        stats: optional counters to accumulate search effort into.

    Returns:
        The die path including both endpoints, or ``None`` if unreachable.
    """
    if source == target:
        return [source]
    n = len(adjacency)
    dist = [float("inf")] * n
    prev: List[int] = [-1] * n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    pops = 0
    relaxations = 0
    while heap:
        d, die = heapq.heappop(heap)
        pops += 1
        if d > dist[die]:
            continue
        if die == target:
            break
        for edge_index, other in adjacency[die]:
            nd = d + edge_cost(edge_index, die, other)
            if nd < dist[other]:
                dist[other] = nd
                prev[other] = die
                relaxations += 1
                heapq.heappush(heap, (nd, other))
    if stats is not None:
        stats.searches += 1
        stats.pops += pops
        stats.relaxations += relaxations
    if dist[target] == float("inf"):
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def dijkstra_all(
    adjacency: Sequence[Sequence[Tuple[int, int]]],
    source: int,
    edge_cost: EdgeCostFn,
    stats: Optional[SearchStats] = None,
) -> Tuple[List[float], List[int]]:
    """Single-source shortest distances and predecessor dies.

    Args:
        adjacency: per-die list of ``(edge_index, other_die)`` pairs.
        source: start die.
        edge_cost: non-negative traversal cost callable.
        stats: optional counters to accumulate search effort into.

    Returns:
        ``(dist, prev)`` where ``dist[v]`` is the cost to reach die ``v``
        (``inf`` when unreachable) and ``prev[v]`` the predecessor die on a
        shortest path (``-1`` for the source/unreachable dies).
    """
    n = len(adjacency)
    dist = [float("inf")] * n
    prev = [-1] * n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    pops = 0
    relaxations = 0
    while heap:
        d, die = heapq.heappop(heap)
        pops += 1
        if d > dist[die]:
            continue
        for edge_index, other in adjacency[die]:
            nd = d + edge_cost(edge_index, die, other)
            if nd < dist[other]:
                dist[other] = nd
                prev[other] = die
                relaxations += 1
                heapq.heappush(heap, (nd, other))
    if stats is not None:
        stats.searches += 1
        stats.pops += pops
        stats.relaxations += relaxations
    return dist, prev


def dijkstra_path_flat(
    rows: Sequence[Sequence[Tuple[int, int]]],
    source: int,
    target: int,
    edge_costs: Sequence[float],
    stats: Optional[SearchStats] = None,
) -> Optional[List[int]]:
    """:func:`dijkstra_path` over adjacency rows and a flat cost array.

    Early-exits once the target settles.  The cost of an edge is a plain
    array lookup instead of a Python call — this is the kernel's hot
    search.  The relaxation order follows the
    row order, which :class:`~repro.route.kernel.RoutingKernel` derives
    from the graph's CSR arrays (themselves in ``adjacency`` order) — so
    for equal cost inputs the path is identical to the closure-based
    :func:`dijkstra_path`, down to tie-breaking.

    Args:
        rows: per-die list of ``(edge_index, other_die)`` pairs.
        source: start die.
        target: end die.
        edge_costs: per-edge traversal cost, indexed by edge index.
        stats: optional counters to accumulate search effort into.

    Returns:
        The die path including both endpoints, or ``None`` if unreachable.
    """
    if source == target:
        return [source]
    n = len(rows)
    dist = [float("inf")] * n
    prev = [-1] * n
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    push = heapq.heappush
    pop = heapq.heappop
    pops = 0
    relaxations = 0
    while heap:
        d, die = pop(heap)
        pops += 1
        if d > dist[die]:
            continue
        if die == target:
            break
        for edge_index, other in rows[die]:
            nd = d + edge_costs[edge_index]
            if nd < dist[other]:
                dist[other] = nd
                prev[other] = die
                relaxations += 1
                push(heap, (nd, other))
    if stats is not None:
        stats.searches += 1
        stats.pops += pops
        stats.relaxations += relaxations
    if dist[target] == float("inf"):
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def extract_path(prev: Sequence[int], source: int, target: int) -> List[int]:
    """Reconstruct the die path from a predecessor array."""
    path = [target]
    while path[-1] != source:
        predecessor = prev[path[-1]]
        if predecessor < 0:
            raise ValueError(f"die {target} is unreachable from {source}")
        path.append(predecessor)
    path.reverse()
    return path


def shortest_path_dies(
    adjacency: Sequence[Sequence[Tuple[int, int]]],
    source: int,
    target: int,
    edge_cost: Optional[EdgeCostFn] = None,
) -> Optional[List[int]]:
    """Shortest path by hop count (or a custom cost) between two dies."""
    cost = edge_cost if edge_cost is not None else (lambda e, a, b: 1.0)
    return dijkstra_path(adjacency, source, target, cost)
