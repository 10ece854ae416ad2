"""Warm per-topology routing artifacts and their shared LRU cache.

A routing run's cold start is dominated by work that depends only on the
*case* (system + netlist + delay model) and a handful of pricing knobs:
building the :class:`~repro.route.graph.RoutingGraph`, estimating edge
weights, the Floyd–Warshall all-pairs matrix and the connection
ordering.  In a serving setting (docs/serving.md) the same few
topologies are routed over and over, so this module factors that work
into an immutable :class:`RoutingArtifacts` bundle that many concurrent
runs can share, plus a thread-safe size-bounded :class:`ArtifactCache`
keyed by ``(case digest, pricing knobs, epoch)``.

Sharing is safe because every artifact is read-only during routing: the
graph is flat immutable arrays, and the weights/dist/order are never
written after construction.  Bit-identity is preserved because
:func:`build_artifacts` computes each artifact with exactly the
functions a cold ``ir.prepare`` calls, in the same order.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.arch.system import MultiFpgaSystem
from repro.core.config import RouterConfig
from repro.core.ordering import estimate_edge_weights, floyd_warshall, order_connections
from repro.netlist.netlist import Netlist
from repro.obs import get_logger
from repro.route.graph import RoutingGraph
from repro.timing.delay import DelayModel

logger = get_logger(__name__)

#: RouterConfig fields the cache key carries.  The weights (and
#: therefore dist/order) depend only on ``weight_mode``; the pricing
#: constants are keyed too, which is deliberately conservative —
#: over-keying costs a cache miss, under-keying would corrupt results.
PRICING_FIELDS = (
    "mu_shared",
    "history_increment",
    "present_penalty",
    "weight_mode",
)


@dataclass(frozen=True)
class RoutingArtifacts:
    """Immutable per-topology warm state shared across routing runs.

    Attributes:
        graph: the routing graph (flat immutable arrays).
        base_weights: per-edge estimated weights
            (:func:`~repro.core.ordering.estimate_edge_weights` output).
        weight_mode: the *resolved* mode string (``"delay"`` or
            ``"congestion"``), i.e. what ``"auto"`` picked.
        dist: Floyd–Warshall all-pairs path-weight matrix.
        order: connection routing order (Section III-B).
        rank: connection index → position in ``order``.
        nbytes: rough in-memory footprint estimate used by the cache's
            byte bound.
    """

    graph: RoutingGraph
    base_weights: np.ndarray
    weight_mode: str
    dist: np.ndarray
    order: List[int]
    rank: Dict[int, int]
    nbytes: int


def build_artifacts(
    system: MultiFpgaSystem,
    netlist: Netlist,
    delay_model: Optional[DelayModel] = None,
    config: Optional[RouterConfig] = None,
    tracer: Optional[Any] = None,
) -> RoutingArtifacts:
    """Build the warm artifacts one cold run would compute in ``ir.prepare``.

    The computation mirrors :class:`~repro.core.initial_routing.InitialRouter`
    exactly — same functions, same order — so a run seeded from these
    artifacts is bit-identical to a cold one.  ``delay_model`` belongs to
    the case :func:`artifact_key` digests; no artifact depends on it.
    """
    config = config if config is not None else RouterConfig()

    def _build() -> RoutingArtifacts:
        graph = RoutingGraph(system)
        weights = estimate_edge_weights(graph, netlist, config.weight_mode)
        resolved = (
            "delay" if weights[graph.is_tdm].max(initial=0) > 1 else "congestion"
        )
        dist = floyd_warshall(graph, weights)
        order = order_connections(netlist, dist)
        rank = {conn_index: pos for pos, conn_index in enumerate(order)}
        nbytes = _estimate_nbytes(graph, dist)
        return RoutingArtifacts(
            graph=graph,
            base_weights=weights,
            weight_mode=resolved,
            dist=dist,
            order=order,
            rank=rank,
            nbytes=nbytes,
        )

    if tracer is not None:
        with tracer.span("artifacts.build"):
            return _build()
    return _build()


def _estimate_nbytes(graph: RoutingGraph, dist: np.ndarray) -> int:
    """Rough footprint: the dist matrix and the CSR arrays."""
    graph_bytes = graph.num_edges * 40 + graph.num_dies * 8
    return int(dist.nbytes) + graph_bytes


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def case_digest(
    system: MultiFpgaSystem, netlist: Netlist, delay_model: DelayModel
) -> str:
    """Stable hex digest of a full case (system + netlist + delay params).

    Built over the canonical JSON case serialization
    (:func:`repro.io.json_format.case_to_dict` with sorted keys), so two
    equal cases digest identically regardless of how they were loaded.
    """
    from repro.io.json_format import case_to_dict

    doc = case_to_dict(system, netlist, delay_model)
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def artifact_key(
    system: MultiFpgaSystem,
    netlist: Netlist,
    delay_model: DelayModel,
    config: RouterConfig,
    epoch: int = 0,
) -> str:
    """Cache key of the artifacts for one ``(case, pricing knobs, epoch)``.

    ``epoch`` is a client-controlled generation number: bumping it
    invalidates every cached artifact of the topology without touching
    the rest of the cache (docs/serving.md).
    """
    knobs = ",".join(
        f"{name}={getattr(config, name)!r}" for name in PRICING_FIELDS
    )
    return (
        f"artifacts:{case_digest(system, netlist, delay_model)}"
        f":{knobs}:epoch={int(epoch)}"
    )


# ----------------------------------------------------------------------
# The shared cache
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    in_flight_waits: int = 0

    def to_dict(self) -> Dict[str, int]:
        """JSON-ready counters (run reports, bench rows)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "in_flight_waits": self.in_flight_waits,
        }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArtifactCache:
    """Thread-safe size-bounded LRU over warm routing artifacts.

    One cache instance is shared by every worker of a
    :class:`repro.serve.RoutingService`; entries are namespaced strings
    (``"artifacts:..."``, ``"case:..."``) so resolved cases and built
    artifacts live side by side under one eviction policy.

    Builds are de-duplicated: when several requests miss the same key
    concurrently, one thread builds while the rest wait on a per-key
    event and then take the built value (counted as ``in_flight_waits``,
    not extra misses).  The cache lock is never held during a build.

    Args:
        max_entries: LRU entry bound (evict least-recently-used beyond
            it).  ``None`` leaves the entry count unbounded.
        max_bytes: optional byte bound over entries' ``nbytes``
            attributes (entries without one count as 0).
    """

    def __init__(
        self,
        max_entries: Optional[int] = 8,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 when set")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 when set")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._building: Dict[str, threading.Event] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Presence probe; does not touch LRU order or the counters."""
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def get(self, key: str) -> Optional[Any]:
        """The cached value (marking it recently used), or ``None``."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) an entry, evicting beyond the bounds."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_locked()

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building it on a miss.

        Concurrent misses on one key run ``builder`` once; the losers
        block until the winner publishes.  A failed build releases the
        waiters (they retry, typically re-raising the same error).
        """
        while True:
            wait_for: Optional[threading.Event] = None
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return self._entries[key]
                event = self._building.get(key)
                if event is None:
                    self.stats.misses += 1
                    event = threading.Event()
                    self._building[key] = event
                else:
                    self.stats.in_flight_waits += 1
                    wait_for = event
            if wait_for is not None:
                wait_for.wait()
                continue
            try:
                value = builder()
            finally:
                with self._lock:
                    self._building.pop(key, None)
                event.set()
            self.put(key, value)
            return value

    # ------------------------------------------------------------------
    def _evict_locked(self) -> None:
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                logger.debug("artifact cache evicted %s (entry bound)", evicted_key)
        if self.max_bytes is not None:
            while len(self._entries) > 1 and self._total_bytes() > self.max_bytes:
                evicted_key, _ = self._entries.popitem(last=False)
                self.stats.evictions += 1
                logger.debug("artifact cache evicted %s (byte bound)", evicted_key)

    def _total_bytes(self) -> int:
        return sum(
            int(getattr(value, "nbytes", 0)) for value in self._entries.values()
        )

    # ------------------------------------------------------------------
    def publish_stats(self, tracer: Any) -> None:
        """Emit the counters to an obs tracer (``serve.artifacts.*``)."""
        stats = self.stats
        tracer.add("serve.artifacts.hits", stats.hits)
        tracer.add("serve.artifacts.misses", stats.misses)
        tracer.add("serve.artifacts.evictions", stats.evictions)
        tracer.add("serve.artifacts.in_flight_waits", stats.in_flight_waits)
