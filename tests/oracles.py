"""Reference implementations that the tests hold production code to.

Each is the slow, obvious form of a stage that ships one fast path:

* :func:`build_reference` builds a
  :class:`~repro.core.incidence.TdmIncidence` with per-hop Python loops.
  The vectorized constructor must match it bit for bit.
* :func:`write_ratios` / :func:`ratios_from_solution` scatter a per-pair
  ratio array into ``solution.ratios`` and gather it back, one pair at a
  time.
* :func:`reference_lr` is Algorithm 1 allocating fresh arrays on every
  iteration.  With ``update="accelerated"`` (Eq. 13) the buffered
  :class:`~repro.core.lagrangian.LagrangianTdmAssigner` must match it bit
  for bit; ``update="subgradient"`` is a projected subgradient loop with a
  1/k step, the comparison point of the acceleration.
* :class:`ExactQuantiles` keeps every observation; the streaming
  :class:`~repro.obs.quantiles.QuantileSketch` must stay within its
  error bound of it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.edges import EdgeKind
from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence
from repro.core.lagrangian import (
    MIN_RATIO,
    LrHistory,
    LrIteration,
    LrResult,
)
from repro.obs.quantiles import HistogramSummary

#: The LR loop's floors on multipliers and on η (Eq. 10).
LAMBDA_FLOOR = 1e-16
ETA_FLOOR = 1e-30


# ----------------------------------------------------------------------
# Incidence construction and the ratio scatter/gather
# ----------------------------------------------------------------------
def build_reference(system, netlist, solution, delay_model) -> TdmIncidence:
    """A full :class:`TdmIncidence` built with per-hop Python loops.

    Pairs are numbered by ``solution.all_net_uses()`` and the per-directed
    edge grouping comes from a dict of lists, converted to the CSR layout.
    """
    inc = TdmIncidence.__new__(TdmIncidence)
    inc.system = system
    inc.netlist = netlist
    inc.delay_model = delay_model
    inc.num_connections = netlist.num_connections

    uses = solution.all_net_uses()
    use_index = {use: i for i, use in enumerate(uses)}
    inc._index = None
    inc._uses = uses
    inc._use_index = use_index
    inc.num_pairs = num_pairs = len(uses)
    inc.pair_net = np.fromiter((u[0] for u in uses), dtype=np.int64, count=num_pairs)
    inc.pair_edge = np.fromiter((u[1] for u in uses), dtype=np.int64, count=num_pairs)
    inc.pair_dir = np.fromiter((u[2] for u in uses), dtype=np.int64, count=num_pairs)
    capacities = [edge.capacity for edge in system.edges]
    inc.pair_cap = np.fromiter(
        (capacities[u[1]] for u in uses), dtype=np.int64, count=num_pairs
    )

    inc_conn: List[int] = []
    inc_pair: List[int] = []
    conn_sll = np.zeros(inc.num_connections, dtype=np.float64)
    conn_tdm = np.zeros(inc.num_connections, dtype=np.int64)
    conn_net = np.zeros(inc.num_connections, dtype=np.int64)
    is_tdm = [edge.kind is EdgeKind.TDM for edge in system.edges]
    for conn in netlist.connections:
        conn_net[conn.index] = conn.net_index
        sll_sum = 0.0
        tdm_hops = 0
        for edge_index, direction in solution.path_hops(conn.index):
            if is_tdm[edge_index]:
                inc_conn.append(conn.index)
                inc_pair.append(use_index[(conn.net_index, edge_index, direction)])
                tdm_hops += 1
            else:
                sll_sum += delay_model.d_sll
        conn_sll[conn.index] = sll_sum
        conn_tdm[conn.index] = tdm_hops
    inc.inc_conn = np.asarray(inc_conn, dtype=np.int64)
    inc.inc_pair = np.asarray(inc_pair, dtype=np.int64)
    inc.conn_sll_delay = conn_sll
    inc.conn_tdm_hops = conn_tdm
    inc.conn_net = conn_net

    edge_dir_pairs: Dict[Tuple[int, int], List[int]] = {}
    for i, (_, edge_index, direction) in enumerate(uses):
        edge_dir_pairs.setdefault((edge_index, direction), []).append(i)
    group_keys = sorted(edge_dir_pairs)
    inc.dir_edge = np.asarray([key[0] for key in group_keys], dtype=np.int64)
    inc.dir_dir = np.asarray([key[1] for key in group_keys], dtype=np.int64)
    flat: List[int] = []
    indptr = [0]
    for key in group_keys:
        flat.extend(edge_dir_pairs[key])
        indptr.append(len(flat))
    inc.dir_pairs = np.asarray(flat, dtype=np.int64)
    inc.dir_indptr = np.asarray(indptr, dtype=np.int64)
    inc._dir_group_index = {key: g for g, key in enumerate(group_keys)}
    return inc


def write_ratios(inc: TdmIncidence, solution, pair_ratios: np.ndarray) -> None:
    """Scatter a per-pair ratio array into ``solution.ratios``."""
    solution.ratios.update(zip(inc.uses, pair_ratios.tolist()))


def ratios_from_solution(inc: TdmIncidence, solution) -> np.ndarray:
    """Gather ``solution.ratios`` into a per-pair array."""
    return np.fromiter(
        map(solution.ratios.__getitem__, inc.uses),
        dtype=np.float64,
        count=inc.num_pairs,
    )


# ----------------------------------------------------------------------
# Algorithm 1
# ----------------------------------------------------------------------
def reference_lr(
    inc: TdmIncidence,
    config: Optional[RouterConfig] = None,
    update: str = "accelerated",
    warm_start: Optional[np.ndarray] = None,
) -> LrResult:
    """Algorithm 1 with fresh arrays on every iteration.

    Args:
        inc: the incidence to solve on (it must carry TDM pairs).
        config: iteration cap and ε.
        update: ``"accelerated"`` (Eq. 13 with the [15]-style factor) or
            ``"subgradient"`` (projected subgradient, 1/k step).
        warm_start: initial multipliers, re-normalized before use.
    """
    config = config if config is not None else RouterConfig()
    _, pair_group = np.unique(inc.pair_edge, return_inverse=True)
    num_groups = int(pair_group.max()) + 1
    group_cap_minus_1 = np.empty(num_groups, dtype=np.float64)
    group_cap_minus_1[pair_group] = inc.pair_cap
    group_cap_minus_1 -= 1.0

    def solve_lrs(lam: np.ndarray) -> np.ndarray:
        # Eq. 10, then the Eq. 12 closed form per TDM edge.
        eta = inc.delay_model.d1 * np.bincount(
            inc.inc_pair, weights=lam[inc.inc_conn], minlength=inc.num_pairs
        )
        sqrt_eta = np.sqrt(np.maximum(eta, ETA_FLOOR))
        group_sum = np.bincount(pair_group, weights=sqrt_eta, minlength=num_groups)
        ratios = group_sum[pair_group] / (sqrt_eta * group_cap_minus_1[pair_group])
        return np.maximum(ratios, MIN_RATIO)

    num_conns = inc.num_connections
    if warm_start is not None:
        lam = np.maximum(warm_start.astype(np.float64), LAMBDA_FLOOR)
        lam /= lam.sum()
    else:
        lam = np.full(num_conns, 1.0 / num_conns, dtype=np.float64)
    history = LrHistory()
    acceleration = 1.0
    best_delay = np.inf
    best_ratios = best_delays = None
    prev_lower_bound = -np.inf
    for iteration in range(config.lr_max_iterations):
        ratios = solve_lrs(lam)
        delays = inc.connection_delays(ratios)
        critical = float(delays.max())
        lower_bound = float(np.multiply(lam, delays).sum())
        gap = (critical - lower_bound) / max(lower_bound, 1e-12)
        history.iterations.append(
            LrIteration(iteration, critical, lower_bound, gap, acceleration)
        )
        if critical < best_delay:
            best_delay, best_ratios, best_delays = critical, ratios, delays
        if gap < config.lr_epsilon:
            history.converged = True
            break
        if update == "accelerated":
            if lower_bound > prev_lower_bound:
                acceleration = min(acceleration * 1.1, 4.0)
            else:
                acceleration = max(acceleration * 0.8, 0.25)
            if critical > 0:
                lam = lam * np.power(np.maximum(delays, 1e-12) / critical, acceleration)
        else:
            subgradient = delays - lower_bound
            norm = math.sqrt(np.square(subgradient).sum())
            if norm > 0 and critical > 0:
                step = 1.0 / ((iteration + 1) * norm)
                lam = lam + step * subgradient
        prev_lower_bound = max(prev_lower_bound, lower_bound)
        lam = np.maximum(lam, LAMBDA_FLOOR)
        lam /= lam.sum()
    return LrResult(
        ratios=best_ratios,
        connection_delays=best_delays,
        history=history,
        multipliers=lam,
    )


# ----------------------------------------------------------------------
# Comparisons against the oracles
# ----------------------------------------------------------------------
#: Every array attribute of an incidence that phase II consumes.
INCIDENCE_ARRAYS = (
    "inc_conn",
    "inc_pair",
    "conn_sll_delay",
    "conn_tdm_hops",
    "conn_net",
    "pair_net",
    "pair_edge",
    "pair_dir",
    "pair_cap",
    "dir_pairs",
    "dir_indptr",
    "dir_edge",
    "dir_dir",
)


def assert_incidences_bit_equal(fast: TdmIncidence, ref: TdmIncidence) -> None:
    """Pairs, arrays (dtype and values) and directed-edge groups agree."""
    assert fast.uses == ref.uses
    assert fast.use_index == ref.use_index
    assert fast.num_pairs == ref.num_pairs
    for name in INCIDENCE_ARRAYS:
        a, b = getattr(fast, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert fast.directed_edges() == ref.directed_edges()
    for edge_index, direction in ref.directed_edges():
        assert fast.pairs_of_directed_edge(
            edge_index, direction
        ) == ref.pairs_of_directed_edge(edge_index, direction)


def assert_lr_bit_equal(result: LrResult, reference: LrResult) -> None:
    """Ratios, delays, multipliers and the whole history agree exactly."""
    assert np.array_equal(result.ratios, reference.ratios)
    assert np.array_equal(result.connection_delays, reference.connection_delays)
    assert np.array_equal(result.multipliers, reference.multipliers)
    assert result.history.converged == reference.history.converged
    assert result.history.iterations == reference.history.iterations


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
def nearest_rank(q: float, count: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``count`` values."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return max(1, min(count, int(math.ceil(q * count - 1e-12))))


class ExactQuantiles:
    """Exact nearest-rank quantiles over every retained observation."""

    mode = "exact"
    relative_error = 0.0

    def __init__(self) -> None:
        self.values: List[float] = []
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (the running total sums in order)."""
        self.values.append(float(value))
        self.total += float(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def maximum(self) -> float:
        return max(self.values) if self.values else 0.0

    def quantile(self, q: float) -> float:
        """Exact nearest-rank quantile.

        Raises:
            ValueError: on an empty accumulator or ``q`` outside [0, 1].
        """
        if not self.values:
            raise ValueError("quantile of an empty histogram")
        return sorted(self.values)[nearest_rank(q, len(self.values)) - 1]

    def summary(self) -> HistogramSummary:
        """The digest a sketch reports, computed exactly."""
        if not self.values:
            return HistogramSummary.empty(self.mode, self.relative_error)
        return HistogramSummary(
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            p50=self.quantile(0.50),
            p90=self.quantile(0.90),
            p99=self.quantile(0.99),
            mode=self.mode,
            relative_error=self.relative_error,
        )
