"""Streaming quantile estimation for tracer histograms.

``Tracer.observe`` used to append every observation to a raw list — fine
for one contest run, an OOM for a long-running routing service.  This
module provides the bounded-memory replacement:

* :class:`QuantileSketch` — a DDSketch-style relative-error sketch.
  Values are bucketized on a logarithmic grid with ratio
  ``gamma = (1 + alpha) / (1 - alpha)``; any quantile estimate is within
  relative error ``alpha`` of the true (nearest-rank) quantile, using
  O(number of occupied buckets) memory regardless of observation count.
  Negative values get a mirrored bucket store; values with magnitude at
  or below :data:`ZERO_EPSILON` share one zero bucket.

Every :class:`~repro.obs.tracer.Tracer` histogram is one.  Quantiles use
the **nearest-rank** definition: for ``q`` in (0, 1], the quantile is
the value at rank ``ceil(q * count)`` of the sorted observations;
``q = 0`` is the minimum.  The tests hold the sketch to an exact
accumulator that retains every observation.

A :class:`HistogramSummary` is the frozen, JSON-ready digest
(count/sum/min/max/p50/p90/p99) that
:class:`~repro.obs.tracer.TelemetrySnapshot` and the run report carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Magnitudes at or below this collapse into the sketch's zero bucket.
ZERO_EPSILON = 1e-12

#: Default relative error of the sketch, and of every tracer histogram (1%).
DEFAULT_RELATIVE_ERROR = 0.01

#: The quantiles surfaced in summaries and run reports.
SUMMARY_QUANTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


@dataclass(frozen=True)
class HistogramSummary:
    """Frozen digest of one histogram: counts, extrema and key quantiles.

    Attributes:
        count: number of observations.
        total: sum of observations.
        minimum: smallest observation (tracked exactly).
        maximum: largest observation (tracked exactly).
        p50: median estimate (nearest-rank).
        p90: 90th-percentile estimate.
        p99: 99th-percentile estimate.
        mode: the accumulator kind; ``"sketch"`` for every tracer
            histogram (the run report carries it).
        relative_error: the sketch's error bound ``alpha`` — quantile
            estimates are within ``alpha * |true|`` of the true
            nearest-rank quantile.
    """

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    mode: str
    relative_error: float

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 for an empty histogram)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (run-report ``telemetry.histograms`` entries)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "mode": self.mode,
            "relative_error": self.relative_error,
        }

    @classmethod
    def empty(cls, mode: str, relative_error: float) -> "HistogramSummary":
        """The all-zero summary of a histogram with no observations."""
        return cls(
            count=0,
            total=0.0,
            minimum=0.0,
            maximum=0.0,
            p50=0.0,
            p90=0.0,
            p99=0.0,
            mode=mode,
            relative_error=relative_error,
        )


def _nearest_rank(q: float, count: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``count`` values."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return max(1, min(count, int(math.ceil(q * count - 1e-12))))


class QuantileSketch:
    """DDSketch-style streaming quantile sketch with bounded memory.

    Args:
        relative_error: the error bound ``alpha``; any quantile estimate
            is within ``alpha * |true quantile|`` of the true
            nearest-rank quantile (values with magnitude at or below
            :data:`ZERO_EPSILON` are estimated as 0.0 exactly).

    Memory is one integer per *occupied* logarithmic bucket — for
    ``alpha = 0.01`` a value range spanning twelve decades needs at most
    ~2800 buckets, and practical tracer histograms (margins, utilization
    ratios) occupy a few dozen.  Observation count does not matter.
    """

    __slots__ = (
        "relative_error",
        "_gamma",
        "_log_gamma",
        "_pos",
        "_neg",
        "_zero",
        "_count",
        "_total",
        "_min",
        "_max",
    )

    mode = "sketch"

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.relative_error = float(relative_error)
        self._gamma = (1.0 + self.relative_error) / (1.0 - self.relative_error)
        self._log_gamma = math.log(self._gamma)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- writes --------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma - 1e-12))

    def observe(self, value: float) -> None:
        """Record one observation into its logarithmic bucket."""
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if abs(value) <= ZERO_EPSILON:
            self._zero += 1
        elif value > 0.0:
            key = self._key(value)
            self._pos[key] = self._pos.get(key, 0) + 1
        else:
            key = self._key(-value)
            self._neg[key] = self._neg.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one (must share ``gamma``).

        Raises:
            ValueError: when the sketches use different error bounds.
        """
        if abs(other._gamma - self._gamma) > 1e-12:
            raise ValueError("cannot merge sketches with different gamma")
        for key, count in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + count
        for key, count in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._total += other._total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- reads ---------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def num_buckets(self) -> int:
        """Occupied buckets — the sketch's memory footprint."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def _bucket_value(self, key: int) -> float:
        # Midpoint (in the relative sense) of bucket (gamma^(k-1), gamma^k]:
        # within relative_error of every value the bucket can hold.
        return 2.0 * self._gamma**key / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, within the relative error bound.

        Raises:
            ValueError: on an empty sketch or ``q`` outside [0, 1].
        """
        if not self._count:
            raise ValueError("quantile of an empty histogram")
        target = _nearest_rank(q, self._count)
        # Extrema are tracked exactly; answer them without bucket error.
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        cumulative = 0
        estimate: Optional[float] = None
        # Ascending value order: most-negative first (descending mirrored
        # keys), the zero bucket, then positives (ascending keys).
        for key in sorted(self._neg, reverse=True):
            cumulative += self._neg[key]
            if cumulative >= target:
                estimate = -self._bucket_value(key)
                break
        if estimate is None:
            cumulative += self._zero
            if cumulative >= target:
                estimate = 0.0
        if estimate is None:
            for key in sorted(self._pos):
                cumulative += self._pos[key]
                if cumulative >= target:
                    estimate = self._bucket_value(key)
                    break
        if estimate is None:  # pragma: no cover - counts always add up
            estimate = self._max
        # min/max are tracked exactly; clamping only ever reduces error.
        return min(max(estimate, self._min), self._max)

    def summary(self) -> HistogramSummary:
        """The JSON-ready digest of the current state."""
        if not self._count:
            return HistogramSummary.empty(self.mode, self.relative_error)
        return HistogramSummary(
            count=self._count,
            total=self._total,
            minimum=self._min,
            maximum=self._max,
            p50=self.quantile(0.50),
            p90=self.quantile(0.90),
            p99=self.quantile(0.99),
            mode=self.mode,
            relative_error=self.relative_error,
        )
