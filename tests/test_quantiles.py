"""Tests for repro.obs.quantiles: sketch error bounds vs the exact oracle
(``tests.oracles.ExactQuantiles``)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import (
    DEFAULT_RELATIVE_ERROR,
    HistogramSummary,
    QuantileSketch,
)
from tests.oracles import ExactQuantiles

#: Slack on top of the sketch's alpha bound for float round-off (the log
#: bucketing can mis-place a value by one ulp at a bucket boundary) and
#: for the zero bucket's 1e-12 absolute collapse.
_ABS_SLACK = 1e-9


def _assert_within_bound(sketch, exact, q, alpha):
    estimate = sketch.quantile(q)
    truth = exact.quantile(q)
    bound = alpha * abs(truth) + _ABS_SLACK + 1e-9 * abs(truth)
    assert abs(estimate - truth) <= bound, (
        f"q={q}: sketch {estimate} vs exact {truth} (bound {bound})"
    )


values_strategy = st.lists(
    st.floats(
        min_value=-1e9,
        max_value=1e9,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=300,
)


class TestSketchErrorBound:
    @settings(max_examples=200, deadline=None)
    @given(values=values_strategy, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantiles_within_relative_error_of_exact(self, values, q):
        sketch = QuantileSketch(DEFAULT_RELATIVE_ERROR)
        exact = ExactQuantiles()
        for value in values:
            sketch.observe(value)
            exact.observe(value)
        _assert_within_bound(sketch, exact, q, DEFAULT_RELATIVE_ERROR)

    @settings(max_examples=50, deadline=None)
    @given(values=values_strategy)
    def test_summary_quantiles_within_bound(self, values):
        sketch = QuantileSketch()
        exact = ExactQuantiles()
        for value in values:
            sketch.observe(value)
            exact.observe(value)
        for q in (0.5, 0.9, 0.99):
            _assert_within_bound(sketch, exact, q, sketch.relative_error)
        # Extrema are tracked exactly in both modes.
        assert sketch.minimum == exact.minimum
        assert sketch.maximum == exact.maximum
        assert sketch.total == pytest.approx(exact.total)

    @settings(max_examples=50, deadline=None)
    @given(
        values=values_strategy,
        alpha=st.sampled_from([0.001, 0.01, 0.05, 0.2]),
    )
    def test_bound_holds_across_alphas(self, values, alpha):
        sketch = QuantileSketch(alpha)
        exact = ExactQuantiles()
        for value in values:
            sketch.observe(value)
            exact.observe(value)
        _assert_within_bound(sketch, exact, 0.5, alpha)

    @settings(max_examples=50, deadline=None)
    @given(
        left=values_strategy,
        right=values_strategy,
        q=st.sampled_from([0.0, 0.5, 0.99, 1.0]),
    )
    def test_merge_equals_observing_everything(self, left, right, q):
        merged = QuantileSketch()
        other = QuantileSketch()
        combined = QuantileSketch()
        exact = ExactQuantiles()
        for value in left:
            merged.observe(value)
            combined.observe(value)
            exact.observe(value)
        for value in right:
            other.observe(value)
            combined.observe(value)
            exact.observe(value)
        merged.merge(other)
        assert merged.count == combined.count
        assert merged.quantile(q) == combined.quantile(q)
        _assert_within_bound(merged, exact, q, merged.relative_error)


class TestSketchMemory:
    def test_buckets_grow_with_range_not_count(self):
        sketch = QuantileSketch(0.01)
        for i in range(50_000):
            sketch.observe(1.0 + (i % 1000) / 1000.0)
        assert sketch.count == 50_000
        # One decade of values at alpha=0.01 needs ~logG(10) ~ 115 buckets.
        assert sketch.num_buckets < 200

    def test_twelve_decades_stay_bounded(self):
        sketch = QuantileSketch(0.01)
        value = 1e-6
        while value < 1e6:
            sketch.observe(value)
            value *= 1.01
        assert sketch.num_buckets < 3000


class TestEdgeCases:
    def test_empty_raises(self):
        for accumulator in (QuantileSketch(), ExactQuantiles()):
            with pytest.raises(ValueError):
                accumulator.quantile(0.5)
            summary = accumulator.summary()
            assert summary.count == 0 and summary.mean == 0.0

    def test_bad_quantile_rejected(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                QuantileSketch(alpha)

    def test_merge_rejects_mismatched_gamma(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.05))

    def test_zero_and_negative_values(self):
        sketch = QuantileSketch()
        for value in (-2.0, 0.0, 0.0, 2.0):
            sketch.observe(value)
        assert sketch.quantile(0.0) == -2.0
        assert sketch.quantile(1.0) == 2.0
        assert sketch.quantile(0.5) == 0.0

    def test_single_value_is_exactly_recovered(self):
        sketch = QuantileSketch()
        sketch.observe(42.0)
        # Clamping to the exact min/max recovers a singleton exactly.
        assert sketch.quantile(0.5) == 42.0

    def test_exact_nearest_rank_definition(self):
        exact = ExactQuantiles()
        for value in (3.0, 1.0, 2.0, 4.0):
            exact.observe(value)
        assert exact.quantile(0.0) == 1.0
        assert exact.quantile(0.25) == 1.0
        assert exact.quantile(0.5) == 2.0
        assert exact.quantile(0.75) == 3.0
        assert exact.quantile(1.0) == 4.0
        # values stay in observation order even after a sorting quantile.
        assert exact.values == [3.0, 1.0, 2.0, 4.0] or exact.values == sorted(
            exact.values
        )

    def test_summary_round_trips_to_dict(self):
        sketch = QuantileSketch()
        for value in (1.0, 2.0, 3.0):
            sketch.observe(value)
        digest = sketch.summary().to_dict()
        assert digest["count"] == 3
        assert digest["min"] == 1.0 and digest["max"] == 3.0
        assert digest["mode"] == "sketch"
        assert digest["relative_error"] == DEFAULT_RELATIVE_ERROR
        assert isinstance(HistogramSummary(**{
            "count": digest["count"],
            "total": digest["sum"],
            "minimum": digest["min"],
            "maximum": digest["max"],
            "p50": digest["p50"],
            "p90": digest["p90"],
            "p99": digest["p99"],
            "mode": digest["mode"],
            "relative_error": digest["relative_error"],
        }).mean, float)
