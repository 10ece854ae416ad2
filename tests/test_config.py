"""Validation tests for RouterConfig and result dataclasses."""

import json

import pytest
from hypothesis import given, strategies as st

from repro import RouterConfig
from repro.core.lagrangian import LrHistory, LrIteration
from repro.core.router import PhaseTimes


class TestRouterConfig:
    def test_defaults_valid(self):
        config = RouterConfig()
        assert config.mu_shared == 0.5
        assert config.weight_mode == "auto"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu_shared": 0.0},
            {"mu_shared": 1.5},
            {"max_reroute_iterations": -1},
            {"history_increment": -0.1},
            {"present_penalty": -1.0},
            {"ripup_factor": 0.0},
            {"weight_mode": "bogus"},
            {"timing_reroute_rounds": -1},
            {"lr_max_iterations": 0},
            {"lr_epsilon": 0.0},
            {"refine_margin_epsilon": -1e-9},
            {"history_increment": float("nan")},
            {"present_penalty": float("nan")},
            {"ripup_factor": float("nan")},
            {"lr_epsilon": float("nan")},
            {"refine_margin_epsilon": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    def test_mu_one_allowed(self):
        assert RouterConfig(mu_shared=1.0).mu_shared == 1.0

    def test_infinite_ripup_allowed(self):
        assert RouterConfig(ripup_factor=float("inf")).ripup_factor == float("inf")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wall_clock_budget_seconds": -1.0},
            {"wall_clock_budget_seconds": -1e-9},
            {"wall_clock_budget_seconds": float("-inf")},
            {"wall_clock_budget_seconds": float("nan")},
        ],
    )
    def test_invalid_resilience_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RouterConfig(**kwargs)

    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            RouterConfig(0.5)


#: Every field drawn within its validated domain, so any drawn dict
#: constructs; ``from_dict``/``to_dict`` must then round-trip exactly.
config_mappings = st.fixed_dictionaries(
    {},
    optional={
        "mu_shared": st.floats(min_value=0.01, max_value=1.0),
        "max_reroute_iterations": st.integers(min_value=0, max_value=100),
        "history_increment": st.floats(min_value=0.0, max_value=10.0),
        "present_penalty": st.floats(min_value=0.0, max_value=10.0),
        "weight_mode": st.sampled_from(["auto", "delay", "congestion"]),
        "ripup_factor": st.floats(min_value=0.1, max_value=10.0)
        | st.just(float("inf")),
        "timing_reroute_rounds": st.integers(min_value=0, max_value=5),
        "lr_max_iterations": st.integers(min_value=1, max_value=500),
        "lr_epsilon": st.floats(min_value=1e-9, max_value=1.0),
        "refine_margin_epsilon": st.floats(min_value=0.0, max_value=1.0),
        "wall_clock_budget_seconds": st.none()
        | st.floats(min_value=0.0, max_value=3600.0),
    },
)


class TestRouterConfigRoundTrip:
    @given(config_mappings)
    def test_dict_round_trip_is_exact(self, mapping):
        config = RouterConfig.from_dict(mapping)
        assert RouterConfig.from_dict(config.to_dict()) == config

    @given(config_mappings)
    def test_json_round_trip_is_exact(self, mapping):
        config = RouterConfig.from_dict(mapping)
        rehydrated = RouterConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rehydrated == config

    @given(config_mappings)
    def test_partial_mappings_fill_defaults(self, mapping):
        config = RouterConfig.from_dict(mapping)
        for name, value in mapping.items():
            assert getattr(config, name) == value

    def test_unknown_keys_listed_in_error(self):
        with pytest.raises(ValueError, match="banana, cherry"):
            RouterConfig.from_dict({"banana": 1, "cherry": 2, "mu_shared": 0.5})


class TestPhaseTimes:
    def test_total(self):
        times = PhaseTimes(1.0, 2.0, 3.0)
        assert times.total == pytest.approx(6.0)

    def test_fractions_sum_to_one(self):
        times = PhaseTimes(1.0, 2.0, 1.0)
        fractions = times.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["TA"] == pytest.approx(0.5)

    def test_empty_fractions(self):
        fractions = PhaseTimes().fractions()
        assert all(value == 0.0 for value in fractions.values())


class TestLrHistory:
    def make(self, delays):
        history = LrHistory()
        for i, delay in enumerate(delays):
            history.iterations.append(
                LrIteration(
                    iteration=i,
                    critical_delay=delay,
                    lower_bound=delay * 0.9,
                    gap=0.1,
                    acceleration=1.0,
                )
            )
        return history

    def test_best_delay(self):
        assert self.make([5.0, 3.0, 4.0]).best_delay == 3.0

    def test_final_gap(self):
        assert self.make([5.0]).final_gap == 0.1
        assert LrHistory().final_gap == float("inf")

    def test_num_iterations(self):
        assert self.make([1.0, 2.0]).num_iterations == 2

    def test_empty_history_has_no_delay_or_gap(self):
        # Both degenerate properties agree: an empty history reports inf.
        assert LrHistory().best_delay == float("inf")
        assert LrHistory().final_gap == float("inf")
