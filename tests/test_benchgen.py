"""Tests for the synthetic contest benchmark generator."""

import pytest

from repro.benchgen import (
    CONTEST_CASES,
    DEFAULT_SCALES,
    BenchmarkSpec,
    case_names,
    generate_case,
    load_case,
)


class TestSpecs:
    def test_all_ten_cases_present(self):
        assert case_names() == [f"case{i:02d}" for i in range(1, 11)]

    def test_table2_row_counts(self):
        """Spot-check published Table II statistics."""
        spec = CONTEST_CASES["case06"]
        assert spec.num_fpgas == 3
        assert spec.num_dies == 12
        assert spec.num_sll_edges == 9
        assert spec.num_tdm_edges == 14
        assert spec.num_nets == 145_000
        assert spec.num_connections == 281_000

    def test_case9_has_more_nets_than_connections(self):
        spec = CONTEST_CASES["case09"]
        assert spec.num_nets > spec.num_connections


class TestGeneration:
    def test_full_scale_statistics_match(self):
        case = load_case("case02", scale=1.0)
        stats = case.stats()
        spec = CONTEST_CASES["case02"]
        assert stats["fpgas"] == spec.num_fpgas
        assert stats["dies"] == spec.num_dies
        assert stats["sll_edges"] == spec.num_sll_edges
        assert stats["tdm_edges"] == spec.num_tdm_edges
        assert stats["nets"] == spec.num_nets
        assert stats["connections"] == spec.num_connections
        # Wire totals match to rounding (uniform split over edges).
        assert abs(stats["sll_wires"] - spec.sll_wires_total) <= spec.num_sll_edges
        assert abs(stats["tdm_wires"] - spec.tdm_wires_total) <= spec.num_tdm_edges

    def test_deterministic(self):
        a = load_case("case04")
        b = load_case("case04")
        assert [n.sink_dies for n in a.netlist.nets] == [
            n.sink_dies for n in b.netlist.nets
        ]
        assert [e.dies for e in a.system.edges] == [e.dies for e in b.system.edges]

    def test_scaling_shrinks_together(self):
        full = load_case("case05", scale=1.0)
        half = load_case("case05", scale=0.5)
        assert half.netlist.num_nets == pytest.approx(full.netlist.num_nets / 2, rel=0.01)
        assert half.system.total_tdm_wires() == pytest.approx(
            full.system.total_tdm_wires() / 2, rel=0.1
        )

    def test_case_number_aliases(self):
        assert load_case("3").spec.name == "case03"
        assert load_case("case03").spec.name == "case03"

    def test_unknown_case_rejected(self):
        with pytest.raises(KeyError):
            load_case("case99")
        with pytest.raises(KeyError):
            load_case("nonsense")

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            load_case("case01", scale=0.0)
        with pytest.raises(ValueError):
            load_case("case01", scale=1.5)

    def test_system_is_connected_and_valid(self):
        # Construction itself validates connectivity; touching every case
        # at its default scale must not raise.
        for name in case_names():
            if DEFAULT_SCALES[name] < 1.0 and name in ("case06", "case09", "case10"):
                continue  # covered by the integration tests, keep this fast
            case = load_case(name)
            assert case.system.num_dies == case.spec.num_dies

    def test_tdm_plan_has_no_duplicate_pairs(self):
        case = load_case("case09", scale=0.05)
        pairs = [edge.dies for edge in case.system.tdm_edges]
        assert len(pairs) == len(set(pairs))

    def test_netlist_pins_within_system(self):
        case = load_case("case07", scale=0.05)
        case.netlist.validate_against(case.system.num_dies)


class TestFanoutPlan:
    def test_exact_connection_budget(self):
        spec = BenchmarkSpec(
            "tiny",
            num_fpgas=2,
            sll_wires_total=600,
            num_tdm_edges=2,
            tdm_wires_total=40,
            num_nets=50,
            num_connections=120,
            seed=5,
        )
        case = generate_case(spec)
        assert case.netlist.num_nets == 50
        # Dedup of random duplicate sinks can only lower the count, and the
        # generator samples distinct sinks, so the budget is exact.
        assert case.netlist.num_connections == 120

    def test_more_nets_than_connections(self):
        spec = BenchmarkSpec(
            "sparse",
            num_fpgas=2,
            sll_wires_total=600,
            num_tdm_edges=2,
            tdm_wires_total=40,
            num_nets=100,
            num_connections=30,
            seed=5,
        )
        case = generate_case(spec)
        assert case.netlist.num_nets == 100
        assert case.netlist.num_connections == 30
        intra = sum(1 for net in case.netlist.nets if not net.is_die_crossing)
        assert intra == 70

    def test_connection_cap_by_die_count(self):
        # 8 dies -> at most 7 crossing sinks per net; an impossible budget
        # saturates gracefully instead of looping forever.
        spec = BenchmarkSpec(
            "dense",
            num_fpgas=2,
            sll_wires_total=600,
            num_tdm_edges=2,
            tdm_wires_total=40,
            num_nets=3,
            num_connections=100,
            seed=5,
        )
        case = generate_case(spec)
        assert case.netlist.num_connections == 21  # 3 nets x 7 sinks
