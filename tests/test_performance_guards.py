"""Loose performance guards: runtimes must stay in their order of magnitude.

Budgets are 5-10x the observed times on a 1-core container, so these only
trip on genuine complexity regressions (an accidental O(n^2) in a hot
loop), never on machine noise.  The sentinel guards additionally hold the
committed ``BENCH_*.json`` trajectories to the perf-regression sentinel's
contract (``make perf`` runs the same comparison on fresh timings).
"""

import json
import time
from pathlib import Path

import pytest

from repro import DelayModel, RouterConfig, SynergisticRouter
from repro.benchgen import load_case
from repro.core.incidence import TdmIncidence
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class TestRoutingBudgets:
    def test_case05_routes_fast(self):
        case = load_case("case05")  # 5k connections, full scale
        result, elapsed = timed(
            lambda: SynergisticRouter(case.system, case.netlist).route()
        )
        assert result.solution.is_complete
        # ~0.09s with the phase I kernel (was ~0.19s before it).
        assert elapsed < 2.0, f"case05 took {elapsed:.1f}s (budget 2s)"

    def test_case07_routes_fast(self):
        case = load_case("case07")  # ~15k connections
        result, elapsed = timed(
            lambda: SynergisticRouter(case.system, case.netlist).route()
        )
        assert result.solution.is_complete
        # ~0.35s with the phase I kernel (was ~0.65s before it).
        assert elapsed < 5.0, f"case07 took {elapsed:.1f}s (budget 5s)"

    def test_generation_is_fast(self):
        _, elapsed = timed(lambda: load_case("case08"))
        assert elapsed < 15.0, f"generation took {elapsed:.1f}s (budget 15s)"

    def test_phase2_is_minor_share(self):
        """Phase II must stay the minor runtime share (Fig. 5(b) shape)."""
        case = load_case("case06")
        result = SynergisticRouter(case.system, case.netlist).route()
        fractions = result.phase_times.fractions()
        assert fractions["IR"] >= 0.3

    def test_phase2_pipeline_is_fast(self):
        """The vectorized phase II pipeline on the largest contest case."""
        case = load_case("case06")  # ~18k pairs
        model = DelayModel()
        config = RouterConfig()
        solution = InitialRouter(case.system, case.netlist).route()

        def pipeline():
            inc = TdmIncidence(case.system, case.netlist, solution, model)
            lr = LagrangianTdmAssigner(inc, config).solve()
            legal = TdmLegalizer(inc, config).legalize(lr.ratios)
            WireAssigner(inc, config).assign(
                solution, legal.ratios, legal.wire_budgets, legal.criticality
            )

        _, elapsed = timed(pipeline)
        # ~0.09s with the vectorized kernel (was ~0.15s before it).
        assert elapsed < 1.0, f"phase II took {elapsed:.2f}s (budget 1s)"


class TestPerfSentinelGuards:
    """The committed trajectories and the sentinel wiring stay honest."""

    BASELINE = Path(__file__).parent.parent / "BENCH_phase2.json"

    def test_committed_baseline_passes_its_own_sentinel(self):
        from repro.obs.sentinel import check_regressions

        report = check_regressions(self.BASELINE, self.BASELINE)
        assert report.ok and report.compared > 0

    def test_sentinel_catches_synthetic_slowdown(self, tmp_path):
        from repro.obs.sentinel import check_regressions

        doc = json.loads(self.BASELINE.read_text())
        for row in doc["results"]:
            for key in list(row):
                if key.startswith("wall_time") and key.endswith("_s"):
                    row[key] = row[key] * 3.0
        slow = tmp_path / "BENCH_phase2.json"
        slow.write_text(json.dumps(doc))
        report = check_regressions(self.BASELINE, slow)
        assert not report.ok
        assert any(f.ratio == pytest.approx(3.0) for f in report.regressions)

    def test_sentinel_names_a_dropped_row(self, tmp_path):
        """A committed row that no benchmark writes any more fails."""
        from repro.obs.sentinel import check_regressions

        doc = json.loads(self.BASELINE.read_text())
        dropped = doc["results"].pop()
        current = tmp_path / "BENCH_phase2.json"
        current.write_text(json.dumps(doc))
        report = check_regressions(self.BASELINE, current)
        assert not report.ok
        assert report.missing == sorted(
            (dropped["case"], name)
            for name in dropped
            if name.startswith("wall_time") and name.endswith("_s")
        )

    def test_bench_conftest_sentinel_hook(self, tmp_path):
        from benchmarks.conftest import run_perf_sentinel

        fresh = tmp_path / "out" / "BENCH_phase2.json"
        fresh.parent.mkdir()
        fresh.write_text(self.BASELINE.read_text())
        sentinel_path = run_perf_sentinel(self.BASELINE.parent, [fresh])
        assert sentinel_path is not None
        doc = json.loads(sentinel_path.read_text())
        assert doc["benches"]["BENCH_phase2.json"]["ok"] is True
        # No matching baseline -> no sentinel document.
        lonely = tmp_path / "out" / "BENCH_unknown.json"
        lonely.write_text("{}")
        assert run_perf_sentinel(self.BASELINE.parent, [lonely]) is None
