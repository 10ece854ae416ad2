"""Tests for repro.obs.sentinel and the `repro perf` CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import perf_cli
from repro.obs.sentinel import (
    check_regressions,
    extract_metrics,
    load_metrics,
)

REPO_ROOT = Path(__file__).parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_phase2.json"


def _bench(rows):
    return {"schema_version": 1, "bench": "unit", "scale": None, "results": rows}


BASELINE = _bench(
    [
        {"case": "case05", "wall_time_fast_s": 0.10, "wall_time_reference_s": 0.30},
        {"case": "case06", "wall_time_fast_s": 0.50, "speedup": 1.4},
    ]
)


class TestExtraction:
    def test_bench_trajectory_metrics(self):
        metrics = extract_metrics(BASELINE)
        assert metrics[("case05", "wall_time_fast_s")] == [0.10]
        assert metrics[("case05", "wall_time_reference_s")] == [0.30]
        # Non-wall-time fields (speedup) are not comparison metrics.
        assert ("case06", "speedup") not in metrics

    def test_repeated_rows_accumulate_samples(self):
        doc = _bench(
            [
                {"case": "case05", "wall_time_fast_s": 0.10},
                {"case": "case05", "wall_time_fast_s": 0.12},
            ]
        )
        assert extract_metrics(doc)[("case05", "wall_time_fast_s")] == [0.10, 0.12]

    def test_run_report_metrics(self):
        report = {
            "kind": "repro.run_report",
            "case": {"name": "case05"},
            "phase_times": {
                "initial_routing": 0.2,
                "tdm_assignment": 0.3,
                "total": 0.5,
                "fractions": {"IR": 0.4},
            },
        }
        metrics = extract_metrics(report)
        assert metrics[("case05", "phase.total")] == [0.5]
        assert ("case05", "phase.fractions") not in metrics

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            extract_metrics({"hello": "world"})

    def test_committed_baseline_is_loadable(self):
        metrics = load_metrics(COMMITTED_BENCH)
        assert any(case == "case05" for case, _ in metrics)


class TestCheckRegressions:
    def test_identical_documents_pass(self):
        report = check_regressions(BASELINE, BASELINE)
        assert report.ok
        assert report.compared > 0
        assert report.regressions == [] and report.improvements == []

    def test_committed_baseline_vs_itself_is_clean(self):
        report = check_regressions(COMMITTED_BENCH, COMMITTED_BENCH)
        assert report.ok and report.compared > 0

    def test_threefold_slowdown_is_flagged(self):
        current = _bench(
            [{"case": "case05", "wall_time_fast_s": 0.30, "wall_time_reference_s": 0.31}]
        )
        report = check_regressions(BASELINE, current)
        assert not report.ok
        flagged = {(f.case, f.metric) for f in report.regressions}
        assert ("case05", "wall_time_fast_s") in flagged
        # 0.30 -> 0.31 is within tolerance.
        assert ("case05", "wall_time_reference_s") not in flagged
        finding = report.regressions[0]
        assert finding.ratio == pytest.approx(3.0)
        assert "case05" in finding.describe()

    def test_speedup_is_reported_as_improvement(self):
        current = _bench(
            [
                {
                    "case": "case05",
                    "wall_time_fast_s": 0.02,
                    "wall_time_reference_s": 0.30,
                },
                {"case": "case06", "wall_time_fast_s": 0.50},
            ]
        )
        report = check_regressions(BASELINE, current)
        assert report.ok
        assert [f.metric for f in report.improvements] == ["wall_time_fast_s"]

    def test_noisy_baseline_widens_threshold(self):
        noisy = _bench(
            [
                {"case": "case05", "wall_time_fast_s": 0.05},
                {"case": "case05", "wall_time_fast_s": 0.15},
            ]
        )
        # Mean 0.10, spread (0.15-0.05)/0.10 = 1.0 -> threshold 3.0x.
        current = _bench([{"case": "case05", "wall_time_fast_s": 0.25}])
        assert check_regressions(noisy, current).ok
        worse = _bench([{"case": "case05", "wall_time_fast_s": 0.45}])
        assert not check_regressions(noisy, worse).ok

    def test_min_seconds_floor_skips_tiny_timings(self):
        tiny_base = _bench([{"case": "c", "wall_time_fast_s": 0.0001}])
        tiny_curr = _bench([{"case": "c", "wall_time_fast_s": 0.004}])
        report = check_regressions(tiny_base, tiny_curr)
        assert report.ok and report.compared == 0 and report.skipped == 1

    def test_disjoint_metrics_compare_nothing(self):
        other = _bench([{"case": "case99", "wall_time_fast_s": 1.0}])
        report = check_regressions(BASELINE, other)
        assert report.compared == 0
        # Every baseline metric went unmeasured, so nothing is guarded.
        assert not report.ok
        assert report.missing == sorted(extract_metrics(BASELINE))

    def test_missing_metric_fails_and_is_listed(self):
        current = _bench(
            [
                {"case": "case05", "wall_time_fast_s": 0.10},
                {"case": "case06", "wall_time_fast_s": 0.50},
            ]
        )
        report = check_regressions(BASELINE, current)
        assert report.regressions == []
        assert not report.ok
        assert report.missing == [("case05", "wall_time_reference_s")]
        assert report.to_dict()["missing"] == [
            {"case": "case05", "metric": "wall_time_reference_s"}
        ]
        # A metric only the current document has is not missing.
        assert check_regressions(current, BASELINE).ok

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            check_regressions(BASELINE, BASELINE, tolerance=1.0)
        with pytest.raises(ValueError):
            check_regressions(BASELINE, BASELINE, noise_floor=-0.1)

    def test_report_to_dict(self):
        doc = check_regressions(BASELINE, BASELINE).to_dict()
        assert doc["kind"] == "repro.perf_sentinel"
        assert doc["ok"] is True
        assert isinstance(doc["regressions"], list)


class TestPerfCli:
    @pytest.fixture()
    def files(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(BASELINE))
        slow = tmp_path / "slow.json"
        slow_doc = json.loads(json.dumps(BASELINE))
        slow_doc["results"][0]["wall_time_fast_s"] = 0.40
        slow.write_text(json.dumps(slow_doc))
        return base, slow

    def test_clean_comparison_exits_zero(self, files, capsys):
        base, _ = files
        assert perf_cli.main([str(base), str(base)]) == 0
        out = capsys.readouterr().out
        assert "perf sentinel: OK" in out

    def test_regression_exits_one(self, files, capsys):
        base, slow = files
        assert perf_cli.main([str(base), str(slow)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "perf sentinel: FAIL" in out

    def test_missing_metric_exits_one(self, files, tmp_path, capsys):
        base, _ = files
        partial = tmp_path / "partial.json"
        partial.write_text(
            json.dumps(_bench([{"case": "case05", "wall_time_fast_s": 0.10}]))
        )
        assert perf_cli.main([str(base), str(partial)]) == 1
        out = capsys.readouterr().out
        assert "MISSING     case06/wall_time_fast_s" in out
        assert "perf sentinel: FAIL" in out

    def test_tolerance_flag_loosens(self, files):
        base, slow = files
        assert perf_cli.main([str(base), str(slow), "--tolerance", "5.0"]) == 0

    def test_json_and_output_file(self, files, tmp_path, capsys):
        base, slow = files
        out_path = tmp_path / "sentinel.json"
        code = perf_cli.main(
            [str(base), str(slow), "--json", "--output", str(out_path)]
        )
        assert code == 1
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_path.read_text())
        assert stdout_doc == file_doc
        assert file_doc["ok"] is False

    def test_missing_file_exits_two(self, tmp_path, capsys):
        present = tmp_path / "p.json"
        present.write_text(json.dumps(BASELINE))
        assert perf_cli.main([str(present), str(tmp_path / "absent.json")]) == 2

    def test_malformed_document_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no": "shape"}')
        assert perf_cli.main([str(bad), str(bad)]) == 2
