"""Tests for the observability layer (repro.obs) and its router wiring."""

from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from repro import SynergisticRouter
from repro.obs import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Tracer,
    build_run_report,
    configure_logging,
    get_logger,
    read_jsonl,
    validate_run_report,
    write_run_report,
)


class TestSpans:
    def test_span_records_timer(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        assert tracer.timer("work") >= 0.0
        assert tracer.snapshot().num_spans == 1

    def test_span_duration_is_monotonic(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            time.sleep(0.01)
        assert outer.duration >= 0.01
        assert tracer.timer("outer") == pytest.approx(outer.duration)

    def test_spans_nest_and_parent_is_recorded(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = sink.of_type("span")
        # Inner closes first, so it is emitted first.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == "outer"
        assert spans[1]["parent"] is None
        # The outer span covers the inner one.
        assert spans[1]["dur"] >= spans[0]["dur"]

    def test_threads_keep_their_own_span_stacks(self):
        """Spans opened concurrently on one tracer nest per thread."""
        sink = InMemorySink()
        tracer = Tracer(sink)
        start = threading.Barrier(2, timeout=10)
        leftover = {}

        def nest(label):
            start.wait()
            for _ in range(200):
                with tracer.span(f"outer.{label}"):
                    time.sleep(0.0005)
                    with tracer.span(f"inner.{label}"):
                        time.sleep(0.0005)
            leftover[label] = list(tracer._span_stack())

        threads = [threading.Thread(target=nest, args=(c,)) for c in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        parents = {}
        for span in sink.of_type("span"):
            parents.setdefault(span["name"], []).append(span["parent"])
        for label in "ab":
            assert parents[f"outer.{label}"] == [None] * 200
            assert parents[f"inner.{label}"] == [f"outer.{label}"] * 200
        assert leftover == {"a": [], "b": []}

    def test_same_name_accumulates(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("phase.x"):
                pass
        assert tracer.snapshot().num_spans == 3
        assert tracer.timer("phase.x") >= 0.0

    def test_span_attrs_are_emitted(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("map", tasks=7):
            pass
        assert sink.of_type("span")[0]["tasks"] == 7


class TestCountersGaugesHistograms:
    def test_counter_accumulates(self):
        tracer = Tracer()
        tracer.add("hits")
        tracer.add("hits", 4)
        assert tracer.counter("hits") == 5
        assert tracer.counter("misses") == 0

    def test_gauge_keeps_last_value(self):
        tracer = Tracer()
        tracer.gauge("overflow", 12.0)
        tracer.gauge("overflow", 3.0)
        assert tracer.gauge_value("overflow") == 3.0

    def test_observe_events_keep_raw_values(self):
        # The sketch keeps no raw values; a sink sees every observation.
        sink = InMemorySink()
        tracer = Tracer(sink)
        for value in (0.5, 1.5, 0.25):
            tracer.observe("margin", value)
        observed = [e["value"] for e in sink.of_type("observe") if e["name"] == "margin"]
        assert observed == [0.5, 1.5, 0.25]
        assert tracer.quantile("margin", 1.0) == 1.5

    def test_sketch_mode_is_default_and_bounds_memory(self):
        tracer = Tracer()
        for i in range(10_000):
            tracer.observe("margin", 1.0 + (i % 100) / 100.0)
        summary = tracer.histogram_summary("margin")
        assert summary.count == 10_000
        # Memory is buckets, not observations.
        assert tracer._histograms["margin"].num_buckets < 200
        assert summary.p50 == pytest.approx(1.5, rel=0.02)
        assert summary.maximum == 1.99
        assert summary.mode == "sketch"
        assert tracer.histogram_summary("never.observed") is None

    def test_abandoned_span_is_recorded_with_error_flag(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        spans = sink.of_type("span")
        assert [s["name"] for s in spans] == ["doomed"]
        assert spans[0]["error"] is True
        # The timer still accumulated the partial duration.
        assert tracer.timer("doomed") >= 0.0

    def test_snapshot_is_a_copy(self):
        tracer = Tracer()
        tracer.add("n", 1)
        snap = tracer.snapshot()
        tracer.add("n", 1)
        assert snap.counters["n"] == 1
        assert tracer.counter("n") == 2


class TestNullSink:
    def test_disabled_tracer_emits_nothing(self):
        tracer = Tracer()
        assert tracer.enabled is False
        tracer.event("lr.iteration", gap=0.1)
        tracer.add("c", 3)
        tracer.gauge("g", 1.0)
        with tracer.span("s"):
            pass
        assert tracer.snapshot().num_events == 0
        # Aggregates still accumulate (they feed the run report).
        assert tracer.counter("c") == 3

    def test_disabled_event_overhead_is_tiny(self):
        """200k disabled events must be near-free (one attribute check)."""
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(200_000):
            if tracer.enabled:
                tracer.event("hot", value=1)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"disabled events took {elapsed:.3f}s"

    def test_instrumented_route_with_null_sink_stays_fast(
        self, two_fpga_system, small_netlist
    ):
        """Overhead smoke test: a NullSink run completes well within the
        envelope of the uninstrumented seed (which took ~0.1s here)."""
        start = time.perf_counter()
        result = SynergisticRouter(two_fpga_system, small_netlist).route()
        elapsed = time.perf_counter() - start
        assert result.solution.is_complete
        assert elapsed < 5.0, f"instrumented route took {elapsed:.2f}s"


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        tracer.add("count", 2)
        tracer.event("it", gap=0.5, iteration=3)
        with tracer.span("phase"):
            pass
        sink.close()
        events = read_jsonl(path)
        assert len(events) == 3
        by_type = {e["type"] for e in events}
        assert by_type == {"counter", "event", "span"}
        it = next(e for e in events if e["type"] == "event")
        assert it["gap"] == 0.5 and it["iteration"] == 3

    def test_close_is_idempotent_and_emit_after_close_is_safe(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"type": "event", "name": "x"})
        sink.close()
        sink.close()
        sink.emit({"type": "event", "name": "late"})  # silently dropped
        assert len(read_jsonl(tmp_path / "t.jsonl")) == 1

    def test_creates_parent_directories(self, tmp_path):
        sink = JsonlSink(tmp_path / "deep" / "dir" / "t.jsonl")
        sink.close()
        assert (tmp_path / "deep" / "dir" / "t.jsonl").exists()

    def test_flush_makes_events_durable_without_closing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.emit({"type": "event", "name": "x"})
        sink.flush()
        assert len(read_jsonl(path)) == 1
        sink.emit({"type": "event", "name": "y"})  # still writable
        sink.close()
        sink.flush()  # no-op after close
        assert len(read_jsonl(path)) == 2

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                tracer = Tracer(sink)
                with pytest.raises(RuntimeError):
                    with tracer.span("dies"):
                        raise RuntimeError("boom")
                raise RuntimeError("outer")
        # The crashed run still left a durable, parseable trace with the
        # abandoned span flagged.
        events = read_jsonl(path)
        assert events and events[0]["name"] == "dies"
        assert events[0]["error"] is True


class TestRouterTelemetry:
    @pytest.fixture()
    def traced_run(self, two_fpga_system, small_netlist):
        sink = InMemorySink()
        tracer = Tracer(sink)
        result = SynergisticRouter(
            two_fpga_system, small_netlist, tracer=tracer
        ).route()
        return result, tracer, sink

    def test_phase_times_is_a_view_over_spans(self, traced_run):
        result, tracer, _ = traced_run
        times = result.phase_times
        telemetry = result.telemetry
        assert times.initial_routing == pytest.approx(
            telemetry.timers["phase.initial_routing"]
        )
        assert times.tdm_assignment == pytest.approx(
            telemetry.timers.get("phase.tdm_assignment", 0.0)
        )
        assert times.legalization_wire_assignment == pytest.approx(
            telemetry.timers.get("phase.legalization_wire_assignment", 0.0)
        )
        assert times.total > 0
        assert sum(times.fractions().values()) == pytest.approx(1.0)

    def test_per_iteration_event_streams(self, traced_run):
        result, _, sink = traced_run
        names = {e["name"] for e in sink.of_type("event")}
        assert "ir.iteration" in names
        assert "lr.iteration" in names
        lr_events = sink.named("lr.iteration")
        assert all("gap" in e and "lambda_norm" in e for e in lr_events)
        assert [e["iteration"] for e in lr_events[:3]] == [0, 1, 2]
        ir_events = sink.named("ir.iteration")
        assert all("overflow" in e for e in ir_events)

    def test_counters_cover_every_layer(self, traced_run):
        result, _, _ = traced_run
        counters = result.telemetry.counters
        assert counters["dijkstra.pops"] > 0
        assert counters["ir.connections_routed"] == (
            result.initial_stats.connections_routed
        )
        assert counters["lr.iterations"] > 0
        assert counters["wire_assignment.nets_assigned"] > 0
        assert "legalization.refinement_steps" in counters

    def test_wire_utilization_histograms_are_bounded(self, traced_run):
        result, _, _ = traced_run
        histograms = result.telemetry.histograms
        for direction in (0, 1):
            summary = histograms.get(f"wire_assignment.utilization.dir{direction}")
            if summary is not None and summary.count:
                assert 0.0 < summary.minimum <= summary.maximum <= 1.0
                assert summary.minimum <= summary.p50 <= summary.p99
        margin = histograms["legalization.margin"]
        assert margin.minimum >= -1e-9
        assert margin.count > 0

    def test_repeated_route_on_one_tracer_isolates_phase_times(
        self, two_fpga_system, small_netlist
    ):
        tracer = Tracer()
        router = SynergisticRouter(two_fpga_system, small_netlist, tracer=tracer)
        first = router.route()
        second = router.route()
        # The tracer accumulates across runs; each PhaseTimes covers one.
        assert tracer.timer("phase.initial_routing") == pytest.approx(
            first.phase_times.initial_routing
            + second.phase_times.initial_routing
        )


class TestRunReport:
    def test_report_round_trip_and_schema(self, traced_result_report, tmp_path):
        result = traced_result_report
        path = tmp_path / "report.json"
        doc = write_run_report(path, result, case={"name": "unit"})
        assert validate_run_report(doc) == []
        loaded = json.loads(path.read_text())
        assert validate_run_report(loaded) == []
        assert loaded["schema_version"] == 3
        assert "parallel" not in loaded
        assert loaded["case"]["name"] == "unit"
        telemetry = loaded["telemetry"]
        assert isinstance(telemetry["rates"], dict)
        for digest in telemetry["histograms"].values():
            assert {"count", "p50", "p90", "p99", "max"} <= set(digest)

    def test_report_surfaces_cache_rates(self, traced_result_report):
        doc = build_run_report(traced_result_report)
        rates = doc["telemetry"]["rates"]
        counters = doc["telemetry"]["counters"]
        if counters.get("ir.reroutes", 0) or counters.get(
            "ir.connections_routed", 0
        ):
            assert "ir.reroute_rate" in rates
        assert all(0.0 <= value <= 1.0 for value in rates.values())

    @pytest.fixture()
    def traced_result_report(self, two_fpga_system, small_netlist):
        tracer = Tracer(InMemorySink())
        return SynergisticRouter(
            two_fpga_system, small_netlist, tracer=tracer
        ).route()

    def test_phase_totals_match_phase_times(self, traced_result_report):
        result = traced_result_report
        doc = build_run_report(result)
        times = doc["phase_times"]
        assert times["initial_routing"] == pytest.approx(
            result.phase_times.initial_routing
        )
        assert times["total"] == pytest.approx(result.phase_times.total)

    def test_lr_series_is_serialized(self, traced_result_report):
        doc = build_run_report(traced_result_report)
        assert doc["lr"] is not None
        assert len(doc["lr"]["iterations"]) == doc["lr"]["num_iterations"]
        assert all("gap" in row for row in doc["lr"]["iterations"])

    def test_validator_rejects_corrupt_documents(self, traced_result_report):
        doc = build_run_report(traced_result_report)
        doc["schema_version"] = 99
        doc["phase_times"]["total"] = 1e9
        del doc["result"]
        problems = validate_run_report(doc)
        assert len(problems) >= 3
        assert validate_run_report("not a dict") == ["document is not an object"]

    def test_report_tolerates_minimal_results(self):
        """Baselines produce results without telemetry/stats; still valid."""

        class MinimalTimes:
            initial_routing = 0.1
            tdm_assignment = 0.0
            legalization_wire_assignment = 0.0
            total = 0.1

            def fractions(self):
                return {"IR": 1.0, "TA": 0.0, "LG & WA": 0.0}

        class MinimalResult:
            critical_delay = 5.0
            conflict_count = 0
            phase_times = MinimalTimes()

        doc = build_run_report(MinimalResult())
        assert validate_run_report(doc) == []
        assert doc["telemetry"] is None and doc["lr"] is None


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("core.router").name == "repro.core.router"
        assert get_logger("repro.core.router").name == "repro.core.router"

    def test_configure_logging_emits_and_replaces_handler(self):
        import io

        stream = io.StringIO()
        handler = configure_logging("debug", stream=stream)
        try:
            get_logger("test").info("hello from the obs layer")
            assert "hello from the obs layer" in stream.getvalue()
            assert "repro.test" in stream.getvalue()
            # Re-configuring must not duplicate lines.
            stream2 = io.StringIO()
            configure_logging("info", stream=stream2)
            get_logger("test").info("second")
            assert "second" not in stream.getvalue()
            assert stream2.getvalue().count("second") == 1
        finally:
            root = logging.getLogger("repro")
            for h in list(root.handlers):
                if not isinstance(h, logging.NullHandler):
                    root.removeHandler(h)
            root.setLevel(logging.NOTSET)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("verbose")


class TestBenchResultRecording:
    def test_write_bench_results(self, tmp_path):
        from benchmarks.conftest import write_bench_results

        rows = {
            "table3": [
                {
                    "case": "case01",
                    "router": "ours",
                    "wall_time_s": 0.5,
                    "critical_delay": 8.0,
                    "conflicts": 0,
                    "lr_iterations": 12,
                }
            ]
        }
        written = write_bench_results(tmp_path, rows)
        assert [p.name for p in written] == ["BENCH_table3.json"]
        payload = json.loads(written[0].read_text())
        assert payload["schema_version"] == 1
        assert payload["results"][0]["case"] == "case01"
        assert payload["results"][0]["conflicts"] == 0

    def test_nothing_recorded_writes_nothing(self, tmp_path):
        from benchmarks.conftest import write_bench_results

        assert write_bench_results(tmp_path, {}) == []
        assert list(tmp_path.glob("BENCH_*.json")) == []
