"""Tests for repro.obs.profile and the `repro trace` CLI.

The golden fixture ``tests/data/golden_trace.jsonl`` is a committed
trace of a full ``repro route --contest-case case02`` run; hand-built
event lists pin the arithmetic exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import trace_cli
from repro.obs import InMemorySink, Tracer
from repro.obs.profile import (
    UNTRACKED,
    TraceProfile,
    build_span_tree,
    derive_rates,
    load_profile,
)

GOLDEN = Path(__file__).parent / "data" / "golden_trace.jsonl"


def _span(name, t, dur, parent=None, **attrs):
    event = {"type": "span", "name": name, "t": t, "dur": dur, "parent": parent}
    event.update(attrs)
    return event


#: A synthetic two-phase trace with known arithmetic.  Close order:
#: children before parents, as the tracer emits them.
HAND_TRACE = [
    _span("ir.prepare", 0.1, 0.2, parent="phase.initial_routing"),
    _span("ir.negotiation", 0.35, 0.5, parent="phase.initial_routing"),
    _span("phase.initial_routing", 0.0, 1.0),
    {
        "type": "counter",
        "name": "ir.reroutes",
        "inc": 3,
        "total": 3,
        "t": 1.1,
    },
    {
        "type": "counter",
        "name": "ir.connections_routed",
        "inc": 1,
        "total": 1,
        "t": 1.15,
    },
    {"type": "observe", "name": "legalization.margin", "value": 5.0, "t": 1.2},
    {"type": "observe", "name": "legalization.margin", "value": 7.0, "t": 1.25},
    _span("lr.solve", 1.55, 0.4, parent="phase.tdm_assignment"),
    _span("phase.tdm_assignment", 1.5, 0.5, error=True),
    {"type": "event", "name": "lr.iteration", "t": 1.6, "gap": 0.5},
]
# Wall time: t0=0.0 (first span start) .. t1=2.0 (tdm end) = 2.0s.


class TestSpanTree:
    def test_hand_trace_tree_shape(self):
        profile = TraceProfile(HAND_TRACE)
        assert [root.name for root in profile.roots] == [
            "phase.initial_routing",
            "phase.tdm_assignment",
        ]
        ir = profile.roots[0]
        assert [child.name for child in ir.children] == [
            "ir.prepare",
            "ir.negotiation",
        ]
        assert ir.self_time == pytest.approx(1.0 - 0.2 - 0.5)
        assert profile.roots[1].record.error is True

    def test_same_named_parents_disambiguated_by_containment(self):
        events = [
            _span("inner", 0.1, 0.2, parent="outer"),
            _span("outer", 0.0, 0.5),
            _span("inner", 1.1, 0.2, parent="outer"),
            _span("outer", 1.0, 0.5),
        ]
        profile = TraceProfile(events)
        assert len(profile.roots) == 2
        assert len(build_span_tree(profile.spans)) == 2
        for root in profile.roots:
            assert [c.name for c in root.children] == ["inner"]
            assert root.children[0].start >= root.start
            assert root.children[0].end <= root.end

    def test_orphan_span_becomes_root(self):
        events = [_span("lonely", 0.0, 1.0, parent="never.closed")]
        profile = TraceProfile(events)
        assert [root.name for root in profile.roots] == ["lonely"]


class TestAttribution:
    def test_hand_trace_attribution_sums_to_wall_exactly(self):
        profile = TraceProfile(HAND_TRACE)
        assert profile.wall_seconds == pytest.approx(2.0)
        rows = profile.attribution()
        total_self = sum(row.self_time for row in rows)
        assert total_self == pytest.approx(profile.wall_seconds, rel=1e-9)
        by_name = {row.name: row for row in rows}
        assert by_name["ir.prepare"].self_time == pytest.approx(0.2)
        assert by_name["phase.initial_routing"].self_time == pytest.approx(0.3)
        # Wall 2.0 - tracked roots 1.5 = 0.5 untracked.
        assert by_name[UNTRACKED].self_time == pytest.approx(0.5)
        assert by_name["phase.tdm_assignment"].errors == 1
        fractions = sum(row.self_fraction for row in rows)
        assert fractions == pytest.approx(1.0)

    def test_golden_trace_total_matches_wall_within_one_percent(self):
        profile = TraceProfile.from_jsonl(GOLDEN)
        assert profile.spans, "golden trace must contain spans"
        rows = profile.attribution()
        total_self = sum(row.self_time for row in rows)
        assert total_self == pytest.approx(profile.wall_seconds, rel=0.01)
        names = {row.name for row in rows}
        assert "phase.initial_routing" in names
        assert "phase.tdm_assignment" in names
        assert UNTRACKED in names

    def test_golden_trace_rates_and_quantiles(self):
        profile = TraceProfile.from_jsonl(GOLDEN)
        rates = profile.rates()
        assert all(0.0 <= value <= 1.0 for value in rates.values())
        assert "ir.reroute_rate" in rates
        histograms = profile.quantiles()
        assert "legalization.margin" in histograms
        margin = histograms["legalization.margin"]
        assert margin.count > 0
        assert margin.minimum <= margin.p50 <= margin.p99 <= margin.maximum


class TestCriticalPath:
    def test_follows_heaviest_chain(self):
        profile = TraceProfile(HAND_TRACE)
        path = [node.name for node in profile.critical_path()]
        assert path == ["phase.initial_routing", "ir.negotiation"]

    def test_empty_trace(self):
        profile = TraceProfile([])
        assert profile.critical_path() == []
        assert profile.attribution()[-1].name == UNTRACKED
        assert profile.wall_seconds == 0.0


class TestDerivedRates:
    def test_rates_from_counters(self):
        rates = derive_rates(
            {
                "ir.reroutes": 9,
                "ir.connections_routed": 1,
                "serve.artifacts.hits": 3,
                "serve.artifacts.misses": 1,
            }
        )
        assert rates["ir.reroute_rate"] == pytest.approx(0.9)
        assert rates["serve.artifact_cache_hit_rate"] == pytest.approx(0.75)

    def test_zero_denominator_omitted(self):
        assert derive_rates({}) == {}


class TestExports:
    def test_chrome_export_is_valid_and_nested(self):
        document = TraceProfile(HAND_TRACE).to_chrome()
        events = document["traceEvents"]
        assert events == sorted(events, key=lambda e: e["ts"])
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
            assert event["ph"] in ("X", "i", "C")
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 5
        # Per-track nesting: within one tid, spans either nest or are
        # disjoint — never half-overlap.
        by_tid = {}
        for event in complete:
            by_tid.setdefault(event["tid"], []).append(event)
        for track in by_tid.values():
            for i, a in enumerate(track):
                for b in track[i + 1 :]:
                    a0, a1 = a["ts"], a["ts"] + a["dur"]
                    b0, b1 = b["ts"], b["ts"] + b["dur"]
                    nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
                    disjoint = a1 <= b0 + 1e-3 or b1 <= a0 + 1e-3
                    assert nested or disjoint
        error_span = next(e for e in complete if e["name"] == "phase.tdm_assignment")
        assert error_span["args"]["error"] is True

    def test_golden_chrome_export_round_trips_json(self, tmp_path):
        document = TraceProfile.from_jsonl(GOLDEN).to_chrome()
        text = json.dumps(document)
        reloaded = json.loads(text)
        assert reloaded["traceEvents"]
        assert reloaded["displayTimeUnit"] == "ms"

    def test_speedscope_export_balanced(self):
        document = TraceProfile(HAND_TRACE).to_speedscope()
        profile = document["profiles"][0]
        events = profile["events"]
        depth = 0
        last_at = profile["startValue"]
        for event in events:
            assert event["at"] >= last_at - 1e-12
            last_at = event["at"]
            assert 0 <= event["frame"] < len(document["shared"]["frames"])
            depth += 1 if event["type"] == "O" else -1
            assert depth >= 0
        assert depth == 0
        assert profile["endValue"] >= last_at


class TestLoadProfile:
    def test_dispatch(self, tmp_path):
        assert load_profile(GOLDEN).spans
        assert load_profile(list(HAND_TRACE)).spans
        sink = InMemorySink()
        tracer = Tracer(sink)
        with tracer.span("s"):
            pass
        assert load_profile(sink).spans[0].name == "s"
        with pytest.raises(TypeError):
            load_profile(42)

    def test_to_dict_document(self):
        doc = TraceProfile(HAND_TRACE).to_dict()
        assert doc["kind"] == "repro.trace_profile"
        assert doc["num_spans"] == 5
        assert doc["counters"]["ir.reroutes"] == 3
        assert doc["rates"]["ir.reroute_rate"] == pytest.approx(0.75)
        assert doc["histograms"]["legalization.margin"]["count"] == 2


class TestTraceCli:
    def test_text_output_on_golden(self, capsys):
        assert trace_cli.main([str(GOLDEN), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "phase.initial_routing" in out
        assert "(untracked)" in out
        assert "wall time:" in out
        assert "critical path:" in out

    def test_json_output(self, capsys):
        assert trace_cli.main([str(GOLDEN), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro.trace_profile"

    def test_chrome_export(self, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        code = trace_cli.main(
            [str(GOLDEN), "--export", "chrome", "--out", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_speedscope_export_default_name(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(GOLDEN.read_text())
        assert trace_cli.main([str(trace), "--export", "speedscope"]) == 0
        assert (tmp_path / "t.jsonl.speedscope.json").exists()

    def test_json_with_export_keeps_stdout_parseable(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(GOLDEN.read_text())
        code = trace_cli.main([str(trace), "--export", "chrome", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["kind"] == "repro.trace_profile"
        assert "export written" in captured.err

    def test_missing_file(self, capsys):
        assert trace_cli.main(["/nonexistent/trace.jsonl"]) == 2
