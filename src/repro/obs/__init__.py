"""Observability layer: spans, metrics, trace sinks, logs, run reports.

Dependency-free instrumentation substrate for the whole routing flow
(ISSUE 1).  The pieces:

* :class:`Tracer` (:mod:`repro.obs.tracer`) — nestable monotonic spans
  plus always-on aggregate counters/gauges/timers/histograms.
* Sinks (:mod:`repro.obs.sinks`) — :class:`NullSink` (default, one
  attribute check per disabled event), :class:`JsonlSink` (offline
  analysis) and :class:`InMemorySink` (tests, HTML report).
* :func:`get_logger` / :func:`configure_logging` (:mod:`repro.obs.log`) —
  stdlib logging namespaced under ``repro``.
* Run reports (:mod:`repro.obs.report`) — the schema-versioned JSON
  document ``repro route --metrics-out`` writes and benchmarks diff.
* Quantile sketches (:mod:`repro.obs.quantiles`) — the bounded-memory
  histogram backend behind ``Tracer.observe`` (p50/p90/p99 digests).
* Trace profiles (:mod:`repro.obs.profile`) — span-tree reconstruction,
  self-time attribution, critical paths, cache-rate derivation and
  Chrome/speedscope flamegraph export (``repro trace``).
* The perf sentinel (:mod:`repro.obs.sentinel`) — flags statistically
  meaningful slowdowns against committed ``BENCH_*.json`` baselines
  (``repro perf``).

Typical use::

    from repro.obs import JsonlSink, Tracer
    tracer = Tracer(JsonlSink("trace.jsonl"))
    result = SynergisticRouter(system, netlist, tracer=tracer).route()
    tracer.sink.close()
    print(result.telemetry.counters["dijkstra.pops"])
"""

from repro.obs.log import configure_logging, get_logger
from repro.obs.profile import (
    AttributionRow,
    SpanNode,
    SpanRecord,
    TraceProfile,
    build_span_tree,
    derive_rates,
    load_profile,
)
from repro.obs.quantiles import (
    DEFAULT_RELATIVE_ERROR,
    HistogramSummary,
    QuantileSketch,
)
from repro.obs.report import (
    REPORT_KIND,
    SCHEMA_VERSION,
    assert_valid_run_report,
    build_run_report,
    validate_run_report,
    write_run_report,
)
from repro.obs.sinks import (
    InMemorySink,
    JsonlSink,
    NullSink,
    TraceSink,
    iter_jsonl,
    read_jsonl,
)
from repro.obs.sentinel import (
    RegressionFinding,
    SentinelReport,
    check_regressions,
)
from repro.obs.tracer import Span, TelemetrySnapshot, Tracer

__all__ = [
    "AttributionRow",
    "DEFAULT_RELATIVE_ERROR",
    "HistogramSummary",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "QuantileSketch",
    "REPORT_KIND",
    "RegressionFinding",
    "SCHEMA_VERSION",
    "SentinelReport",
    "Span",
    "SpanNode",
    "SpanRecord",
    "TelemetrySnapshot",
    "TraceProfile",
    "TraceSink",
    "Tracer",
    "assert_valid_run_report",
    "build_run_report",
    "build_span_tree",
    "check_regressions",
    "configure_logging",
    "derive_rates",
    "get_logger",
    "iter_jsonl",
    "load_profile",
    "read_jsonl",
    "validate_run_report",
    "write_run_report",
]
