"""Spans, counters, gauges and histograms for the routing flow.

The :class:`Tracer` is the single handle instrumented code touches.  It
plays two roles at once:

* an **aggregate metrics registry** — named timers (total seconds per span
  name), counters, gauges and histogram observations.  These are always
  recorded, whatever the sink: they are cheap (they are only touched at
  phase/round granularity, never per node pop) and they feed the run
  report (:mod:`repro.obs.report`) even when no trace file is requested.
  Histograms are streaming quantile sketches
  (:mod:`repro.obs.quantiles` — O(sketch) memory however long the run);
  a reader that needs the raw values attaches a sink and reads the
  ``observe`` events.
* an **event emitter** — per-iteration events (PathFinder rounds, LR
  iterations) and span records streamed to a :class:`~repro.obs.sinks
  .TraceSink`.  Emission is gated on :attr:`Tracer.enabled`; with the
  default :class:`~repro.obs.sinks.NullSink` a call site pays exactly one
  attribute check (``if tracer.enabled:``) before skipping the event
  construction entirely.

Event vocabulary (every event is a flat JSON-serializable dict):

=========  ==================================================================
``type``   fields
=========  ==================================================================
span       ``name``, ``t`` (start, s since tracer epoch), ``dur`` (s),
           ``parent`` (enclosing span name or ``None``), plus span attrs
counter    ``name``, ``inc`` (this increment), ``total`` (running), ``t``
gauge      ``name``, ``value``, ``t``
observe    ``name``, ``value``, ``t`` (one histogram observation)
event      ``name``, ``t``, plus caller fields (e.g. ``lr.iteration``)
=========  ==================================================================

All clocks are monotonic (:func:`time.perf_counter`); ``t`` is relative to
the tracer's construction so traces are machine-relocatable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.quantiles import HistogramSummary, QuantileSketch
from repro.obs.sinks import NullSink, TraceSink


@dataclass
class TelemetrySnapshot:
    """Frozen copy of a tracer's aggregate metrics.

    Attached to :class:`repro.core.router.RoutingResult` as ``telemetry``
    and serialized into the run report.

    Attributes:
        counters: monotonically increasing named counts.
        gauges: last-written named values.
        timers: total seconds accumulated per span name.
        histograms: per-histogram :class:`~repro.obs.quantiles
            .HistogramSummary` digests (count/sum/min/max/p50/p90/p99) —
            bounded-size regardless of observation count.
        num_spans: spans closed over the tracer's lifetime.
        num_events: events emitted to the sink (0 with a null sink).
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSummary] = field(default_factory=dict)
    num_spans: int = 0
    num_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict form (used by the run report)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": dict(self.timers),
            "histograms": {k: v.to_dict() for k, v in self.histograms.items()},
            "num_spans": self.num_spans,
            "num_events": self.num_events,
        }


class Span:
    """One timed region; returned by :meth:`Tracer.span`.

    Use as a context manager; spans nest.  The tracer keeps one stack of
    open spans per thread, so a span's parent is the innermost span its
    own thread has open, however many threads share the tracer.
    """

    __slots__ = ("tracer", "name", "attrs", "start", "duration", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.duration = 0.0
        self._parent: Optional[str] = None

    def __enter__(self) -> "Span":
        stack = self.tracer._span_stack()
        self._parent = stack[-1] if stack else None
        stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.start
        stack = self.tracer._span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        if exc_type is not None:
            # A span abandoned by an exception is still a span: record it
            # with the flag so traces show where the run died.
            self.attrs = dict(self.attrs)
            self.attrs["error"] = True
        self.tracer._record_span(self)


class Tracer:
    """Aggregate metrics registry plus (optional) event stream.

    Args:
        sink: event destination; ``None`` means a shared
            :class:`~repro.obs.sinks.NullSink` and leaves
            :attr:`enabled` False so hot call sites skip event
            construction after a single attribute check.

    Each histogram is a bounded-memory
    :class:`~repro.obs.quantiles.QuantileSketch` with the default error
    bound (:data:`~repro.obs.quantiles.DEFAULT_RELATIVE_ERROR`).
    """

    _NULL = NullSink()

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink: TraceSink = sink if sink is not None else self._NULL
        #: One attribute check is all a disabled call site pays.
        self.enabled: bool = not isinstance(self.sink, NullSink)
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, float] = {}
        self._histograms: Dict[str, QuantileSketch] = {}
        self._local = threading.local()
        self._num_spans = 0
        self._num_events = 0

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a timed region: ``with tracer.span("phase.x"): ...``.

        Re-using a name accumulates into one timer, which is exactly how
        repeated rounds of the same phase total up.
        """
        return Span(self, name, attrs)

    def _span_stack(self) -> List[str]:
        """The calling thread's stack of open span names."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record_span(self, span: Span) -> None:
        with self._lock:
            self._timers[span.name] = (
                self._timers.get(span.name, 0.0) + span.duration
            )
            self._num_spans += 1
        if self.enabled:
            event = {
                "type": "span",
                "name": span.name,
                "t": span.start - self.epoch,
                "dur": span.duration,
                "parent": span._parent,
            }
            if span.attrs:
                event.update(span.attrs)
            self._emit(event)

    # -- counters / gauges / histograms --------------------------------
    def add(self, name: str, value: int = 1) -> None:
        """Increment a named counter (and emit when a sink is attached)."""
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
        if self.enabled:
            self._emit(
                {
                    "type": "counter",
                    "name": name,
                    "inc": value,
                    "total": total,
                    "t": time.perf_counter() - self.epoch,
                }
            )

    def gauge(self, name: str, value: float) -> None:
        """Set a named gauge to its latest value."""
        with self._lock:
            self._gauges[name] = value
        if self.enabled:
            self._emit(
                {
                    "type": "gauge",
                    "name": name,
                    "value": value,
                    "t": time.perf_counter() - self.epoch,
                }
            )

    def observe(self, name: str, value: float) -> None:
        """Fold one observation into a named histogram's quantile sketch."""
        with self._lock:
            sketch = self._histograms.get(name)
            if sketch is None:
                sketch = self._histograms[name] = QuantileSketch()
            sketch.observe(value)
        if self.enabled:
            self._emit(
                {
                    "type": "observe",
                    "name": name,
                    "value": value,
                    "t": time.perf_counter() - self.epoch,
                }
            )

    def event(self, name: str, **fields: Any) -> None:
        """Emit a structured event (no-op unless a real sink is attached).

        Hot loops should guard with ``if tracer.enabled:`` so the keyword
        dict is never even built on the null path.
        """
        if not self.enabled:
            return
        event = {"type": "event", "name": name, "t": time.perf_counter() - self.epoch}
        event.update(fields)
        self._emit(event)

    def _emit(self, event: Dict[str, Any]) -> None:
        self._num_events += 1
        self.sink.emit(event)

    # -- reads ---------------------------------------------------------
    def elapsed(self) -> float:
        """Monotonic seconds since the tracer's construction.

        The sanctioned wall-clock source for core code (REPRO001 bans
        ``time.time()`` there): graceful-degradation budgets compare
        ``tracer.elapsed()`` against a deadline instead of reading the
        system clock.
        """
        return time.perf_counter() - self.epoch

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0)

    def timer(self, name: str) -> float:
        """Total seconds accumulated under a span name (0.0 when unused)."""
        return self._timers.get(name, 0.0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Last value written to a gauge."""
        return self._gauges.get(name, default)

    def histogram_summary(self, name: str) -> Optional[HistogramSummary]:
        """Digest (count/sum/min/max/p50/p90/p99) of a histogram.

        Returns ``None`` when the name was never observed.
        """
        with self._lock:
            sketch = self._histograms.get(name)
            return sketch.summary() if sketch is not None else None

    def quantile(self, name: str, q: float) -> float:
        """Quantile ``q`` of a histogram (a sketch estimate).

        Raises:
            KeyError: when the name was never observed.
            ValueError: when ``q`` is outside [0, 1].
        """
        with self._lock:
            return self._histograms[name].quantile(q)

    def snapshot(self) -> TelemetrySnapshot:
        """Consistent copy of every aggregate metric."""
        with self._lock:
            return TelemetrySnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                timers=dict(self._timers),
                histograms={
                    k: v.summary() for k, v in self._histograms.items()
                },
                num_spans=self._num_spans,
                num_events=self._num_events,
            )
