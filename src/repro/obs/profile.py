"""Trace intelligence: span trees, self-time attribution, flamegraph export.

:mod:`repro.obs` *emits* events; this module *answers questions* about
them.  Feed it a JSONL trace file (``repro route --trace-out``), an
:class:`~repro.obs.sinks.InMemorySink`, or a raw event list, and a
:class:`TraceProfile` gives you:

* the reconstructed **span tree** (spans are emitted at close time with
  only a parent *name*, so the tree is rebuilt from close order plus
  interval containment — see :func:`build_span_tree`);
* **self-time vs. child-time attribution** per span name, with an
  explicit ``(untracked)`` row so the table always sums to the
  end-to-end wall time;
* the **critical path** — the chain of heaviest spans from the virtual
  root down through the phase I/II pipeline;
* **derived rates** (reroutes, warm-artifact cache hits) computed from
  the raw counters;
* **histogram quantiles** re-aggregated from ``observe`` events; and
* Chrome ``trace_event`` and speedscope JSON exports for flamegraph
  viewing (``chrome://tracing`` / https://www.speedscope.app).

Like :mod:`repro.obs.report`, this module imports nothing from
:mod:`repro.core` — the observability layer stays a leaf dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.obs.quantiles import (
    DEFAULT_RELATIVE_ERROR,
    HistogramSummary,
    QuantileSketch,
)
from repro.obs.sinks import iter_jsonl

#: Attribution-table row name covering wall time outside every span
#: (timing analysis, conflict counting, I/O between phases).
UNTRACKED = "(untracked)"

#: Tolerance for interval-containment tests during tree reconstruction.
_EPS = 1e-9

#: Derived-rate definitions: output name -> (hit keys, miss keys).  The
#: rate is hits / (hits + misses); emitted only when the denominator > 0.
RATE_DEFINITIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "ir.reroute_rate": (("ir.reroutes",), ("ir.connections_routed",)),
    "serve.artifact_cache_hit_rate": (
        ("serve.artifacts.hits",),
        ("serve.artifacts.misses",),
    ),
}


def derive_rates(counters: Mapping[str, Any]) -> Dict[str, float]:
    """Cache hit/miss *rates* derived from raw counter totals.

    Args:
        counters: a counter mapping (``TelemetrySnapshot.counters`` or a
            profile's final counter totals).

    Returns:
        ``{rate name: fraction in [0, 1]}`` for every rate whose
        denominator counters are present and positive, sorted by name.
    """
    rates: Dict[str, float] = {}
    for name in sorted(RATE_DEFINITIONS):
        hit_keys, miss_keys = RATE_DEFINITIONS[name]
        hits = sum(float(counters.get(key, 0)) for key in hit_keys)
        misses = sum(float(counters.get(key, 0)) for key in miss_keys)
        denominator = hits + misses
        if denominator > 0:
            rates[name] = hits / denominator
    return rates


@dataclass
class SpanRecord:
    """One closed span as read from a trace event.

    Attributes:
        name: span name (``phase.initial_routing``, ``ir.negotiation``...).
        start: start time, seconds since the tracer epoch.
        dur: duration in seconds.
        parent: enclosing span *name* (or ``None`` for a root).
        error: True when the span was abandoned by an exception.
        attrs: any extra fields the call site attached.
    """

    name: str
    start: float
    dur: float
    parent: Optional[str] = None
    error: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.dur


@dataclass
class SpanNode:
    """A span plus the child spans nested inside it."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def start(self) -> float:
        return self.record.start

    @property
    def end(self) -> float:
        return self.record.end

    @property
    def dur(self) -> float:
        return self.record.dur

    @property
    def self_time(self) -> float:
        """Duration minus time spent in child spans (floored at 0)."""
        return max(0.0, self.record.dur - sum(c.record.dur for c in self.children))

    def walk(self) -> Iterable["SpanNode"]:
        """This node then every descendant, depth-first in start order."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class AttributionRow:
    """One line of the self-time attribution table."""

    name: str
    count: int
    total: float
    self_time: float
    self_fraction: float
    errors: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready row (the ``attribution`` entries of ``to_dict``)."""
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_time,
            "self_fraction": self.self_fraction,
            "errors": self.errors,
        }


def _record_from_event(event: Mapping[str, Any]) -> SpanRecord:
    attrs = {
        key: value
        for key, value in event.items()
        if key not in ("type", "name", "t", "dur", "parent", "error")
    }
    return SpanRecord(
        name=str(event["name"]),
        start=float(event["t"]),
        dur=float(event.get("dur", 0.0)),
        parent=event.get("parent"),
        error=bool(event.get("error", False)),
        attrs=attrs,
    )


def build_span_tree(records: Iterable[SpanRecord]) -> List[SpanNode]:
    """Reconstruct the span forest from close-ordered span records.

    The tracer emits a span when it *closes* and records only the parent
    *name* — children therefore always precede their parent in the
    stream, and interval containment disambiguates same-named parents.
    Each record claims, at its close, every unclaimed earlier span whose
    ``parent`` matches its name and whose interval nests inside its own.

    Returns:
        Root nodes in start order (children sorted by start time).
    """
    unclaimed: List[SpanNode] = []
    for record in records:
        node = SpanNode(record)
        children = [
            candidate
            for candidate in unclaimed
            if candidate.record.parent == record.name
            and candidate.start >= record.start - _EPS
            and candidate.end <= record.end + _EPS
        ]
        if children:
            claimed = set(map(id, children))
            unclaimed = [c for c in unclaimed if id(c) not in claimed]
            node.children = sorted(children, key=lambda c: c.start)
        unclaimed.append(node)
    return sorted(unclaimed, key=lambda n: n.start)


class TraceProfile:
    """Analysis handle over one trace (event list, sink, or JSONL file).

    Attributes:
        events: every event dict, in emission order.
        spans: the closed spans, in emission (close) order.
        roots: the reconstructed span forest.
    """

    def __init__(self, events: List[Dict[str, Any]]) -> None:
        self.events = events
        self.spans: List[SpanRecord] = [
            _record_from_event(e) for e in events if e.get("type") == "span"
        ]
        self.roots: List[SpanNode] = build_span_tree(self.spans)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "TraceProfile":
        """Load a ``--trace-out`` JSONL file."""
        return cls(list(iter_jsonl(path)))

    @classmethod
    def from_sink(cls, sink: Any) -> "TraceProfile":
        """Wrap an :class:`~repro.obs.sinks.InMemorySink` (or any object
        with an ``events`` list)."""
        return cls(list(sink.events))

    # -- extent --------------------------------------------------------
    @property
    def t0(self) -> float:
        """Earliest timestamp seen in any event (0.0 for an empty trace)."""
        times = [float(e["t"]) for e in self.events if "t" in e]
        return min(times) if times else 0.0

    @property
    def t1(self) -> float:
        """Latest timestamp (span ends included)."""
        times = [float(e["t"]) for e in self.events if "t" in e]
        times.extend(span.end for span in self.spans)
        return max(times) if times else 0.0

    @property
    def wall_seconds(self) -> float:
        """End-to-end wall time covered by the trace."""
        return max(0.0, self.t1 - self.t0)

    # -- attribution ---------------------------------------------------
    def attribution(self) -> List[AttributionRow]:
        """Per-span-name self-time table, heaviest self time first.

        The ``(untracked)`` row covers wall time outside every root span
        (timing analysis, I/O between phases), so the table's self-time
        column always sums to :attr:`wall_seconds` exactly.
        """
        totals: Dict[str, AttributionRow] = {}
        for root in self.roots:
            for node in root.walk():
                row = totals.get(node.name)
                if row is None:
                    row = AttributionRow(node.name, 0, 0.0, 0.0, 0.0)
                    totals[node.name] = row
                row.count += 1
                row.total += node.dur
                row.self_time += node.self_time
                row.errors += 1 if node.record.error else 0
        wall = self.wall_seconds
        tracked = sum(root.dur for root in self.roots)
        untracked = max(0.0, wall - tracked)
        # Clamping child sums can leave self-time fractionally shy of the
        # root durations; fold the residue into the untracked row so the
        # column still telescopes to the wall time.
        self_sum = sum(row.self_time for row in totals.values())
        untracked += max(0.0, tracked - self_sum)
        rows = sorted(
            totals.values(), key=lambda row: (-row.self_time, row.name)
        )
        rows.append(
            AttributionRow(UNTRACKED, 0, untracked, untracked, 0.0)
        )
        if wall > 0:
            for row in rows:
                row.self_fraction = row.self_time / wall
        return rows

    # -- critical path -------------------------------------------------
    def critical_path(self) -> List[SpanNode]:
        """Heaviest root-to-leaf chain through the span tree.

        Starting from the heaviest root, repeatedly descends into the
        child with the largest duration — the phase I/II pipeline's
        dominant chain (e.g. ``phase.initial_routing`` →
        ``ir.negotiation``).
        """
        if not self.roots:
            return []
        path: List[SpanNode] = []
        node = max(self.roots, key=lambda n: n.dur)
        while True:
            path.append(node)
            if not node.children:
                return path
            node = max(node.children, key=lambda c: c.dur)

    # -- counters / rates / quantiles ----------------------------------
    def counter_totals(self) -> Dict[str, float]:
        """Final running total of every counter in the trace."""
        totals: Dict[str, float] = {}
        for event in self.events:
            if event.get("type") == "counter":
                totals[str(event["name"])] = float(event.get("total", 0.0))
        return totals

    def rates(self) -> Dict[str, float]:
        """Derived cache rates (see :func:`derive_rates`)."""
        return derive_rates(self.counter_totals())

    def quantiles(
        self, relative_error: float = DEFAULT_RELATIVE_ERROR
    ) -> Dict[str, HistogramSummary]:
        """Histogram digests re-aggregated from ``observe`` events."""
        sketches: Dict[str, QuantileSketch] = {}
        for event in self.events:
            if event.get("type") != "observe":
                continue
            name = str(event["name"])
            sketch = sketches.get(name)
            if sketch is None:
                sketch = QuantileSketch(relative_error)
                sketches[name] = sketch
            sketch.observe(float(event["value"]))
        return {name: sketches[name].summary() for name in sorted(sketches)}

    # -- exports -------------------------------------------------------
    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` document (open in ``chrome://tracing``).

        Spans become complete (``"X"``) events placed on synthetic
        tracks so overlapping spans never half-overlap within a track;
        tracer events become instants (``"i"``); counters become counter
        (``"C"``) samples.
        """
        trace_events: List[Dict[str, Any]] = []
        # Greedy track packing: a span joins the first track where it
        # either nests inside the currently open span or starts after it.
        tracks: List[List[SpanRecord]] = []
        for span in sorted(self.spans, key=lambda s: (s.start, -s.dur)):
            tid = None
            for index, stack in enumerate(tracks):
                while stack and stack[-1].end <= span.start + _EPS:
                    stack.pop()
                if not stack or span.end <= stack[-1].end + _EPS:
                    stack.append(span)
                    tid = index
                    break
            if tid is None:
                tracks.append([span])
                tid = len(tracks) - 1
            event: Dict[str, Any] = {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.dur * 1e6,
                "pid": 0,
                "tid": tid,
            }
            args = dict(span.attrs)
            if span.error:
                args["error"] = True
            if args:
                event["args"] = args
            trace_events.append(event)
        for raw in self.events:
            kind = raw.get("type")
            if kind == "event":
                trace_events.append(
                    {
                        "name": str(raw["name"]),
                        "ph": "i",
                        "ts": float(raw["t"]) * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "s": "t",
                        "args": {
                            k: v
                            for k, v in raw.items()
                            if k not in ("type", "name", "t")
                        },
                    }
                )
            elif kind == "counter":
                trace_events.append(
                    {
                        "name": str(raw["name"]),
                        "ph": "C",
                        "ts": float(raw["t"]) * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": {"total": raw.get("total", 0)},
                    }
                )
        trace_events.sort(key=lambda e: e["ts"])
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def to_speedscope(self, name: str = "repro trace") -> Dict[str, Any]:
        """Speedscope evented-profile document (https://speedscope.app).

        The evented format needs strictly nested open/close pairs on one
        timeline, so the span forest is serialized root-by-root with
        overlapping siblings clamped to sequential intervals (a lossless
        view for the single-threaded phase spans; parallel inner spans
        are approximated).
        """
        frame_index: Dict[str, int] = {}
        frames: List[Dict[str, str]] = []
        samples: List[Dict[str, Any]] = []

        def frame_of(span_name: str) -> int:
            if span_name not in frame_index:
                frame_index[span_name] = len(frames)
                frames.append({"name": span_name})
            return frame_index[span_name]

        def emit(node: SpanNode, start: float, end: float) -> None:
            if end <= start:
                return
            index = frame_of(node.name)
            samples.append({"type": "O", "frame": index, "at": start})
            cursor = start
            for child in node.children:
                child_start = max(cursor, min(child.start, end))
                child_end = max(child_start, min(child.end, end))
                emit(child, child_start, child_end)
                cursor = child_end
            samples.append({"type": "C", "frame": index, "at": end})

        cursor = self.t0
        for root in self.roots:
            start = max(cursor, root.start)
            end = max(start, root.end)
            emit(root, start, end)
            cursor = end
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "evented",
                    "name": name,
                    "unit": "seconds",
                    "startValue": self.t0,
                    "endValue": max(self.t1, cursor),
                    "events": samples,
                }
            ],
            "exporter": "repro.obs.profile",
        }

    # -- one-document summary ------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The full analysis as one JSON-ready document."""
        return {
            "kind": "repro.trace_profile",
            "wall_seconds": self.wall_seconds,
            "num_events": len(self.events),
            "num_spans": len(self.spans),
            "attribution": [row.to_dict() for row in self.attribution()],
            "critical_path": [
                {"name": node.name, "dur_s": node.dur, "self_s": node.self_time}
                for node in self.critical_path()
            ],
            "rates": self.rates(),
            "histograms": {
                name: summary.to_dict()
                for name, summary in self.quantiles().items()
            },
            "counters": self.counter_totals(),
        }


def load_profile(
    source: Union[str, Path, List[Dict[str, Any]], Any]
) -> TraceProfile:
    """Build a :class:`TraceProfile` from whatever the caller has.

    Accepts a JSONL path, a raw event list, or any sink-like object with
    an ``events`` attribute.
    """
    if isinstance(source, (str, Path)):
        return TraceProfile.from_jsonl(source)
    if isinstance(source, list):
        return TraceProfile(source)
    if hasattr(source, "events"):
        return TraceProfile.from_sink(source)
    raise TypeError(
        f"cannot profile {type(source).__name__}: expected a path, an "
        "event list, or a sink with .events"
    )
