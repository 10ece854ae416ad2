"""Closed loops and the statistics of the end-to-end metrics.

The sequential workloads report their timings at the reference host
speed of ``hostspeed.py``: each op's seconds are scaled by the
host-speed probes taken on either side of it.  The run record keeps the
same metrics as measured, unscaled, under ``raw``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import hostspeed

#: End-to-end metric -> unit.  Failures are reported as ``ok_frac``
#: (passed ÷ attempted) because a metric must never read 0; the failed
#: count itself is the result's ``failed`` field.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "route_s_p50": "s",
    "route_s_tail": "s",
    "routes_per_s": "1/s",
    "cpu_s_per_route": "s",
    "delay_geomean": "delay",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
}

#: A tail percentile needs at least this many ops beyond it.
TAIL_BEYOND = 10


@dataclass
class OpRecord:
    """One timed op: its input, wall and process-CPU seconds, verdict.

    ``scale`` turns its seconds into seconds at the reference host speed
    (:func:`hostspeed.scale` of the probes around it).
    """

    key: str
    wall: float
    cpu: float
    ok: bool
    scale: float = 1.0

    def at_reference(self) -> "OpRecord":
        return replace(
            self, wall=self.wall * self.scale, cpu=self.cpu * self.scale, scale=1.0
        )


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile leaving :data:`TAIL_BEYOND` ops beyond it.

    Returns ``(value, percentile, ops beyond)``.  With too few ops the
    maximum stands in, reported as percentile 100 with 0 ops beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def latency_summary(
    records: Sequence[OpRecord], normalize: bool
) -> Tuple[float, float, float, int]:
    """``(p50, tail, tail percentile, ops beyond)`` of the op times.

    With ``normalize`` (inputs of very different sizes) p50 is the
    geometric mean of each input's median, Table III's convention, and
    the tail scales it by the tail of op time over its input's median.
    """
    if not normalize:
        value, pct, beyond = tail([r.wall for r in records])
        return statistics.median(r.wall for r in records), value, pct, beyond
    walls: Dict[str, List[float]] = {}
    for record in records:
        walls.setdefault(record.key, []).append(record.wall)
    medians = {key: statistics.median(values) for key, values in walls.items()}
    p50 = geomean(list(medians.values()))
    ratio, pct, beyond = tail([r.wall / medians[r.key] for r in records])
    return p50, p50 * ratio, pct, beyond


def run_op(
    workload, references, key: str, tracer: Optional[Any] = None
) -> Tuple[OpRecord, Any]:
    """Time one op of a sequential workload; returns (record, output).

    Garbage left by the previous op is collected before the clock starts.
    With a tracer, the op runs inside a ``bench.op`` span on it.
    """
    gc.collect()
    span = (
        tracer.span("bench.op") if tracer is not None else contextlib.nullcontext()
    )
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with span:
            output = workload.op(key, tracer)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        wall = time.perf_counter() - start
        print(f"perfbench: {key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return OpRecord(key, wall, time.process_time() - cpu_start, False), None
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    return OpRecord(key, wall, cpu, workload.output_ok(output, references[key])), output


def whole_passes(workload, seconds: float) -> Iterator[str]:
    """Input keys over whole passes, until a pass ends after ``seconds``.

    Whole passes keep every input equally represented in every run.
    """
    start = time.perf_counter()
    for order in workload.passes():
        yield from order
        if time.perf_counter() - start >= seconds:
            return


def op_counts(records: Sequence[OpRecord]) -> Dict[str, Any]:
    """The op tallies every run record carries."""
    walls: Dict[str, List[float]] = {}
    for record in records:
        walls.setdefault(record.key, []).append(record.wall)
    return {
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "failed_ops": sorted({r.key for r in records if not r.ok}),
        "op_seconds": dict(sorted(walls.items())),
    }


def sequential(workload, references, seconds: float) -> List[OpRecord]:
    """Whole passes of timed ops, with a host-speed probe between ops."""
    records = []
    before = hostspeed.probe()
    for key in whole_passes(workload, seconds):
        record = run_op(workload, references, key)[0]
        after = hostspeed.probe()
        record.scale = hostspeed.scale([before, after])
        records.append(record)
        before = after
    return records


def summary(
    workload, records: Sequence[OpRecord], routes_per_s: float, cpu_per_route: float
) -> Tuple[Dict[str, float], float, int]:
    """End-to-end values of a run's ops; also the tail percentile and count."""
    p50, tail_value, pct, beyond = latency_summary(
        records, normalize=workload.name == "contest_cold"
    )
    values = {
        "route_s_p50": p50,
        "route_s_tail": tail_value,
        "routes_per_s": routes_per_s,
        "cpu_s_per_route": cpu_per_route,
    }
    return values, pct, beyond


def sequential_summary(
    workload, records: Sequence[OpRecord]
) -> Tuple[Dict[str, float], float, int]:
    """:func:`summary` of sequential ops, whose time is the sum of theirs."""
    return summary(
        workload,
        records,
        len(records) / sum(r.wall for r in records),
        sum(r.cpu for r in records) / len(records),
    )


def measure(
    workload, references, seconds: float
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The untraced closed loop; returns (end-to-end values, record).

    ``routes_per_s`` and ``cpu_s_per_route`` cover only the ops of a
    sequential workload, not the checks and probes between them; on the
    service they cover the whole window.  Sequential ops are reported at
    the reference speed, and ``record["raw"]`` has them as measured.
    The service is reported as measured: its two workers are busy for
    the whole window, so a probe run then would share the CPUs with the
    program and measure it as much as the host.
    """
    if workload.name == "serve_warm":
        done, completed, window, cpu = workload.closed_loop(seconds, workload.draws())
        records = [
            OpRecord(key, latency, 0.0, workload.output_ok(response, references[key]))
            for key, latency, response in done
        ]
        values, pct, beyond = summary(
            workload, records, completed / window, cpu / completed
        )
        raw = dict(values)
    else:
        records = sequential(workload, references, seconds)
        raw, pct, beyond = sequential_summary(workload, records)
        values, _, _ = sequential_summary(
            workload, [record.at_reference() for record in records]
        )
    record = op_counts(records)
    values["ok_frac"] = (record["attempted"] - record["failed"]) / record["attempted"]
    scales = [r.scale for r in records]
    record.update(
        raw=raw,
        op_scale={
            "min": min(scales),
            "median": statistics.median(scales),
            "max": max(scales),
        },
        route_s_tail_percentile=pct,
        route_s_tail_ops_beyond=beyond,
    )
    return values, record
