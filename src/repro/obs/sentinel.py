"""Perf-regression sentinel: compare benchmark trajectories across commits.

The repo commits benchmark trajectory files (``BENCH_*.json``, written by
``benchmarks/conftest.py``) recording per-case wall times.  This module
answers "did we get slower?": load a committed baseline plus a fresh
document — another ``BENCH_*.json`` or a run report
(:mod:`repro.obs.report`) — and flag every wall-time metric whose
slowdown is *statistically meaningful*:

* a configurable **tolerance** ratio (default 1.5x) absorbs ordinary
  machine-to-machine variance;
* a **noise floor** widens the threshold further when the baseline
  itself shows spread across repeated samples of the same metric — a
  metric that wobbles 30% between baseline samples cannot signal a 20%
  regression;
* an absolute **min_seconds** floor ignores sub-millisecond timings
  whose relative error is dominated by timer resolution.

A baseline metric that the fresh document lacks is listed as
**missing** and fails the check: a committed row that no benchmark
writes any more guards nothing.

``repro perf`` is the CLI face; ``make perf`` and the benchmark CI job
run it against the committed baselines.  Like the rest of
:mod:`repro.obs`, this imports nothing from :mod:`repro.core`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.obs.report import REPORT_KIND

#: Default slowdown ratio above which a metric is flagged.
DEFAULT_TOLERANCE = 1.5

#: Default extra relative headroom granted to every comparison.
DEFAULT_NOISE_FLOOR = 0.10

#: Timings below this many seconds are never compared (timer noise).
DEFAULT_MIN_SECONDS = 0.005

#: A metric key: (case name, metric name).
MetricKey = Tuple[str, str]


def _is_wall_time_metric(name: str) -> bool:
    return (name.startswith("wall_time") and name.endswith("_s")) or (
        name.startswith("phase.")
    )


def extract_metrics(doc: Mapping[str, Any]) -> Dict[MetricKey, List[float]]:
    """Pull every comparable wall-time sample out of a document.

    Understands two shapes:

    * **bench trajectory** (``BENCH_*.json``): every ``wall_time*_s``
      field of every row under ``results``, keyed by the row's ``case``;
    * **run report** (``kind == "repro.run_report"``): the four
      ``phase_times`` entries as ``phase.<name>`` metrics, keyed by the
      case name recorded in the report (``"run"`` when absent).

    Returns:
        ``{(case, metric): [samples...]}`` — a list because a trajectory
        may hold repeated samples of the same metric (their spread feeds
        the noise floor).

    Raises:
        ValueError: when the document matches neither shape.
    """
    samples: Dict[MetricKey, List[float]] = {}

    def put(case: str, metric: str, value: Any) -> None:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            samples.setdefault((case, metric), []).append(float(value))

    if isinstance(doc.get("results"), list):
        for row in doc["results"]:
            if not isinstance(row, dict):
                continue
            case = str(row.get("case", "unknown"))
            for name, value in row.items():
                if _is_wall_time_metric(name):
                    put(case, name, value)
        return samples
    if doc.get("kind") == REPORT_KIND:
        case_section = doc.get("case") or {}
        case = "run"
        if isinstance(case_section, dict):
            case = str(case_section.get("case") or case_section.get("name") or "run")
        times = doc.get("phase_times") or {}
        for name, value in times.items():
            if name != "fractions":
                put(case, f"phase.{name}", value)
        return samples
    raise ValueError(
        "unrecognized perf document: expected a BENCH_*.json trajectory "
        "(results list) or a run report (kind == 'repro.run_report')"
    )


def load_metrics(
    source: Union[str, Path, Mapping[str, Any]]
) -> Dict[MetricKey, List[float]]:
    """:func:`extract_metrics` over a path or an already-loaded dict."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    return extract_metrics(source)


@dataclass(frozen=True)
class RegressionFinding:
    """One flagged slowdown (or, with ``ratio < 1``, a speedup note)."""

    case: str
    metric: str
    baseline: float
    current: float
    ratio: float
    threshold: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (rows of the sentinel report document)."""
        return {
            "case": self.case,
            "metric": self.metric,
            "baseline_s": self.baseline,
            "current_s": self.current,
            "ratio": self.ratio,
            "threshold": self.threshold,
        }

    def describe(self) -> str:
        """One human-readable line: metric, both timings, ratio, threshold."""
        return (
            f"{self.case}/{self.metric}: {self.baseline:.4f}s -> "
            f"{self.current:.4f}s ({self.ratio:.2f}x, threshold "
            f"{self.threshold:.2f}x)"
        )


@dataclass
class SentinelReport:
    """The outcome of one baseline-vs-current comparison.

    Attributes:
        regressions: metrics exceeding their slowdown threshold.
        improvements: metrics at least as *faster* than the tolerance
            (informational — a hint the baseline is stale).
        compared: number of metric pairs actually compared.
        skipped: metrics present in both documents but below the
            ``min_seconds`` floor.
        missing: baseline metrics absent from the current document.
        tolerance / noise_floor / min_seconds: the knobs used.
    """

    regressions: List[RegressionFinding] = field(default_factory=list)
    improvements: List[RegressionFinding] = field(default_factory=list)
    compared: int = 0
    skipped: int = 0
    missing: List[MetricKey] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    noise_floor: float = DEFAULT_NOISE_FLOOR
    min_seconds: float = DEFAULT_MIN_SECONDS

    @property
    def ok(self) -> bool:
        """True when no regression was flagged and no metric is missing."""
        return not self.regressions and not self.missing

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready report (written by ``repro perf --output``)."""
        return {
            "kind": "repro.perf_sentinel",
            "ok": self.ok,
            "compared": self.compared,
            "skipped": self.skipped,
            "missing": [
                {"case": case, "metric": metric} for case, metric in self.missing
            ],
            "tolerance": self.tolerance,
            "noise_floor": self.noise_floor,
            "min_seconds": self.min_seconds,
            "regressions": [f.to_dict() for f in self.regressions],
            "improvements": [f.to_dict() for f in self.improvements],
        }


def _spread_rel(samples: List[float]) -> float:
    """Relative spread (max-min over mean) of repeated samples."""
    if len(samples) < 2:
        return 0.0
    mean = sum(samples) / len(samples)
    if mean <= 0:
        return 0.0
    return (max(samples) - min(samples)) / mean


def check_regressions(
    baseline: Union[str, Path, Mapping[str, Any]],
    current: Union[str, Path, Mapping[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> SentinelReport:
    """Compare two perf documents and flag meaningful slowdowns.

    For every ``(case, metric)`` present in both documents (mean of the
    samples on each side), the slowdown threshold is::

        max(tolerance, 1 + noise_floor, 1 + 2 * baseline spread)

    so a metric must beat its tolerance *and* clear twice the baseline's
    own repeated-sample wobble before it counts as a regression.
    Metrics whose baseline or current mean is below ``min_seconds`` are
    skipped entirely.  Baseline metrics that the current document lacks
    are listed in ``report.missing`` and fail the check.

    Args:
        baseline: committed ``BENCH_*.json`` / run report (path or dict).
        current: the freshly measured document (path or dict).
        tolerance: slowdown ratio that always triggers when exceeded.
        noise_floor: minimum relative headroom every metric gets.
        min_seconds: absolute floor below which timings are ignored.

    Returns:
        A :class:`SentinelReport`; ``report.ok`` is the pass/fail bit.
    """
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must exceed 1.0, got {tolerance}")
    if noise_floor < 0.0:
        raise ValueError(f"noise_floor must be >= 0, got {noise_floor}")
    baseline_metrics = load_metrics(baseline)
    current_metrics = load_metrics(current)
    report = SentinelReport(
        missing=sorted(set(baseline_metrics) - set(current_metrics)),
        tolerance=tolerance,
        noise_floor=noise_floor,
        min_seconds=min_seconds,
    )
    for key in sorted(set(baseline_metrics) & set(current_metrics)):
        base_samples = baseline_metrics[key]
        curr_samples = current_metrics[key]
        base = sum(base_samples) / len(base_samples)
        curr = sum(curr_samples) / len(curr_samples)
        if base < min_seconds or curr < min_seconds:
            report.skipped += 1
            continue
        report.compared += 1
        threshold = max(
            tolerance,
            1.0 + noise_floor,
            1.0 + 2.0 * _spread_rel(base_samples),
        )
        ratio = curr / base
        finding = RegressionFinding(
            case=key[0],
            metric=key[1],
            baseline=base,
            current=curr,
            ratio=ratio,
            threshold=threshold,
        )
        if ratio > threshold:
            report.regressions.append(finding)
        elif ratio < 1.0 / threshold:
            report.improvements.append(finding)
    return report
