"""Shared benchmark plumbing.

Environment knobs:

* ``REPRO_BENCH_CASES`` — comma-separated case names to run (default: all
  ten at their per-case default scales).
* ``REPRO_BENCH_SCALE`` — scale override applied to *every* case (e.g.
  ``1.0`` to attempt the full Table II sizes; expect long runtimes).
* ``REPRO_BENCH_ROUTERS`` — comma-separated router subset for Table III.
* ``REPRO_BENCH_OUT`` — directory receiving the machine-readable
  ``BENCH_<name>.json`` result files (default: current directory).
* ``REPRO_BENCH_BASELINE`` — directory holding committed baseline
  ``BENCH_<name>.json`` files (e.g. the repo root).  When set, every
  freshly written trajectory is checked by the perf-regression sentinel
  (:mod:`repro.obs.sentinel`) against its same-named baseline; findings
  are printed in the terminal summary and written to
  ``PERF_SENTINEL.json`` next to the results.

Each benchmark registers a human-readable result table that is printed in
the terminal summary, so ``pytest benchmarks/ --benchmark-only`` emits the
paper-style tables alongside the timing statistics.  Benchmarks that
route cases additionally record structured rows via
:func:`record_bench_result`; at session end each benchmark's rows land in
``BENCH_<name>.json`` so the perf trajectory can be diffed across commits.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

import pytest

from repro.benchgen import case_names, load_case

#: Report blocks printed at session end, in insertion order.
REPORTS: Dict[str, List[str]] = {}

#: Structured benchmark rows, keyed by bench name, written at session end.
BENCH_RESULTS: Dict[str, List[Dict[str, Any]]] = {}

#: Schema version of the ``BENCH_<name>.json`` files.
BENCH_SCHEMA_VERSION = 1


def register_report(title: str, lines: List[str]) -> None:
    """Register (or extend) a report block for the terminal summary."""
    REPORTS.setdefault(title, []).extend(lines)


def record_bench_result(bench: str, case: str, **fields: Any) -> None:
    """Record one machine-readable benchmark row.

    Args:
        bench: benchmark name; rows land in ``BENCH_<bench>.json``.
        case: contest case name (every row carries its case).
        **fields: numeric/string payload — wall time, critical delay,
            conflict count, iteration counts, ...
    """
    row: Dict[str, Any] = {"case": case}
    row.update(fields)
    BENCH_RESULTS.setdefault(bench, []).append(row)


def write_bench_results(
    out_dir: Path, results: Optional[Mapping[str, List[Dict[str, Any]]]] = None
) -> List[Path]:
    """Write one ``BENCH_<name>.json`` per recorded benchmark.

    Args:
        out_dir: destination directory (created if missing).
        results: rows to write; defaults to the session's global
            :data:`BENCH_RESULTS`.

    Returns:
        The paths written (empty when nothing was recorded).
    """
    rows_by_bench = BENCH_RESULTS if results is None else results
    written: List[Path] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for bench, rows in rows_by_bench.items():
        path = out_dir / f"BENCH_{bench}.json"
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": bench,
            "scale": bench_scale(),
            "results": rows,
        }
        path.write_text(json.dumps(payload, indent=1))
        written.append(path)
    return written


def run_perf_sentinel(baseline_dir: Path, written: List[Path]) -> Optional[Path]:
    """Sentinel-check freshly written trajectories against baselines.

    For every written ``BENCH_<name>.json`` with a same-named file under
    ``baseline_dir``, runs :func:`repro.obs.sentinel.check_regressions`
    and registers the outcome as a terminal-summary report block.  The
    combined JSON document lands in ``PERF_SENTINEL.json`` next to the
    fresh results.

    Returns:
        The path of the sentinel document, or ``None`` when no written
        file had a matching baseline.
    """
    from repro.obs.sentinel import check_regressions

    baseline_dir = Path(baseline_dir)
    documents: Dict[str, Any] = {}
    lines: List[str] = []
    for path in written:
        baseline = baseline_dir / path.name
        if not baseline.is_file():
            continue
        report = check_regressions(baseline, path)
        documents[path.name] = report.to_dict()
        status = "OK" if report.ok else "FAIL"
        lines.append(
            f"{path.name}: {status} ({report.compared} compared, "
            f"{report.skipped} skipped)"
        )
        for case, metric in report.missing:
            lines.append(f"  MISSING     {case}/{metric}")
        for finding in report.regressions:
            lines.append(f"  REGRESSION  {finding.describe()}")
        for finding in report.improvements:
            lines.append(f"  improved    {finding.describe()}")
    if not documents:
        return None
    register_report("perf sentinel", lines)
    out = written[0].parent / "PERF_SENTINEL.json"
    out.write_text(
        json.dumps(
            {"kind": "repro.perf_sentinel.session", "benches": documents},
            indent=1,
        )
    )
    return out


def pytest_sessionfinish(session, exitstatus):
    out_dir = Path(os.environ.get("REPRO_BENCH_OUT", "."))
    written = write_bench_results(out_dir)
    baseline = os.environ.get("REPRO_BENCH_BASELINE", "")
    if baseline.strip() and written:
        run_perf_sentinel(Path(baseline), written)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, lines in REPORTS.items():
        terminalreporter.write_sep("=", title)
        for line in lines:
            terminalreporter.write_line(line)
    if BENCH_RESULTS:
        out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
        terminalreporter.write_line(
            f"machine-readable results: BENCH_<name>.json in {out_dir!r} "
            f"for {', '.join(sorted(BENCH_RESULTS))}"
        )


def selected_cases() -> List[str]:
    raw = os.environ.get("REPRO_BENCH_CASES", "")
    if raw.strip():
        return [name.strip() for name in raw.split(",") if name.strip()]
    return case_names()


def bench_scale() -> Optional[float]:
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    return float(raw) if raw.strip() else None


_CASE_CACHE: Dict[str, object] = {}


def bench_case(name: str):
    """Load (and cache) a contest case at the benchmark scale."""
    key = f"{name}@{bench_scale()}"
    if key not in _CASE_CACHE:
        _CASE_CACHE[key] = load_case(name, scale=bench_scale())
    return _CASE_CACHE[key]


@pytest.fixture(params=selected_cases())
def contest_case(request):
    return bench_case(request.param)
