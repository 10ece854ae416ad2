"""``repro perf``: the perf-regression sentinel as a command.

Front-end for :mod:`repro.obs.sentinel`.  Compares a committed baseline
(``BENCH_*.json`` trajectory or run report) against a freshly measured
document and fails when a wall-time metric slowed down beyond the
tolerance plus the baseline's own sample noise, or when a baseline
metric is missing from the fresh document.

Exit status: 0 when no regression, 1 when regressions or missing
metrics were flagged, 2 on usage/file errors.  ``make perf`` and the
benchmark CI job run this against the committed baselines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.obs.sentinel import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_NOISE_FLOOR,
    DEFAULT_TOLERANCE,
    SentinelReport,
    check_regressions,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro perf`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro perf",
        description=(
            "Perf-regression sentinel: compare a fresh benchmark "
            "trajectory or run report against a committed baseline and "
            "flag statistically meaningful slowdowns."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "baseline",
        help="committed baseline: BENCH_*.json trajectory or a run report",
    )
    parser.add_argument(
        "current",
        help="freshly measured document of the same shape",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="RATIO",
        help=f"slowdown ratio that always flags (default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=DEFAULT_NOISE_FLOOR,
        metavar="FRAC",
        help="minimum relative headroom granted to every metric "
        f"(default: {DEFAULT_NOISE_FLOOR})",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        metavar="S",
        help="ignore timings below this many seconds "
        f"(default: {DEFAULT_MIN_SECONDS})",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the sentinel report as JSON instead of text",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the JSON sentinel report to this file",
    )
    return parser


def _render_text(report: SentinelReport) -> str:
    lines = [
        f"compared {report.compared} metric(s), skipped {report.skipped} "
        f"below {report.min_seconds}s "
        f"(tolerance {report.tolerance}x, noise floor {report.noise_floor})"
    ]
    for case, metric in report.missing:
        lines.append(f"MISSING     {case}/{metric}: in the baseline, not measured")
    for finding in report.regressions:
        lines.append(f"REGRESSION  {finding.describe()}")
    for finding in report.improvements:
        lines.append(f"improved    {finding.describe()}")
    lines.append("perf sentinel: " + ("OK" if report.ok else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    for label, path in (("baseline", args.baseline), ("current", args.current)):
        if not Path(path).is_file():
            print(f"repro perf: no such {label} file: {path}", file=sys.stderr)
            return 2
    try:
        report = check_regressions(
            args.baseline,
            args.current,
            tolerance=args.tolerance,
            noise_floor=args.noise_floor,
            min_seconds=args.min_seconds,
        )
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"repro perf: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(_render_text(report))
    if args.output:
        Path(args.output).write_text(json.dumps(report.to_dict(), indent=1))
        if not args.json:
            print(f"sentinel report written : {args.output}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
