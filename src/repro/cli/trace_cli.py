"""``repro trace``: summarize, attribute and export a JSONL trace.

Front-end for :mod:`repro.obs.profile`.  Given a trace written with
``repro route --trace-out trace.jsonl``, prints the self-time
attribution table (whose total equals the trace's end-to-end wall time),
optionally the critical path, derived cache rates and histogram
quantiles, and can export a Chrome ``trace_event`` or speedscope JSON
flamegraph.

Exit status: 0 on success, 2 on usage/file errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.obs.profile import TraceProfile


def build_parser() -> argparse.ArgumentParser:
    """The ``repro trace`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Analyze a JSONL instrumentation trace: span-tree self-time "
            "attribution, critical path, cache rates, histogram quantiles "
            "and flamegraph export."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "trace",
        help="JSONL trace file (written by `repro route --trace-out`)",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="also print the heaviest root-to-leaf span chain",
    )
    parser.add_argument(
        "--export",
        choices=["chrome", "speedscope"],
        help="write a flamegraph document instead of nothing extra: "
        "chrome trace_event JSON (chrome://tracing) or speedscope JSON",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="output path for --export (default: <trace>.<format>.json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the full analysis as one JSON document instead of text",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="limit the attribution table to the N heaviest rows",
    )
    return parser


def _format_attribution(profile: TraceProfile, top: int) -> str:
    rows = profile.attribution()
    shown = rows if top <= 0 else rows[: top + 1]  # keep (untracked)
    name_width = max(
        [len("span")] + [len(row.name) for row in shown]
    )
    lines = [
        f"{'span':<{name_width}}  {'count':>6}  {'total_s':>10}  "
        f"{'self_s':>10}  {'self%':>6}  {'errors':>6}",
    ]
    for row in shown:
        lines.append(
            f"{row.name:<{name_width}}  {row.count:>6}  {row.total:>10.4f}  "
            f"{row.self_time:>10.4f}  {row.self_fraction:>6.1%}  "
            f"{row.errors:>6}"
        )
    total_self = sum(row.self_time for row in rows)
    lines.append(
        f"{'total':<{name_width}}  {'':>6}  {'':>10}  {total_self:>10.4f}  "
        f"{'':>6}  {'':>6}"
    )
    lines.append(f"wall time: {profile.wall_seconds:.4f}s")
    return "\n".join(lines)


def _format_critical_path(profile: TraceProfile) -> str:
    path = profile.critical_path()
    if not path:
        return "critical path: (no spans)"
    lines = ["critical path:"]
    for depth, node in enumerate(path):
        lines.append(
            f"{'  ' * depth}-> {node.name}  "
            f"({node.dur:.4f}s total, {node.self_time:.4f}s self)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        print(f"repro trace: no such trace file: {trace_path}", file=sys.stderr)
        return 2
    try:
        profile = TraceProfile.from_jsonl(trace_path)
    except (ValueError, KeyError) as exc:
        print(f"repro trace: malformed trace: {exc}", file=sys.stderr)
        return 2

    if args.export:
        if args.export == "chrome":
            document = profile.to_chrome()
            default_name = f"{trace_path.name}.chrome.json"
        else:
            document = profile.to_speedscope(name=trace_path.name)
            default_name = f"{trace_path.name}.speedscope.json"
        out = Path(args.out) if args.out else trace_path.parent / default_name
        out.write_text(json.dumps(document, indent=1))
        # Keep stdout machine-parseable under --json: status goes to stderr.
        status_stream = sys.stderr if args.json else sys.stdout
        print(f"{args.export} export written : {out}", file=status_stream)

    if args.json:
        print(json.dumps(profile.to_dict(), indent=1))
        return 0

    print(
        f"trace: {trace_path}  "
        f"({len(profile.events)} events, {len(profile.spans)} spans)"
    )
    print()
    print(_format_attribution(profile, args.top))
    if args.critical_path:
        print()
        print(_format_critical_path(profile))
    rates = profile.rates()
    if rates:
        print()
        print("derived rates:")
        for name, value in rates.items():
            print(f"  {name:<36} {value:.1%}")
    histograms = profile.quantiles()
    if histograms:
        print()
        print("histograms (sketch quantiles):")
        for name, summary in histograms.items():
            print(
                f"  {name:<24} n={summary.count:<7} p50={summary.p50:.4g} "
                f"p90={summary.p90:.4g} p99={summary.p99:.4g} "
                f"max={summary.maximum:.4g}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
