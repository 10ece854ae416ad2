"""``repro generate``: generate contest-suite case files."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.benchgen import case_names
from repro.cli import contest_case, reports_input_errors
from repro.io import write_case_file
from repro.timing.delay import DelayModel
from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The ``repro generate`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro generate",
        description=(
            "Generate die-level routing contest cases (Table II statistics)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "cases",
        nargs="*",
        default=[],
        help="case names/numbers to generate (default: all ten)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="scale override (1.0 = full Table II size; default per-case)",
    )
    parser.add_argument(
        "--out-dir", "-d", default="cases", help="output directory (created)"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print the Table II statistics only"
    )
    return parser


@reports_input_errors("repro generate")
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    names = args.cases if args.cases else case_names()
    out_dir = Path(args.out_dir)
    header = (
        f"{'case':8s} {'fpgas':>5s} {'dies':>5s} {'sll_e':>6s} {'sll_w':>9s} "
        f"{'tdm_e':>6s} {'tdm_w':>8s} {'nets':>9s} {'conns':>9s}"
    )
    for position, name in enumerate(names):
        case = contest_case(name, args.scale)
        if position == 0:  # a bad first name or scale prints nothing
            print(header)
        stats = case.stats()
        print(
            f"{case.spec.name:8s} {stats['fpgas']:5d} {stats['dies']:5d} "
            f"{stats['sll_edges']:6d} {stats['sll_wires']:9d} "
            f"{stats['tdm_edges']:6d} {stats['tdm_wires']:8d} "
            f"{stats['nets']:9d} {stats['connections']:9d}"
        )
        if not args.stats:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{case.spec.name}.case"
            write_case_file(path, case.system, case.netlist, DelayModel())
    if not args.stats:
        print(f"written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
