"""``repro evaluate``: independently check a solution file against its case."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.drc import DesignRuleChecker
from repro.io import parse_case_file, parse_solution_file
from repro.timing.analysis import TimingAnalyzer
from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The ``repro evaluate`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro evaluate",
        description="Evaluate a die-level routing solution: DRC + timing.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument("case_file", help="the case the solution solves")
    parser.add_argument("solution_file", help="the solution to evaluate")
    parser.add_argument(
        "--worst",
        type=int,
        default=5,
        help="how many of the worst connections to print",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the full utilization/timing report",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="the solution file is JSON (repro route --json output)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    system, netlist, delay_model = parse_case_file(args.case_file)
    if args.json:
        from repro.io import read_solution_json

        solution = read_solution_json(args.solution_file, system, netlist)
    else:
        solution = parse_solution_file(args.solution_file, system, netlist)

    report = DesignRuleChecker(system, netlist, delay_model).check(solution)
    print(report.summary())
    for violation in report.violations[:20]:
        print(f"  {violation}")

    if solution.is_complete:
        analyzer = TimingAnalyzer(system, netlist, delay_model)
        timing = analyzer.analyze(solution)
        print(f"critical delay : {timing.critical_delay:.2f}")
        print(f"#CONF          : {solution.conflict_count()}")
        for worst in analyzer.worst_connections(solution, args.worst):
            conn = netlist.connections[worst.connection_index]
            net = netlist.net(conn.net_index)
            print(
                f"  net {net.name} -> die {conn.sink_die}: delay "
                f"{worst.delay:.2f} (SLL {worst.sll_delay:.2f}, TDM "
                f"{worst.tdm_delay:.2f})"
            )
    else:
        missing = len(solution.unrouted_connections())
        print(f"incomplete solution: {missing} unrouted connections")
    if args.report:
        from repro.report import solution_report

        print()
        print(solution_report(solution, delay_model), end="")
    return 0 if report.is_clean and solution.is_complete else 1


if __name__ == "__main__":
    sys.exit(main())
