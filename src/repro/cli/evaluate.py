"""``repro evaluate``: independently check a solution file against its case."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import read_case, read_solution, reports_input_errors
from repro.drc import DesignRuleChecker
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
        "--json",
        action="store_true",
        help="the solution file is JSON (repro route --json output)",
    )
    return parser


@reports_input_errors("repro evaluate")
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    system, netlist, delay_model = read_case(args.case_file)
    solution = read_solution(args.solution_file, system, netlist, as_json=args.json)

    report = DesignRuleChecker(system, netlist, delay_model).check(solution)
    print(report.summary())
    for violation in report.violations[:20]:
        print(f"  {violation}")

    if not solution.is_complete:
        missing = len(solution.unrouted_connections())
        print(f"incomplete solution: {missing} unrouted connections")
    elif (use := solution.unassigned_use()) is not None:
        net, edge, direction = use
        print(
            f"critical delay : unknown (net {netlist.net(net).name} on edge "
            f"{edge} direction {direction} has no TDM ratio and wire)"
        )
    else:
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
    return 0 if report.is_clean and solution.is_complete else 1


if __name__ == "__main__":
    sys.exit(main())
