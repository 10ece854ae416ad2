"""``repro route``: route a case and emit the solution."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import (
    DelayModel,
    DesignRuleChecker,
    RouteRequest,
    __version__,
    execute_request,
)
from repro.cli import contest_case, read_case, reports_input_errors
from repro.io import write_solution_file


def build_parser() -> argparse.ArgumentParser:
    """The ``repro route`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro route",
        description=(
            "Synergistic die-level router for multi-FPGA systems "
            "(DAC 2025 reproduction)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--case-file", help="path to a case file")
    source.add_argument(
        "--contest-case",
        help="generate a contest case by name (case01..case10) or number",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="scale override for --contest-case (1.0 = full Table II size)",
    )
    parser.add_argument("--output", "-o", help="write the solution to this file")
    parser.add_argument(
        "--router",
        default="ours",
        help="router to run: ours, winner1, winner2, winner3, iseda2024, "
        "adapted-fpga-level",
    )
    parser.add_argument(
        "--drc", action="store_true", help="run the design-rule checker afterwards"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="write the solution (and any generated case) as JSON",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write schema-versioned checkpoints at every barrier; resume "
        "later with `repro resume DIR` (ours router only)",
    )
    parser.add_argument(
        "--precheck",
        action="store_true",
        help="run the feasibility analysis first; abort on an impossibility proof",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream instrumentation events (spans, counters, per-iteration "
        "telemetry) to this JSONL file",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the schema-versioned JSON run report to this file",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="enable structured progress logs on stderr at this level",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-phase report"
    )
    return parser


def _resolve_router(name: str):
    if name == "ours":
        return None  # handled by the main path
    from repro.baselines import all_baseline_routers

    routers = all_baseline_routers()
    if name not in routers:
        choices = ["ours"] + sorted(routers)
        raise SystemExit(f"unknown router {name!r}; choose from {choices}")
    return routers[name]


@reports_input_errors("repro route")
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    sink = None
    tracer = None
    if args.trace_out or args.metrics_out:
        from repro.obs import JsonlSink, Tracer

        sink = JsonlSink(args.trace_out) if args.trace_out else None
        tracer = Tracer(sink)
    # Close the sink however the run ends: a crashed route still leaves
    # whatever was traced before the failure durable on disk.
    try:
        if args.case_file:
            system, netlist, delay_model = read_case(args.case_file)
        else:
            case = contest_case(args.contest_case, args.scale)
            system, netlist = case.system, case.netlist
            delay_model = DelayModel()

        if args.precheck:
            from repro.analysis import check_feasibility

            feasibility = check_feasibility(system, netlist)
            for line in feasibility.warnings:
                print(f"warning: {line}")
            if feasibility.is_provably_infeasible:
                for line in feasibility.infeasible:
                    print(f"INFEASIBLE: {line}")
                return 2

        baseline_cls = _resolve_router(args.router)
        if baseline_cls is None:
            from repro.io import case_to_dict

            request = RouteRequest(
                case=case_to_dict(system, netlist, delay_model),
                checkpoint_dir=args.checkpoint_dir,
            )
            result = execute_request(request, tracer=tracer)
        else:
            result = baseline_cls(system, netlist, delay_model).route()
    finally:
        if sink is not None:
            sink.close()

    if not args.quiet:
        print(f"router             : {args.router}")
        print(f"nets / connections : {netlist.num_nets} / {netlist.num_connections}")
        print(f"critical delay     : {result.critical_delay:.2f}")
        print(f"SLL conflicts      : {result.conflict_count}")
        fractions = result.phase_times.fractions()
        print(
            f"runtime            : {result.phase_times.total:.2f}s "
            f"(IR {fractions['IR']:.0%}, TA {fractions['TA']:.0%}, "
            f"LG&WA {fractions['LG & WA']:.0%})"
        )
    if args.drc:
        report = DesignRuleChecker(system, netlist, delay_model).check(result.solution)
        print(report.summary())
        if not report.is_clean:
            for violation in report.violations[:20]:
                print(f"  {violation}")
            return 1
    if args.trace_out and not args.quiet:
        print(f"trace written      : {args.trace_out}")
    if args.metrics_out:
        from repro.obs import write_run_report

        write_run_report(
            args.metrics_out,
            result,
            case={
                "source": args.case_file or args.contest_case,
                "router": args.router,
                "nets": netlist.num_nets,
                "connections": netlist.num_connections,
            },
        )
        if not args.quiet:
            print(f"run report written : {args.metrics_out}")
    if args.output:
        if args.json:
            from repro.io import write_solution_json

            write_solution_json(args.output, result.solution)
        else:
            write_solution_file(args.output, result.solution)
        if not args.quiet:
            print(f"solution written   : {args.output}")
    return 0 if result.conflict_count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
