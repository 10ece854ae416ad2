"""``repro resume``: continue a checkpointed routing run.

The case and config travel inside the checkpoint (see
docs/resilience.md), so the only required argument is the checkpoint
file — or its directory, which resumes from the latest barrier.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The ``repro resume`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro resume",
        description="Resume a checkpointed routing run, bit-identical to "
        "an uninterrupted one.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "checkpoint",
        help="a checkpoint file, or a checkpoint directory (resumes from "
        "its latest barrier)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="checkpoint the resumed run's remaining barriers into this "
        "(fresh) directory",
    )
    parser.add_argument("--output", "-o", help="write the solution to this file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="write the solution as JSON instead of the text format",
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
        "--quiet", action="store_true", help="suppress the result summary"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    from repro.api import RouteRequest, execute_request
    from repro.io import CheckpointFormatError

    request = RouteRequest(
        resume_from=args.checkpoint, checkpoint_dir=args.checkpoint_dir
    )
    try:
        result = execute_request(request)
    except FileNotFoundError as exc:
        print(f"repro resume: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except CheckpointFormatError as exc:
        print(f"repro resume: invalid checkpoint: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"resumed from       : {args.checkpoint}")
        print(f"critical delay     : {result.critical_delay:.2f}")
        print(f"SLL conflicts      : {result.conflict_count}")
        print(f"degraded           : {result.degraded}")
    if args.metrics_out:
        from repro.obs import write_run_report

        write_run_report(
            args.metrics_out, result, case={"source": args.checkpoint}
        )
        if not args.quiet:
            print(f"run report written : {args.metrics_out}")
    if args.output:
        if args.json:
            from repro.io import write_solution_json

            write_solution_json(args.output, result.solution)
        else:
            from repro.io import write_solution_file

            write_solution_file(args.output, result.solution)
        if not args.quiet:
            print(f"solution written   : {args.output}")
    return 0 if result.conflict_count == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
