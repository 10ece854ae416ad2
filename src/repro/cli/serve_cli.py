"""``repro serve``: drive a deterministic load through the routing service.

Spins up a :class:`repro.serve.RoutingService`, replays the seeded
workload of a :class:`repro.serve.LoadSpec` through it, and reports
throughput, latency quantiles, warm-cache hit rates and the
fingerprint-vs-sequential verdict (docs/serving.md).  ``--check`` turns
the verdict into the exit code, which is how CI's serve-smoke job runs
it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__


def build_parser() -> argparse.ArgumentParser:
    """The ``repro serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Replay a deterministic request load through the "
        "routing service and report req/s, latency quantiles and warm "
        "cache hit rates.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--cases",
        default="case02",
        help="comma-separated contest case names the workload mixes "
        "(default: case02)",
    )
    parser.add_argument(
        "--requests", type=int, default=8, help="total requests to issue"
    )
    parser.add_argument(
        "--concurrency", type=int, default=2, help="service worker threads"
    )
    parser.add_argument(
        "--seed", type=int, default=2025, help="workload mix seed"
    )
    parser.add_argument(
        "--priorities",
        default="0",
        help="comma-separated priority levels drawn per request "
        "(default: 0 — no preemption pressure)",
    )
    parser.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request SLO mapped onto the resilience budget "
        "(late requests degrade instead of failing)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=8,
        help="warm-artifact cache LRU bound",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        help="write the JSON load report to this file",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream service telemetry as JSONL trace events to this file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless: zero failures, warm cache hits > 0, "
        "and every response fingerprint matches its sequential run",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        help="enable structured progress logs on stderr at this level",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    from repro.obs import JsonlSink, Tracer
    from repro.serve import LoadSpec, run_load

    spec = LoadSpec(
        cases=tuple(name.strip() for name in args.cases.split(",") if name.strip()),
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        priorities=tuple(
            int(level) for level in args.priorities.split(",") if level.strip()
        ),
        slo_seconds=args.slo,
        cache_entries=args.cache_entries,
    )
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    tracer = Tracer(sink)
    try:
        report = run_load(spec, tracer=tracer)
    finally:
        if sink is not None:
            sink.close()

    if not args.quiet:
        print(f"requests           : {report.total} over {', '.join(spec.cases)}")
        print(
            f"status             : {report.ok} ok / {report.degraded} degraded "
            f"/ {report.failed} failed"
        )
        print(f"throughput         : {report.requests_per_second:.2f} req/s")
        print(
            f"latency p50 / p99  : {report.latency_p50:.3f}s / "
            f"{report.latency_p99:.3f}s"
        )
        print(
            f"artifact cache     : {report.cache_hits} hits / "
            f"{report.cache_misses} misses ({report.cache_hit_rate:.0%})"
        )
        print(f"preemptions        : {report.preemptions}")
        print(
            f"fingerprints       : {report.fingerprint_matches} match, "
            f"{len(report.fingerprint_mismatches)} mismatch"
        )
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=1, sort_keys=True)
        )
        if not args.quiet:
            print(f"load report written: {args.report}")
    if args.trace_out and not args.quiet:
        print(f"trace written      : {args.trace_out}")

    if args.check:
        problems = []
        if report.failed:
            problems.append(f"{report.failed} request(s) failed")
        if report.cache_hits <= 0:
            problems.append("warm-artifact cache never hit")
        if report.fingerprint_mismatches:
            problems.append(
                "fingerprint mismatches: "
                + ", ".join(report.fingerprint_mismatches)
            )
        if report.fingerprint_matches != report.ok:
            problems.append(
                f"only {report.fingerprint_matches} of {report.ok} ok "
                "responses verified against the sequential oracle"
            )
        if problems:
            for line in problems:
                print(f"CHECK FAILED: {line}", file=sys.stderr)
            return 1
        if not args.quiet:
            print("checks             : all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
