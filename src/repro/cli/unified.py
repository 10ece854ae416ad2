"""``repro``: the unified command-line interface.

One executable, one subcommand per task::

    repro route --contest-case case02 --drc
    repro evaluate case.txt solution.txt
    repro generate case05 --out-dir cases/
    repro lint src/
    repro resume runs/ckpt_0003_phase2-lr.json
    repro trace trace.jsonl --critical-path --export chrome
    repro perf BENCH_phase2.json bench_out/BENCH_phase2.json

Each subcommand delegates to the matching single-purpose module in
:mod:`repro.cli`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional

from repro import __version__

#: Subcommand name -> lazy loader of its ``main(argv)`` entry point.
_SUBCOMMANDS: Dict[str, str] = {
    "route": "repro.cli.main",
    "evaluate": "repro.cli.evaluate",
    "generate": "repro.cli.generate",
    "lint": "repro.cli.lint_cli",
    "resume": "repro.cli.resume_cli",
    "serve": "repro.cli.serve_cli",
    "trace": "repro.cli.trace_cli",
    "perf": "repro.cli.perf_cli",
}

_DESCRIPTIONS: Dict[str, str] = {
    "route": "route a case and emit the solution",
    "evaluate": "independently check a solution file (DRC + timing)",
    "generate": "generate contest-suite case files",
    "lint": "run the AST invariant linter",
    "resume": "continue a checkpointed routing run",
    "serve": "replay a deterministic load through the routing service",
    "trace": "attribute/summarize/export a JSONL trace",
    "perf": "check fresh timings against a committed baseline",
}


def _load(subcommand: str) -> Callable[[Optional[List[str]]], int]:
    module = __import__(_SUBCOMMANDS[subcommand], fromlist=["main"])
    return module.main


def _usage() -> str:
    lines = [
        "usage: repro [--version] <command> [args...]",
        "",
        "commands:",
    ]
    for name in _SUBCOMMANDS:
        lines.append(f"  {name:<10} {_DESCRIPTIONS[name]}")
    lines.append("")
    lines.append("run `repro <command> --help` for command arguments")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: dispatch ``repro <command> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_usage())
        return 0
    if argv[0] == "--version":
        print(f"repro {__version__}")
        return 0
    command, rest = argv[0], argv[1:]
    if command not in _SUBCOMMANDS:
        print(f"repro: unknown command {command!r}", file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2
    return _load(command)(rest)


if __name__ == "__main__":
    sys.exit(main())
