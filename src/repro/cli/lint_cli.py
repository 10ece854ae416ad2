"""``repro lint``: run the invariant linter over source trees.

Front-end for :mod:`repro.lint`.  Exit status: 0 when no active
findings, 1 when the tree has violations, 2 on usage errors (argparse).

``--format json`` emits the schema-tagged findings document
(``repro.lint.findings/v1``) for CI artifacts; ``--output`` writes it to
a file while keeping the human summary on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.lint import LintReport, all_rules, lint_paths, resolve_rules


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter for the repro codebase: "
            "determinism, observability discipline and configuration "
            "hygiene rules (REPRO001..REPRO012)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="findings format on stdout (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="also write the JSON findings document to this file",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id, scope, rationale) and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings only)",
    )
    return parser


def _render_rule_table() -> str:
    lines = []
    for rule in all_rules():
        scope = ", ".join(rule.include) if rule.include else "everywhere"
        if rule.exclude:
            scope += f" except {', '.join(rule.exclude)}"
        lines.append(f"{rule.rule_id}  {rule.title}")
        lines.append(f"    scope : {scope}")
        lines.append(f"    why   : {rule.rationale}")
        lines.append(f"    fix   : {rule.remedy}")
    return "\n".join(lines)


def _render_text(report: LintReport, quiet: bool) -> str:
    lines = [finding.render() for finding in report.findings]
    if not quiet:
        by_rule = ", ".join(
            f"{rule_id}:{count}" for rule_id, count in report.by_rule().items()
        )
        summary = (
            f"{report.files_scanned} files scanned, "
            f"{len(report.active)} finding(s), "
            f"{len(report.suppressed)} suppressed"
        )
        if by_rule:
            summary += f" [{by_rule}]"
        lines.append(summary)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_render_rule_table())
        return 0
    try:
        rules = resolve_rules(args.rules.split(",")) if args.rules else None
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        rendered = _render_text(report, args.quiet)
        if rendered:
            print(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report.to_dict(), handle, indent=1, sort_keys=True)
        if not args.quiet and args.format != "json":
            print(f"findings written    : {args.output}")
    return 1 if report.active else 0


if __name__ == "__main__":
    sys.exit(main())
