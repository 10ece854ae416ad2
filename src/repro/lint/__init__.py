"""Static analysis for the repo's reproducibility invariants (ISSUE 3).

``repro.lint`` is to source code what ``repro.drc`` is to routing
solutions: a rule engine that catches invariant violations before they
corrupt benchmarks.  The pieces:

* :mod:`repro.lint.engine` — AST walker, rule registry, per-line
  ``# lint: disable=RULE`` / file-level ``# lint: disable-file=RULE``
  suppressions.
* :mod:`repro.lint.rules` — the ``REPRO001``..``REPRO010`` rule pack
  (determinism, observability discipline, configuration hygiene); see
  ``docs/static-analysis.md`` for the full table.
* :mod:`repro.lint.finding` — the flat finding/report model shared by
  the text and JSON renderers.

The ``repro lint`` command (:mod:`repro.cli.lint_cli`) fronts
this package; ``tests/test_lint_rules.py`` gates ``src/repro`` itself on
a clean run.

Typical use::

    from repro.lint import lint_paths
    report = lint_paths(["src/repro"])
    assert not report.active, report.findings
"""

from repro.lint.engine import (
    META_RULE_ID,
    RULE_REGISTRY,
    FileContext,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    register,
    resolve_rules,
)
from repro.lint.finding import Finding, LintReport

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "META_RULE_ID",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "module_name_for",
    "register",
    "resolve_rules",
]
