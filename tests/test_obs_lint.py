"""Lint contract: core phases must use the obs layer, not ad-hoc I/O.

``src/repro/core/`` may not grow bare wall-clock calls (spans and
``time.perf_counter`` via the tracer are the sanctioned clocks) or
``print(`` calls (progress goes through ``repro.obs.get_logger``).

Historically this was a regex grep; it now drives the AST engine in
:mod:`repro.lint` (rules ``REPRO001``/``REPRO002``), which understands
strings and comments instead of guessing, honors ``# lint: disable=``
waivers, and shares rule ids with ``repro lint``.  The test names are
unchanged so pass/fail history stays comparable.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint import lint_file, resolve_rules

CORE_DIR = Path(repro.__file__).resolve().parent / "core"
CORE_FILES = sorted(CORE_DIR.glob("*.py"))

#: The obs-discipline subset of the rule pack (wall clocks, prints).
OBS_RULES = resolve_rules(["REPRO001", "REPRO002"])


def test_core_files_were_found():
    assert len(CORE_FILES) >= 10, f"unexpected core layout under {CORE_DIR}"


@pytest.mark.parametrize("path", CORE_FILES, ids=lambda p: p.name)
def test_no_bare_timing_or_print_in_core(path):
    offenders = [
        finding.render()
        for finding in lint_file(path, rules=OBS_RULES)
        if not finding.suppressed
    ]
    assert not offenders, "\n".join(offenders)
