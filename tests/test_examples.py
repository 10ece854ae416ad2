"""Smoke tests: every example script runs cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples should print their findings"


def test_examples_exist():
    names = {script.name for script in EXAMPLES}
    assert {
        "quickstart.py",
        "contest_flow.py",
        "topology_refinement.py",
        "eco_flow.py",
    } <= names
