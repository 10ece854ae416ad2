"""docs/benchmarks.md lists exactly the benchmark modules that exist.

Each row of its module table names where the benchmark's result is kept:
a ``## `` section of EXPERIMENTS.md (``EXPERIMENTS.md § <heading>``) or a
committed ``BENCH_*.json`` file at the repository root.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_HEADER = "| module | regenerates | result |"


def table_rows():
    """``(module, result)`` cells of the docs/benchmarks.md module table."""
    lines = (ROOT / "docs" / "benchmarks.md").read_text().splitlines()
    start = lines.index(TABLE_HEADER) + 2  # skip the header and the rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((cells[0].strip("`"), cells[-1]))
    return rows


def test_table_lists_every_benchmark_module():
    listed = [module for module, _ in table_rows()]
    on_disk = sorted(path.name for path in (ROOT / "benchmarks").glob("bench_*.py"))
    assert len(listed) == len(set(listed)), "a module is listed twice"
    assert sorted(listed) == on_disk


def test_every_row_names_an_existing_result():
    headings = {
        line[3:].strip()
        for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("## ")
    }
    for module, result in table_rows():
        for place in result.split(";"):
            place = place.strip()
            bench = re.fullmatch(r"`(BENCH_\w+\.json)`", place)
            if bench:
                assert (ROOT / bench.group(1)).is_file(), (module, place)
            else:
                assert place.startswith("EXPERIMENTS.md § "), (module, place)
                section = place[len("EXPERIMENTS.md § ") :]
                assert section in headings, (module, section)
