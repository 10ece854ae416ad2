"""The bit-identity contract, pinned: Table II routes and case10 migrates.

``tests/data/pinned_fingerprints.json`` holds, for the ten Table II cases
routed cold through :func:`repro.route_request` at the default config,
the solution fingerprint, critical delay and #CONF; the fingerprints of
six :meth:`EcoRouter.migrate` runs that move a default-config case10
route onto ``RevisionSpec(seed=1..6)``; and the fingerprints of
:meth:`EcoRouter.reroute_nets` on default-config case07 and case10
routes, ripping up every hundredth crossing net as
``benchmarks/bench_eco.py`` does.  It also records the Python and numpy
versions that produced them.

A change that keeps behaviour must pass this test unchanged.  A change
that alters behaviour regenerates the table and says so in CHANGES.md::

    PYTHONPATH=src python -m tests.test_pinned_fingerprints --write

A numpy version that gives different bytes is a finding about reduction
order, not a reason to skip: the failure message names both versions.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro.api import (
    DelayModel,
    EcoRouter,
    RouteRequest,
    SynergisticRouter,
    route_request,
    solution_fingerprint,
)
from repro.benchgen import RevisionSpec, case_names, load_case, revise_netlist

TABLE = Path(__file__).parent / "data" / "pinned_fingerprints.json"

#: Base case and revision seeds of the pinned ECO migrates.
ECO_BASE_CASE = "case10"
ECO_SEEDS = range(1, 7)

#: Cases of the pinned ECO reroutes.
REROUTE_CASES = ("case07", "case10")


def reroute_targets(netlist) -> list:
    """About 1% of the crossing nets, evenly strided (bench_eco.py)."""
    crossing = [net.index for net in netlist.crossing_nets()]
    budget = max(1, len(crossing) // 100)
    stride = max(1, len(crossing) // budget)
    return crossing[::stride][:budget]


def compute_table() -> Dict[str, Any]:
    """Route every pinned input and collect what the table records."""
    table2 = {}
    for name in case_names():
        response = route_request(RouteRequest(contest_case=name, warm_cache=False))
        if response.status != "ok":
            raise RuntimeError(f"{name}: {response.status} {response.error}")
        table2[name] = {
            "fingerprint": response.fingerprint,
            "critical_delay": response.critical_delay,
            "conflict_count": response.conflict_count,
        }
    model = DelayModel()
    bases = {}
    for name in sorted({ECO_BASE_CASE, *REROUTE_CASES}):
        case = load_case(name)
        bases[name] = (
            case,
            SynergisticRouter(case.system, case.netlist, model).route().solution,
        )
    case, base = bases[ECO_BASE_CASE]
    migrates = {}
    for seed in ECO_SEEDS:
        revision = revise_netlist(
            case.netlist, case.system.num_dies, RevisionSpec(seed=seed)
        )
        result = EcoRouter(case.system, model).migrate(base, revision)
        migrates[str(seed)] = solution_fingerprint(result.solution, model)
    reroutes = {}
    for name in REROUTE_CASES:
        case, base = bases[name]
        result = EcoRouter(case.system, model).reroute_nets(
            base, reroute_targets(case.netlist)
        )
        reroutes[name] = solution_fingerprint(result.solution, model)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "table2": table2,
        "eco": {"base_case": ECO_BASE_CASE, "fingerprints": migrates},
        "eco_reroute": reroutes,
    }


def test_pinned_fingerprints_hold():
    pinned = json.loads(TABLE.read_text())
    actual = compute_table()
    versions = (
        f"pinned under Python {pinned['python']} / numpy {pinned['numpy']}, "
        f"run under Python {actual['python']} / numpy {actual['numpy']}"
    )
    assert actual["table2"] == pinned["table2"], versions
    assert actual["eco"] == pinned["eco"], versions
    assert actual["eco_reroute"] == pinned["eco_reroute"], versions


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_pinned_fingerprints --write")
    TABLE.write_text(json.dumps(compute_table(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE}")
