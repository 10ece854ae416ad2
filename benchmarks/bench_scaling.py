"""Runtime scaling of our router across instance size.

The paper's runtime advantage (5.761x over [18], 34x over the 3rd winner)
rests on the router scaling gracefully; this benchmark sweeps one case
across scales and reports connections vs wall-clock, so super-linear
blow-ups in any phase show up immediately.
"""

from __future__ import annotations

import time

from benchmarks.conftest import register_report
from repro import SynergisticRouter
from repro.benchgen import load_case

SCALES = [1.0 / 64, 1.0 / 32, 1.0 / 16]


def test_runtime_scaling(benchmark):
    rows = []

    def sweep():
        for scale in SCALES:
            case = load_case("case06", scale=scale)
            start = time.perf_counter()
            result = SynergisticRouter(case.system, case.netlist).route()
            elapsed = time.perf_counter() - start
            rows.append(
                (
                    scale,
                    case.netlist.num_connections,
                    elapsed,
                    result.critical_delay,
                    result.conflict_count,
                )
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        f"{'scale':>8s} {'conns':>8s} {'time(s)':>9s} {'us/conn':>9s} "
        f"{'delay':>8s} {'conf':>6s}"
    ]
    for scale, conns, elapsed, delay, conf in rows:
        per_conn = elapsed / conns * 1e6 if conns else 0.0
        lines.append(
            f"{scale:8.4f} {conns:8d} {elapsed:9.2f} {per_conn:9.1f} "
            f"{delay:8.1f} {conf:6d}"
        )
    register_report("Runtime scaling (case06 sweep)", lines)
    # Soft check: per-connection cost should not explode across a 4x size
    # range (allows congestion effects, catches quadratic blow-ups).
    per_conn = [row[2] / row[1] for row in rows]
    assert per_conn[-1] <= per_conn[0] * 8
