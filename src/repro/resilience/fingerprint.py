"""Solution fingerprints for bit-identity checks (docs/resilience.md).

A fingerprint digests exactly the surfaces the resume guarantee covers:
the per-use TDM ratios, the wire packing (wire order, per-wire ratio and
net order), the routed paths, and the critical delay.  Two runs with
equal fingerprints are interchangeable for every downstream consumer;
the resilience tests use this to prove a run resumed from a checkpoint
matches an uninterrupted run bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.route.solution import RoutingSolution
from repro.timing.delay import DelayModel
from repro.timing.analysis import TimingAnalyzer


def solution_state(
    solution: RoutingSolution, delay_model: Optional[DelayModel] = None
) -> Dict[str, Any]:
    """The canonical JSON-ready state a fingerprint digests.

    Floats are rendered with :func:`repr`, which is injective on
    binary64 — any bit difference in a ratio or delay changes the state.
    """
    model = delay_model if delay_model is not None else DelayModel()
    timing = TimingAnalyzer(solution.system, solution.netlist, model).analyze(
        solution
    )
    return {
        "critical_delay": repr(timing.critical_delay),
        "paths": [
            list(solution.path(i)) if solution.path(i) is not None else None
            for i in range(solution.netlist.num_connections)
        ],
        "ratios": sorted(
            (list(use), repr(ratio)) for use, ratio in solution.ratios.items()
        ),
        "wires": [
            [
                [wire.direction, wire.ratio, list(wire.net_indices)]
                for wire in solution.wires[edge_index]
            ]
            for edge_index in sorted(solution.wires)
        ],
    }


def solution_fingerprint(
    solution: RoutingSolution, delay_model: Optional[DelayModel] = None
) -> str:
    """SHA-256 over the canonical solution state."""
    state = solution_state(solution, delay_model)
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode("utf-8")
    )
    return digest.hexdigest()
