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
    solution: RoutingSolution,
    delay_model: Optional[DelayModel] = None,
    *,
    critical_delay: Optional[float] = None,
) -> Dict[str, Any]:
    """The canonical JSON-ready state a fingerprint digests.

    Floats are rendered with :func:`repr`, which is injective on
    binary64 — any bit difference in a ratio or delay changes the state.

    Args:
        solution: a complete solution.
        delay_model: the model timing the solution (default
            :class:`DelayModel`).
        critical_delay: the solution's critical delay under
            ``delay_model`` when the caller already has it (the router's
            own analysis); ``None`` re-derives it with a
            :class:`TimingAnalyzer` pass.
    """
    if critical_delay is None:
        model = delay_model if delay_model is not None else DelayModel()
        critical_delay = (
            TimingAnalyzer(solution.system, solution.netlist, model)
            .analyze(solution)
            .critical_delay
        )
    # Paths are tuples and uses are unique (the sort never compares
    # ratios); JSON writes tuples as lists.
    return {
        "critical_delay": repr(critical_delay),
        "paths": solution.paths(),
        "ratios": [
            (use, repr(ratio)) for use, ratio in sorted(solution.ratios.items())
        ],
        "wires": [
            [
                [wire.direction, wire.ratio, list(wire.net_indices)]
                for wire in solution.wires[edge_index]
            ]
            for edge_index in sorted(solution.wires)
        ],
    }


def solution_fingerprint(
    solution: RoutingSolution,
    delay_model: Optional[DelayModel] = None,
    *,
    critical_delay: Optional[float] = None,
) -> str:
    """SHA-256 over the canonical solution state.

    ``critical_delay`` is passed through to :func:`solution_state`: a
    caller that holds the router's delay for this solution and model
    skips the timing pass and gets the same digest.
    """
    state = solution_state(solution, delay_model, critical_delay=critical_delay)
    # The state is a fresh acyclic tree, so the encoder's cycle check only
    # costs time; the bytes are the same without it.
    digest = hashlib.sha256(
        json.dumps(state, sort_keys=True, check_circular=False).encode("utf-8")
    )
    return digest.hexdigest()
