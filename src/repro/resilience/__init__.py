"""Robustness subsystem: checkpoints, resume, fault injection, budgets.

See docs/resilience.md.  Three pieces:

* **Checkpoints** — :class:`CheckpointManager` writes schema-versioned
  checkpoints at the router's natural barriers; a
  ``RouteRequest(resume_from=...)`` (:mod:`repro.api`) continues a run
  from any of them, bit-identical to an uninterrupted run
  (:func:`solution_fingerprint`-verified).
* **Fault injection** — :class:`FaultPlan` + :class:`FaultInjectingTracer`
  deterministically raise or delay at the Nth entry of a named span.
* **Graceful degradation** — ``RouterConfig.wall_clock_budget_seconds``
  makes the router exit early with the best-so-far legal solution,
  flagged ``degraded`` on the result and run report.
"""

from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import (
    FaultInjectingTracer,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.resilience.fingerprint import solution_fingerprint, solution_state

__all__ = [
    "CheckpointManager",
    "FaultInjectingTracer",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "solution_fingerprint",
    "solution_state",
]
