"""Deterministic fault injection (docs/resilience.md).

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
a *site* — an obs span name (``"ir.negotiation"``, ``"phase2.lr"``, …) or
the executor's per-task site ``"parallel.task"`` — and the 0-based entry
count at which to act.  Sites are counted deterministically, so a plan
reproduces the same fault at the same program point on every run; chaos
tests rely on this to kill a worker at exactly the Nth task.

Wiring: :class:`FaultInjectingTracer` is a drop-in
:class:`repro.obs.Tracer` that fires the plan at every span entry, and
:class:`repro.parallel.ParallelExecutor` picks the plan off its tracer's
``fault_plan`` attribute and fires it once per task attempt — so a single
tracer handed to :func:`repro.api.execute_request` chaos-tests the whole
stack with no core-code changes.

Actions:

``"raise"``
    Raise :class:`InjectedFault` — a non-retryable error that aborts the
    run (the executor fails fast on it).
``"kill_worker"``
    Raise :class:`WorkerKilled`, a
    :class:`repro.parallel.TransientWorkerError`: the executor's
    bounded retry treats the task as idempotent and re-runs it (the
    site counter has advanced, so the retry passes the spec).
``"delay"``
    Sleep ``delay_seconds`` — for exercising wall-clock budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import Tracer
from repro.obs.sinks import TraceSink
from repro.parallel import TransientWorkerError

_ACTIONS = ("raise", "delay", "kill_worker")


class InjectedFault(RuntimeError):
    """Fault injected by a :class:`FaultPlan` ``"raise"`` action."""


class WorkerKilled(TransientWorkerError):
    """Injected worker death; retryable by the executor's bounded retry."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: act at the ``at``-th entry of the named site.

    Attributes:
        site: span name, or ``"parallel.task"`` for executor tasks.
        at: 0-based entry count at which the fault fires (exactly once).
        action: ``"raise"``, ``"delay"`` or ``"kill_worker"``.
        delay_seconds: sleep length for ``"delay"``.
    """

    site: str
    at: int = 0
    action: str = "raise"
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")


class FaultPlan:
    """Deterministic site-counting fault injector.

    Thread-compatible for the executor's use: counting and firing hold no
    locks, but tasks are dispatched in deterministic order only when
    ``num_workers == 1``; with a pool the *set* of attempts is fixed even
    though interleaving is not, which is all kill/retry tests need.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._counts: Dict[str, int] = {}
        #: ``(spec, entry_count)`` of every fault that has fired.
        self.fired: List[Tuple[FaultSpec, int]] = []

    def entries(self, site: str) -> int:
        """How many times a site has been entered so far."""
        return self._counts.get(site, 0)

    def fire(self, site: str) -> None:
        """Count one entry of ``site`` and act on any matching spec."""
        count = self._counts.get(site, 0)
        self._counts[site] = count + 1
        for spec in self.specs:
            if spec.site != site or spec.at != count:
                continue
            self.fired.append((spec, count))
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.action == "kill_worker":
                raise WorkerKilled(f"injected worker death at {site}[{count}]")
            else:
                raise InjectedFault(f"injected fault at {site}[{count}]")


class FaultInjectingTracer(Tracer):
    """A tracer that fires a :class:`FaultPlan` at every span entry.

    Span names are the fault sites; the plan is also exposed as
    ``fault_plan`` so :class:`repro.parallel.ParallelExecutor` picks it
    up for the per-task site.  The plan fires when the span is *created*
    (call sites always enter immediately via ``with``), keeping
    :class:`~repro.obs.tracer.Span` untouched.
    """

    def __init__(
        self, fault_plan: FaultPlan, sink: Optional[TraceSink] = None
    ) -> None:
        super().__init__(sink)
        self.fault_plan = fault_plan

    def span(self, name: str, **attrs: Any):
        self.fault_plan.fire(name)
        return super().span(name, **attrs)
