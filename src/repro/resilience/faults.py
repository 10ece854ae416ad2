"""Deterministic fault injection (docs/resilience.md).

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
a *site* — an obs span name (``"ir.negotiation"``,
``"phase.legalization_wire_assignment"``, …) — and the 0-based entry
count at which to act.  Sites are counted deterministically, so a plan
reproduces the same fault at the same program point on every run; chaos
tests rely on this to crash a run at exactly the Nth entry of a span.

Wiring: :class:`FaultInjectingTracer` is a drop-in
:class:`repro.obs.Tracer` that fires the plan at every span entry, so a
single tracer handed to :func:`repro.api.execute_request` chaos-tests
the whole stack with no core-code changes.

Actions:

``"raise"``
    Raise :class:`InjectedFault`, which aborts the run.
``"delay"``
    Sleep ``delay_seconds`` — for exercising wall-clock budgets.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs import Tracer
from repro.obs.sinks import TraceSink

_ACTIONS = ("raise", "delay")


class InjectedFault(RuntimeError):
    """Fault injected by a :class:`FaultPlan` ``"raise"`` action."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: act at the ``at``-th entry of the named site.

    Attributes:
        site: span name.
        at: 0-based entry count at which the fault fires (exactly once).
        action: ``"raise"`` or ``"delay"``.
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

    Thread-safe: :class:`repro.serve.RoutingService` hands one
    :class:`FaultInjectingTracer` to all its request threads, so entries
    are counted, matched and recorded under a lock — every entry counts
    once and each spec fires at most once.  The action itself (sleep or
    raise) runs after the lock is released.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: ``(spec, entry_count)`` of every fault that has fired.
        self.fired: List[Tuple[FaultSpec, int]] = []

    def entries(self, site: str) -> int:
        """How many times a site has been entered so far."""
        return self._counts.get(site, 0)

    def fire(self, site: str) -> None:
        """Count one entry of ``site`` and act on any matching spec."""
        with self._lock:
            count = self._counts.get(site, 0)
            self._counts[site] = count + 1
            due = [s for s in self.specs if s.site == site and s.at == count]
            self.fired.extend((spec, count) for spec in due)
        for spec in due:
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
            else:
                raise InjectedFault(f"injected fault at {site}[{count}]")


class FaultInjectingTracer(Tracer):
    """A tracer that fires a :class:`FaultPlan` at every span entry.

    Span names are the fault sites; the plan is exposed as
    ``fault_plan``.  The plan fires when the span is *created*
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
