"""Routing-as-a-service on top of the :mod:`repro.api` facade.

* :class:`RoutingService` (:mod:`repro.serve.service`) — priority
  admission queue, worker pool, shared warm-artifact cache, SLO budgets
  and checkpoint-based preemption.
* :class:`LoadSpec` / :func:`run_load` (:mod:`repro.serve.loadgen`) —
  the deterministic load generator behind ``repro serve`` and
  ``benchmarks/bench_serve.py``.

See docs/serving.md for the full tour.
"""

from repro.serve.loadgen import LoadReport, LoadSpec, build_requests, run_load
from repro.serve.service import Preempted, RoutingService, ServiceTicket

__all__ = [
    "LoadReport",
    "LoadSpec",
    "Preempted",
    "RoutingService",
    "ServiceTicket",
    "build_requests",
    "run_load",
]
