"""Routing-as-a-service: a concurrent scheduler over :mod:`repro.api`.

:class:`RoutingService` turns the one-shot request/response surface
(docs/api.md) into a long-running facility (docs/serving.md):

* an admission queue ordered by ``(priority, arrival)``, drained by a
  fixed pool of worker threads;
* one shared :class:`repro.api.ArtifactCache`, so requests that repeat a
  topology skip graph construction, edge weights, Floyd–Warshall and
  the connection ordering (the warm path is bit-identical to the cold
  one);
* per-request SLOs mapped onto the resilience wall-clock budget, so a
  request that waited too long in the queue comes back *degraded*, not
  failed;
* checkpoint-based preemption: a higher-priority arrival can interrupt
  a running request at its next barrier; the loser writes one
  checkpoint there, is re-queued as a ``resume_from`` request and
  finishes bit-identical to an uninterrupted run (docs/resilience.md).
  A request that is never preempted writes no checkpoint.

Everything flows through :mod:`repro.api` — this module never touches
``repro.core`` internals (REPRO011) and never constructs
``RouterConfig`` itself (REPRO014).
"""

from __future__ import annotations

import dataclasses
import heapq
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.api import (
    ArtifactCache,
    CheckpointManager,
    RouteRequest,
    RouteResponse,
    route_request,
)
from repro.obs import Tracer, get_logger

__all__ = ["Preempted", "RoutingService", "ServiceTicket"]

_LOG = get_logger("serve")


class Preempted(Exception):
    """A running request was interrupted at a checkpoint barrier.

    Internal control flow: raised by the service's checkpoint wrapper
    right after a barrier is durably on disk, caught by the worker that
    owns the request, and converted into a re-queued ``resume_from``
    request.  It never escapes :meth:`RoutingService.result`.
    """

    def __init__(self, checkpoint: Path) -> None:
        super().__init__(f"preempted at {checkpoint}")
        self.checkpoint = checkpoint


class _PreemptingCheckpoint:
    """Checkpoint writer that turns a set event into a clean interrupt.

    The router offers it every barrier.  While no preemption is pending
    it returns without building the payload; once one is, it writes the
    barrier and raises :class:`Preempted`, so the run resumes from
    exactly the barrier it stopped at and preemption never loses work
    past it.  With ``every_barrier`` (the request named its own
    ``checkpoint_dir``) it writes every barrier regardless.  The
    :class:`CheckpointManager` comes from ``open_manager`` at the first
    write, so a run that writes nothing builds none.
    """

    def __init__(
        self,
        open_manager: Callable[[], CheckpointManager],
        stop: threading.Event,
        every_barrier: bool,
    ) -> None:
        self._open_manager = open_manager
        self._manager: Optional[CheckpointManager] = None
        self._stop = stop
        self._every_barrier = every_barrier

    def save(
        self, barrier: str, build_payload: Callable[[], Dict[str, Any]]
    ) -> Optional[Path]:
        preempt = self._stop.is_set()
        if not (preempt or self._every_barrier):
            return None
        if self._manager is None:
            self._manager = self._open_manager()
        path = self._manager.save(barrier, build_payload)
        if preempt:
            raise Preempted(path)
        return path


class ServiceTicket:
    """Handle for one submitted request; redeem with ``service.result``."""

    def __init__(self, request: RouteRequest, seq: int) -> None:
        self.request = request
        self.seq = seq
        self.priority = request.priority
        self.enqueued_at = time.perf_counter()
        self.queue_seconds = 0.0
        self.preemptions = 0
        self.preempt_event = threading.Event()
        self.done = threading.Event()
        self.response: Optional[RouteResponse] = None


class RoutingService:
    """A pool of router workers behind a priority admission queue.

    Args:
        workers: concurrent requests in flight (worker threads).
        cache: shared warm-artifact cache; built from ``cache_entries``
            when ``None``.
        cache_entries: LRU bound of the built-in cache.
        tracer: obs tracer receiving service telemetry; a
            fault-injecting tracer here subjects the whole service to
            its plan.
        spool_dir: directory for the preemption checkpoints; each
            request's are removed when it finishes.  A temporary
            directory (removed on close) when ``None``.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache: Optional[ArtifactCache] = None,
        cache_entries: int = 8,
        tracer: Optional[Tracer] = None,
        spool_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.tracer = tracer if tracer is not None else Tracer()
        self.cache = (
            cache if cache is not None else ArtifactCache(max_entries=cache_entries)
        )
        self._owns_spool = spool_dir is None
        self._spool = Path(
            spool_dir
            if spool_dir is not None
            else tempfile.mkdtemp(prefix="repro-serve-")
        )
        self._worker_count = workers
        self._cond = threading.Condition()
        self._heap: List = []
        self._running: Dict[int, ServiceTicket] = {}
        self._seq = 0
        self._stopping = False
        self._closed = False
        self._published_cache: Dict[str, int] = {}
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-serve-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / retrieval
    # ------------------------------------------------------------------
    def submit(self, request: RouteRequest) -> ServiceTicket:
        """Admit one request; returns the ticket to redeem for the response."""
        if not isinstance(request, RouteRequest):
            raise TypeError(
                f"submit() takes a RouteRequest, got {type(request).__name__}"
            )
        with self._cond:
            if self._stopping:
                raise RuntimeError("service is shutting down")
            self._seq += 1
            ticket = ServiceTicket(request, self._seq)
            heapq.heappush(self._heap, (-ticket.priority, ticket.seq, ticket))
            self.tracer.add("serve.submitted")
            self._maybe_preempt_locked(ticket.priority)
            self._cond.notify()
        return ticket

    def result(
        self, ticket: ServiceTicket, timeout: Optional[float] = None
    ) -> RouteResponse:
        """Block until the ticket's request finished; never raises for
        routing failures (they come back as ``status="failed"``)."""
        if not ticket.done.wait(timeout):
            raise TimeoutError(f"request {ticket.request.tag!r} still in flight")
        assert ticket.response is not None
        return ticket.response

    def route(self, requests: Sequence[RouteRequest]) -> List[RouteResponse]:
        """Submit a batch and gather the responses in submission order."""
        tickets = [self.submit(request) for request in requests]
        return [self.result(ticket) for ticket in tickets]

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._stopping:
                    self._cond.wait()
                if not self._heap:
                    return
                _, _, ticket = heapq.heappop(self._heap)
                self._running[index] = ticket
            try:
                self._run_ticket(ticket)
            finally:
                with self._cond:
                    self._running.pop(index, None)

    def _run_ticket(self, ticket: ServiceTicket) -> None:
        request = ticket.request
        ticket.queue_seconds += time.perf_counter() - ticket.enqueued_at
        effective = request
        if request.slo_seconds is not None:
            # The SLO covers queue wait too: whatever the queue ate is
            # gone from the routing budget (degraded beats late).
            remaining = max(0.0, request.slo_seconds - ticket.queue_seconds)
            effective = dataclasses.replace(request, slo_seconds=remaining)
        try:
            response = route_request(
                effective,
                tracer=self.tracer,
                cache=self.cache,
                checkpoint_factory=self._checkpoint_factory(ticket),
                queue_seconds=ticket.queue_seconds,
                preemptions=ticket.preemptions,
                reraise=(Preempted,),
            )
        except Preempted as exc:
            self._requeue(ticket, exc.checkpoint)
            return
        self._finish(ticket, response)

    def _spool_dir(self, ticket: ServiceTicket) -> Path:
        return self._spool / f"req{ticket.seq:04d}"

    def _checkpoint_factory(self, ticket: ServiceTicket):
        own_dir = ticket.request.checkpoint_dir
        base = Path(own_dir) if own_dir is not None else self._spool_dir(ticket)
        # One directory per attempt: a fresh manager restarts its write
        # sequence, so mixing attempts would corrupt latest() ordering.
        directory = base / f"attempt{ticket.preemptions}"
        stop = ticket.preempt_event

        def factory(system, netlist, delay_model, config, rng_state=None):
            # CheckpointManager stays a module attribute looked up when
            # the manager is built: perfbench/layers.py swaps it to time
            # the writes.
            return _PreemptingCheckpoint(
                lambda: CheckpointManager(
                    directory,
                    system,
                    netlist,
                    delay_model,
                    config=config,
                    rng_state=rng_state,
                ),
                stop,
                every_barrier=own_dir is not None,
            )

        return factory

    def _requeue(self, ticket: ServiceTicket, checkpoint: Path) -> None:
        """Put a preempted request back in the queue as a resume."""
        with self._cond:
            ticket.preemptions += 1
            ticket.preempt_event = threading.Event()
            # Swap the case source for the checkpoint: a request carries
            # exactly one source, and on resume the checkpoint's embedded
            # case + config win (bit-identity).
            ticket.request = dataclasses.replace(
                ticket.request,
                case=None,
                contest_case=None,
                case_file=None,
                resume_from=str(checkpoint),
            )
            ticket.enqueued_at = time.perf_counter()
            heapq.heappush(self._heap, (-ticket.priority, ticket.seq, ticket))
            self._cond.notify()
        self.tracer.add("serve.requeues")
        _LOG.info(
            "preempted %r at %s (preemption #%d)",
            ticket.request.tag,
            checkpoint.name,
            ticket.preemptions,
        )

    def _finish(self, ticket: ServiceTicket, response: RouteResponse) -> None:
        if ticket.request.checkpoint_dir is None:
            # Only preemptions write here, and the last attempt has
            # already read the checkpoint it resumed from.
            shutil.rmtree(self._spool_dir(ticket), ignore_errors=True)
        ticket.response = response
        self.tracer.add("serve.requests")
        if response.status == "ok":
            self.tracer.add("serve.ok")
        elif response.status == "degraded":
            self.tracer.add("serve.degraded")
        else:
            self.tracer.add("serve.failed")
            _LOG.warning("request %r failed: %s", response.tag, response.error)
        self.tracer.observe("serve.request.seconds", response.wall_seconds)
        self.tracer.observe("serve.queue.seconds", response.queue_seconds)
        ticket.done.set()

    def _maybe_preempt_locked(self, priority: int) -> None:
        """With the lock held: interrupt the weakest running request if
        every worker is busy and the newcomer outranks it."""
        if len(self._running) < self._worker_count:
            return
        victims = [
            ticket
            for ticket in self._running.values()
            if ticket.priority < priority and not ticket.preempt_event.is_set()
        ]
        if not victims:
            return
        # Weakest first; among equals the youngest (highest seq) yields.
        victim = min(victims, key=lambda t: (t.priority, -t.seq))
        victim.preempt_event.set()
        self.tracer.add("serve.preemptions")

    # ------------------------------------------------------------------
    # Telemetry / lifecycle
    # ------------------------------------------------------------------
    def publish_cache_stats(self) -> None:
        """Emit ``serve.artifacts.*`` counter deltas to the tracer.

        Idempotent per state: repeated calls only add what changed since
        the previous publication, so run-report counters stay exact.
        """
        stats = self.cache.stats
        self._publish_delta("serve.artifacts.hits", stats.hits)
        self._publish_delta("serve.artifacts.misses", stats.misses)
        self._publish_delta("serve.artifacts.evictions", stats.evictions)
        self._publish_delta("serve.artifacts.in_flight_waits", stats.in_flight_waits)

    def _publish_delta(self, counter: str, total: int) -> None:
        delta = total - self._published_cache.get(counter, 0)
        if delta:
            # The counter vocabulary is fixed by the call sites above
            # (REPRO008); this helper only forwards their literals.
            self.tracer.add(counter, delta)  # lint: disable=REPRO008
        self._published_cache[counter] = total

    def serve_section(self) -> Dict[str, Any]:
        """The ``"serve"`` run-report section (docs/observability.md)."""
        self.publish_cache_stats()
        tracer = self.tracer
        section: Dict[str, Any] = {
            "workers": self._worker_count,
            "submitted": tracer.counter("serve.submitted"),
            "completed": tracer.counter("serve.requests"),
            "ok": tracer.counter("serve.ok"),
            "degraded": tracer.counter("serve.degraded"),
            "failed": tracer.counter("serve.failed"),
            "preemptions": tracer.counter("serve.preemptions"),
            "requeues": tracer.counter("serve.requeues"),
            "artifact_cache": dict(
                self.cache.stats.to_dict(),
                hit_rate=self.cache.stats.hit_rate,
                entries=len(self.cache),
            ),
        }
        latency = tracer.histogram_summary("serve.request.seconds")
        queue = tracer.histogram_summary("serve.queue.seconds")
        section["latency_seconds"] = latency.to_dict() if latency else None
        section["queue_seconds"] = queue.to_dict() if queue else None
        return section

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain the queue, stop the workers, release owned resources."""
        if self._closed:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        if self._owns_spool:
            shutil.rmtree(self._spool, ignore_errors=True)
        self._closed = True

    def __enter__(self) -> "RoutingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
