"""Parallel map over a thread pool.

The paper parallelizes phase II with OpenMP: per-TDM-edge work (Eq. 12
solves, legalization, wire assignment) and per-connection reductions.  In
Python the numerically heavy reductions are vectorized with numpy instead
(see :mod:`repro.core.lagrangian`); this executor covers the remaining
per-edge, object-level work on a persistent :class:`ThreadPoolExecutor`.
Those tasks are dominated by numpy calls that release the GIL, and
closures need no pickling.

Worker-count resolution: ``num_workers=None`` honors the
``REPRO_WORKERS`` environment variable when set (the one sanctioned
ambient knob — the resolved count and its provenance are recorded in run
reports and ``BENCH_*.json`` so sentinel comparisons stay
apples-to-apples), and otherwise falls back to the paper's
``min(10, cpu_count)`` 10-thread setup.

Failure semantics (docs/resilience.md): a task raising
:class:`TransientWorkerError` — the executor's model of a killed or
preempted worker — is retried up to ``max_retries`` times with doubling
backoff.  The tasks dispatched here are pure functions of their inputs,
so a re-run is idempotent.  Any other exception fails fast and
propagates to the dispatch side.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Fault-injection site fired once per task attempt (see
#: :mod:`repro.resilience.faults`).
TASK_SITE = "parallel.task"

#: Environment variable overriding ``num_workers=None`` resolution.
WORKERS_ENV_VAR = "REPRO_WORKERS"


class TransientWorkerError(RuntimeError):
    """A worker failure that is safe to retry (task is idempotent).

    Raised (or injected — :class:`repro.resilience.faults.WorkerKilled`
    subclasses this) when a worker dies mid-task.  The executor's retry
    loop treats exactly this hierarchy as retryable; everything else
    fails fast.
    """


def resolve_workers(num_workers: Optional[int]) -> Tuple[int, bool]:
    """Resolve a worker-count request to ``(count, from_env)``.

    ``None`` reads ``REPRO_WORKERS`` when set (``from_env`` is then True)
    and otherwise applies the paper's ``min(10, cpu_count)`` default; an
    explicit count always wins and never consults the environment.

    Raises:
        ValueError: when ``REPRO_WORKERS`` is set but not a non-negative
            integer (a typo must not silently fall back).
    """
    if num_workers is not None:
        return num_workers, False
    raw = os.environ.get(WORKERS_ENV_VAR, "").strip()  # lint: disable=REPRO010
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a non-negative integer, got {raw!r}"
            ) from None
        if value < 0:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a non-negative integer, got {raw!r}"
            )
        return value, True
    return min(10, os.cpu_count() or 1), False


class ParallelExecutor:
    """Maps a function over items, sequentially or with a thread pool.

    Args:
        num_workers: workers; ``0`` or ``1`` runs sequentially; ``None``
            resolves via :func:`resolve_workers` (``REPRO_WORKERS`` env
            override, else the paper's ``min(10, cpu_count)``).
        tracer: optional :class:`repro.obs.Tracer`; when given, every
            :meth:`map` call is wrapped in a ``parallel.map`` span with
            task/worker attributes (dispatch-side only — worker threads
            are never touched, so sinks see a single-threaded span
            stream).
        max_retries: retries per task for :class:`TransientWorkerError`
            failures; ``0`` disables retrying.
        retry_backoff: base sleep in seconds before a retry, doubling per
            attempt (``backoff * 2**(attempt-1)``).
        fault_plan: deterministic fault injector fired once per task
            attempt at site ``"parallel.task"``; defaults to the tracer's
            ``fault_plan`` attribute when present (so a
            :class:`repro.resilience.faults.FaultInjectingTracer` wires
            the whole stack without core code changes).

    The pool is created lazily on the first parallel :meth:`map` and
    reused by every later call — one executor can serve a whole routing
    run (legalizer + wire assigner + refine rounds) without re-creating
    workers.  Call :meth:`close` (or use the executor as a context
    manager) to release the workers; a closed executor re-creates the
    pool on the next parallel map.
    """

    def __init__(
        self,
        num_workers: Optional[int] = 1,
        tracer: Optional[object] = None,
        *,
        max_retries: int = 0,
        retry_backoff: float = 0.01,
        fault_plan: Optional[object] = None,
    ) -> None:
        num_workers, from_env = resolve_workers(num_workers)
        if num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.num_workers = num_workers
        self.workers_from_env = from_env
        self.tracer = tracer
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        if fault_plan is None:
            fault_plan = getattr(tracer, "fault_plan", None)
        self.fault_plan = fault_plan
        self._pool: Optional[ThreadPoolExecutor] = None
        # Lazy pool creation must be race-free: the serving layer shares
        # one executor across concurrent request workers, so two first
        # maps may arrive at once.
        self._pool_lock = threading.Lock()

    @property
    def is_parallel(self) -> bool:
        """Whether work is dispatched to a worker pool."""
        return self.num_workers > 1

    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving item order.

        Transient failures (:class:`TransientWorkerError`) are retried
        per task up to ``max_retries`` times; other exceptions propagate
        immediately.
        """
        items = list(items)
        tracer = self.tracer
        if tracer is None:
            return self._map(fn, items)
        with tracer.span("parallel.map", tasks=len(items), workers=self.num_workers):
            tracer.add("parallel.tasks", len(items))
            return self._map(fn, items)

    def _map(self, fn: Callable[[T], R], items: List[T]) -> List[R]:
        run = self._run_task
        if not self.is_parallel or len(items) <= 1:
            return [run(fn, item) for item in items]
        if self._pool is None:
            with self._pool_lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(max_workers=self.num_workers)
        return list(self._pool.map(lambda item: run(fn, item), items))

    def _run_task(self, fn: Callable[[T], R], item: T) -> R:
        """One in-process task with fault injection and bounded retries."""
        attempt = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire(TASK_SITE)
                return fn(item)
            except TransientWorkerError:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                self._note_retry(attempt)

    def _note_retry(self, attempt: int) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.add("parallel.retries")
        backoff = self.retry_backoff * (2 ** (attempt - 1))
        if backoff > 0:
            time.sleep(backoff)
