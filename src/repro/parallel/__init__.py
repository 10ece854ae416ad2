"""Parallel-map substrate standing in for the paper's OpenMP threading.

:class:`ParallelExecutor` is a thread pool serving phase II's per-edge
work (legalization, wire assignment); phase I routes sequentially, as
in the paper.
"""

from repro.parallel.executor import (
    TASK_SITE,
    WORKERS_ENV_VAR,
    ParallelExecutor,
    TransientWorkerError,
    resolve_workers,
)

__all__ = [
    "TASK_SITE",
    "WORKERS_ENV_VAR",
    "ParallelExecutor",
    "TransientWorkerError",
    "resolve_workers",
]
