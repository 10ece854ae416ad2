"""Deterministic load generator for :class:`repro.serve.RoutingService`.

A :class:`LoadSpec` is a seed plus a case mix; :func:`build_requests`
expands it into the exact same request sequence on every machine, and
:func:`run_load` drives it through a service instance, checking every
concurrent response against its sequential cold-path fingerprint.  The
report it returns is the payload of ``benchmarks/bench_serve.py`` and
the ``repro serve`` CLI (docs/serving.md).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api import RouteRequest, route_request
from repro.obs import Tracer
from repro.serve.service import RoutingService

__all__ = ["LoadReport", "LoadSpec", "build_requests", "run_load"]


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible workload: a seeded mix of contest cases.

    Args:
        cases: contest case names the mix draws from (repetition across
            requests is what exercises the warm-artifact cache).
        requests: total requests to issue.
        concurrency: service worker threads.
        seed: RNG seed for the case/priority mix — same seed, same
            request sequence, byte for byte.
        priorities: priority levels drawn uniformly per request.
        slo_seconds: per-request SLO (``None`` = unbounded).
        cache_entries: warm-artifact cache LRU bound.
    """

    cases: Tuple[str, ...] = ("case02",)
    requests: int = 8
    concurrency: int = 2
    seed: int = 2025
    priorities: Tuple[int, ...] = (0,)
    slo_seconds: Optional[float] = None
    cache_entries: int = 8

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("LoadSpec.cases must not be empty")
        if self.requests < 1:
            raise ValueError("LoadSpec.requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("LoadSpec.concurrency must be >= 1")
        if not self.priorities:
            raise ValueError("LoadSpec.priorities must not be empty")


def build_requests(spec: LoadSpec) -> List[RouteRequest]:
    """Expand the spec into its deterministic request sequence."""
    rng = random.Random(spec.seed)
    requests = []
    for index in range(spec.requests):
        case = spec.cases[rng.randrange(len(spec.cases))]
        priority = spec.priorities[rng.randrange(len(spec.priorities))]
        requests.append(
            RouteRequest(
                contest_case=case,
                priority=priority,
                slo_seconds=spec.slo_seconds,
                tag=f"req{index:03d}:{case}",
            )
        )
    return requests


@dataclass
class LoadReport:
    """What one load run measured; ``to_dict`` is the bench row."""

    total: int
    ok: int
    degraded: int
    failed: int
    preemptions: int
    elapsed_seconds: float
    requests_per_second: float
    latency_p50: float
    latency_p99: float
    queue_p50: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    fingerprint_matches: int
    fingerprint_mismatches: List[str]
    serve: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (written by ``repro serve --report``)."""
        return {
            "total": self.total,
            "ok": self.ok,
            "degraded": self.degraded,
            "failed": self.failed,
            "preemptions": self.preemptions,
            "elapsed_seconds": self.elapsed_seconds,
            "requests_per_second": self.requests_per_second,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "queue_p50": self.queue_p50,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "fingerprint_matches": self.fingerprint_matches,
            "fingerprint_mismatches": list(self.fingerprint_mismatches),
            "serve": self.serve,
        }


def sequential_fingerprints(requests: List[RouteRequest]) -> Dict[str, str]:
    """Cold-path oracle: one uninterrupted, cache-less run per case."""
    expected: Dict[str, str] = {}
    for case in sorted({r.contest_case for r in requests if r.contest_case}):
        response = route_request(RouteRequest(contest_case=case, warm_cache=False))
        if response.status == "failed":
            raise RuntimeError(f"sequential oracle failed on {case}: {response.error}")
        expected[case] = response.fingerprint
    return expected


def run_load(
    spec: LoadSpec,
    *,
    tracer: Optional[Tracer] = None,
    check_fingerprints: bool = True,
) -> LoadReport:
    """Drive the spec through a fresh service; returns the measurements.

    Every ``ok`` response's fingerprint is compared against the
    sequential cold run of the same case — concurrency, warm caches and
    preemption must not change a single byte of the solution.
    """
    requests = build_requests(spec)
    expected = sequential_fingerprints(requests) if check_fingerprints else {}
    tracer = tracer if tracer is not None else Tracer()
    with RoutingService(
        workers=spec.concurrency,
        cache_entries=spec.cache_entries,
        tracer=tracer,
    ) as service:
        start = time.perf_counter()
        responses = service.route(requests)
        elapsed = time.perf_counter() - start
        section = service.serve_section()

    mismatches = []
    matches = 0
    if check_fingerprints:
        for request, response in zip(requests, responses):
            if response.status != "ok":
                continue
            if response.fingerprint == expected[request.contest_case]:
                matches += 1
            else:
                mismatches.append(response.tag)

    cache = section["artifact_cache"]
    return LoadReport(
        total=len(responses),
        ok=sum(1 for r in responses if r.status == "ok"),
        degraded=sum(1 for r in responses if r.status == "degraded"),
        failed=sum(1 for r in responses if r.status == "failed"),
        preemptions=section["preemptions"],
        elapsed_seconds=elapsed,
        requests_per_second=len(responses) / elapsed if elapsed > 0 else 0.0,
        latency_p50=tracer.quantile("serve.request.seconds", 0.5),
        latency_p99=tracer.quantile("serve.request.seconds", 0.99),
        queue_p50=tracer.quantile("serve.queue.seconds", 0.5),
        cache_hits=cache["hits"],
        cache_misses=cache["misses"],
        cache_hit_rate=cache["hit_rate"],
        fingerprint_matches=matches,
        fingerprint_mismatches=mismatches,
        serve=section,
    )
