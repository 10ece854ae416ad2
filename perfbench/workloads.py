"""The three benchmark workloads (perfbench/NOTES.md says why each exists).

Every workload builds its inputs from the benchmark seed, routes each
distinct input once outside every timer to get a checked reference, and
then exposes single operations that the closed loops in ``measure.py``
time.  The program is driven only through its public surface:
``repro.api``, ``repro.benchgen``, ``repro.io`` and ``repro.serve``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.api import (
    ArtifactCache,
    EcoRouter,
    RouteRequest,
    SynergisticRouter,
    evaluate,
    execute_request,
    resolve_case,
    route_request,
    solution_fingerprint,
)
from repro.benchgen import (
    CONTEST_CASES,
    RevisionSpec,
    case_names,
    generate_case,
    load_case,
    revise_netlist,
)
from repro.io.json_format import case_to_dict
from repro.serve import RoutingService
from repro.timing import DelayModel

#: Revisions in the ECO pool.  Each one costs a migrate plus an
#: ``evaluate`` in the reference pass, so the pool is kept small.
ECO_POOL_SIZE = 6

#: Distinct topologies behind the service workload: 3 topologies use 6
#: of the service's 8 cache entries (a case entry and an artifact entry
#: each), so the warm cache holds them all.
SERVE_TOPOLOGIES = 3

#: Requests kept outstanding against the service (= its worker count).
SERVE_OUTSTANDING = 2

#: Poll period while waiting for whichever outstanding request finishes
#: first; it bounds how late a completion is noticed.
_POLL_SECONDS = 0.002


@dataclass
class Reference:
    """The checked result of one distinct input, routed outside timers.

    Attributes:
        key: the input's name within the workload.
        fingerprint: solution fingerprint every timed op must reproduce.
        delay: the router's critical delay (Eq. 1).
        ok: the result was complete, DRC-clean, not degraded, and
            ``evaluate`` recomputed exactly the router's critical delay.
        detail: why ``ok`` is False.
    """

    key: str
    fingerprint: Optional[str]
    delay: Optional[float]
    ok: bool
    detail: str = ""


def _span(tracer: Optional[Any], name: str):
    """A benchmark-side span on ``tracer``, or nothing when untraced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _checked(key: str, fingerprint, delay, status: str, evaluation) -> Reference:
    problems = []
    if status != "ok":
        problems.append(f"status {status}")
    if not evaluation.is_legal:
        problems.append(
            f"illegal: {evaluation.conflict_count} conflicts, "
            f"{len(evaluation.unrouted)} unrouted, "
            f"{len(evaluation.violations)} violations"
        )
    if evaluation.critical_delay != delay:
        problems.append(
            f"evaluate() delay {evaluation.critical_delay} != router {delay}"
        )
    return Reference(key, fingerprint, delay, not problems, "; ".join(problems))


def _response_ok(response, reference: Reference) -> bool:
    """A route response passes when it reproduces its checked reference."""
    return (
        reference.ok
        and response.status == "ok"
        and response.fingerprint == reference.fingerprint
    )


def _case_request(system, netlist, **fields: Any) -> RouteRequest:
    return RouteRequest(
        case=case_to_dict(system, netlist, DelayModel()), **fields
    )


def _verify_request(
    request: RouteRequest, key: str, timings: List[float]
) -> Reference:
    """Route a case request cold once and check it with ``evaluate``.

    The case is parsed once into a private cache that the route and the
    check share; the route itself stays cold (no warm artifacts).
    """
    cold = dataclasses.replace(request, warm_cache=False)
    cache = ArtifactCache()
    _, _, delay_model = resolve_case(cold, cache=cache)
    try:
        result = execute_request(cold, cache=cache)
    except Exception as exc:  # noqa: BLE001 - reported as a bad reference
        return Reference(key, None, None, False, f"{type(exc).__name__}: {exc}")
    start = time.perf_counter()
    evaluation = evaluate(cold, solution=result.solution, cache=cache)
    timings.append(time.perf_counter() - start)
    return _checked(
        key,
        solution_fingerprint(result.solution, delay_model),
        float(result.critical_delay),
        "degraded" if result.degraded else "ok",
        evaluation,
    )


class ContestCold:
    """One client routing the ten Table II cases cold, one after another.

    The instances are the calibrated Table II cases at every seed; the
    seed draws the order in which each pass visits them (NOTES.md says
    why the instances are not re-drawn).
    """

    name = "contest_cold"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.requests: Dict[str, RouteRequest] = {}

    def setup(self) -> float:
        """Generate and serialize the suite; returns the generation time."""
        start = time.perf_counter()
        cases = {name: load_case(name) for name in case_names()}
        generate_s = time.perf_counter() - start
        self.requests = {
            name: _case_request(case.system, case.netlist, warm_cache=False)
            for name, case in cases.items()
        }
        return generate_s

    def verify(self, evaluate_times: List[float]) -> Dict[str, Reference]:
        return {
            name: _verify_request(request, name, evaluate_times)
            for name, request in self.requests.items()
        }

    def passes(self) -> Iterator[List[str]]:
        """Endless seeded passes, each visiting every case once."""
        rng = random.Random(f"{self.name}:{self.seed}")
        names = sorted(self.requests)
        while True:
            order = list(names)
            rng.shuffle(order)
            yield order

    def op(self, key: str, tracer: Optional[Any] = None):
        with _span(tracer, "api.route_request"):
            return route_request(self.requests[key], tracer=tracer)

    output_ok = staticmethod(_response_ok)

    def close(self) -> None:
        pass


class EcoRevisions:
    """One client migrating a routed case10 onto independent revisions.

    Every revision is derived from the base netlist with the default
    :class:`RevisionSpec`, so each op is the same expected size.
    """

    name = "eco_revisions"
    base_case = "case10"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.delay_model = DelayModel()

    def setup(self) -> float:
        """Generate case10, route it cold, build the revision pool."""
        start = time.perf_counter()
        case = load_case(self.base_case)
        generate_s = time.perf_counter() - start
        self.system = case.system
        self.base = SynergisticRouter(
            case.system, case.netlist, self.delay_model
        ).route().solution
        self.pool = []
        for index in range(ECO_POOL_SIZE):
            spec = RevisionSpec(seed=self.seed * ECO_POOL_SIZE + index + 1)
            start = time.perf_counter()
            revision = revise_netlist(case.netlist, case.system.num_dies, spec)
            generate_s += time.perf_counter() - start
            self.pool.append(revision)
        return generate_s

    def verify(self, evaluate_times: List[float]) -> Dict[str, Reference]:
        references = {}
        for index, revision in enumerate(self.pool):
            key = f"rev{index}"
            result = self.op(key)
            request = _case_request(self.system, revision, warm_cache=False)
            start = time.perf_counter()
            evaluation = evaluate(request, solution=result.solution)
            evaluate_times.append(time.perf_counter() - start)
            status = "ok" if result.conflict_count == 0 else "conflicts"
            references[key] = _checked(
                key,
                self.fingerprint(result),
                float(result.critical_delay),
                status,
                evaluation,
            )
        return references

    def passes(self) -> Iterator[List[str]]:
        keys = [f"rev{index}" for index in range(len(self.pool))]
        while True:
            yield keys

    def op(self, key: str, tracer: Optional[Any] = None):
        revision = self.pool[int(key[3:])]
        with _span(tracer, "eco.migrate"):
            return EcoRouter(self.system, self.delay_model).migrate(self.base, revision)

    def fingerprint(self, result) -> str:
        return solution_fingerprint(result.solution, self.delay_model)

    def output_ok(self, result, reference: Reference) -> bool:
        return reference.ok and self.fingerprint(result) == reference.fingerprint

    def close(self) -> None:
        pass


class ServeWarm:
    """Two outstanding requests against one warm :class:`RoutingService`.

    The three topologies are case05 re-drawn with seed-derived generator
    seeds; the service runs at its defaults.  Its checkpoint spool lives
    under the benchmark's scratch directory and is removed on close.
    """

    name = "serve_warm"
    base_case = "case05"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.service: Optional[RoutingService] = None
        self.spool: Optional[Path] = None
        self._setups = 0

    def setup(self) -> float:
        """Generate the topologies, start the service, fill its cache."""
        spec = CONTEST_CASES[self.base_case]
        start = time.perf_counter()
        cases = [
            generate_case(
                dataclasses.replace(
                    spec,
                    seed=spec.seed + 1000 * (SERVE_TOPOLOGIES * self.seed + index + 1),
                )
            )
            for index in range(SERVE_TOPOLOGIES)
        ]
        generate_s = time.perf_counter() - start
        self.requests = {
            f"topo{index}": _case_request(case.system, case.netlist)
            for index, case in enumerate(cases)
        }
        self.start_service()
        return generate_s

    def start_service(self, tracer: Optional[Any] = None) -> None:
        """(Re)start the service and send one request per topology."""
        self.close()
        self._setups += 1
        self.spool = self.scratch / f"spool{self._setups}"
        self.service = RoutingService(spool_dir=str(self.spool), tracer=tracer)
        tickets = [self.service.submit(request) for request in self.requests.values()]
        for ticket in tickets:
            self.service.result(ticket)

    def verify(self, evaluate_times: List[float]) -> Dict[str, Reference]:
        return {
            key: _verify_request(request, key, evaluate_times)
            for key, request in self.requests.items()
        }

    def draws(self) -> Iterator[str]:
        rng = random.Random(f"{self.name}:{self.seed}")
        keys = sorted(self.requests)
        while True:
            yield rng.choice(keys)

    def closed_loop(
        self, seconds: float, keys: Iterator[str]
    ) -> Tuple[List[Tuple[str, float, Any]], int, float, float]:
        """Keep :data:`SERVE_OUTSTANDING` requests in flight for ``seconds``.

        Returns every completed request as ``(key, latency, response)``,
        how many of them completed inside the window, and the window's
        wall and process-CPU seconds.  The window closes at the first
        completion after ``seconds``; requests still in flight then are
        drained and returned too, but lie outside the window.
        """
        service = self.service
        inflight = []

        def submit() -> None:
            key = next(keys)
            submitted = time.perf_counter()
            inflight.append((key, submitted, service.submit(self.requests[key])))

        done: List[Tuple[str, float, Any]] = []
        start = time.perf_counter()
        cpu_start = time.process_time()
        window = cpu = None
        completed = 0
        for _ in range(SERVE_OUTSTANDING):
            submit()
        while inflight:
            finished = [entry for entry in inflight if entry[2].done.is_set()]
            if not finished:
                inflight[0][2].done.wait(_POLL_SECONDS)
                continue
            now = time.perf_counter()
            for entry in finished:
                inflight.remove(entry)
                key, submitted, ticket = entry
                done.append((key, now - submitted, service.result(ticket)))
            if window is None:
                if now - start < seconds:
                    while len(inflight) < SERVE_OUTSTANDING:
                        submit()
                else:
                    window = now - start
                    cpu = time.process_time() - cpu_start
                    completed = len(done)
        return done, completed, window, cpu

    output_ok = staticmethod(_response_ok)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.spool is not None:
            shutil.rmtree(self.spool, ignore_errors=True)
            self.spool = None


WORKLOADS = {cls.name: cls for cls in (ContestCold, EcoRevisions, ServeWarm)}
