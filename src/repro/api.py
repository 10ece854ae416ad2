"""Stable public facade over the router (docs/api.md).

Downstream code should import from :mod:`repro` (or ``repro.api``) only;
the submodule layout underneath (``repro.core``, ``repro.route``, ...)
is an implementation detail that may move between releases.

The canonical entry point is the schema-versioned request/response pair:

* :class:`RouteRequest` — a frozen, serializable description of one
  routing job (the case, the config, SLO/priority/cache knobs).
* :func:`route_request` — execute a request and return a
  :class:`RouteResponse` (never raises; failures come back as
  ``status="failed"``).
* :func:`execute_request` — the raw-result form (returns the live
  :class:`RoutingResult`, raises on failure); what the CLI and
  :mod:`repro.serve` build on.

A request with ``resume_from`` continues a checkpointed run through the
same two functions.  :func:`evaluate` re-checks a solution against a
request's case, and :func:`load_solution` reads a solution file.

Warm-start state is shared through :class:`ArtifactCache`
(:mod:`repro.core.artifacts`): requests with ``warm_cache=True`` reuse
per-topology artifacts keyed by ``(case digest, pricing knobs, epoch)``,
bit-identical to cold runs.

Everything re-exported here (``RouterConfig``, ``FaultPlan``,
``CheckpointManager``, ``EcoRouter``, ...) is part of the same stable
surface; ``tests/test_api_surface.py`` snapshots the signatures so
accidental breaks fail CI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.artifacts import (
    ArtifactCache,
    RoutingArtifacts,
    artifact_key,
    build_artifacts,
    case_digest,
)
from repro.core.config import RouterConfig
from repro.core.eco import EcoRouter
from repro.core.router import RoutingResult, SynergisticRouter, TdmAssigner
from repro.drc import DesignRuleChecker
from repro.io.checkpoint_io import (
    CheckpointFormatError,
    read_checkpoint,
    resolve_checkpoint_path,
)
from repro.netlist import Netlist
from repro.route import RoutingSolution
from repro.timing import DelayModel, TimingAnalyzer
from repro.resilience import (
    CheckpointManager,
    FaultInjectingTracer,
    FaultPlan,
    FaultSpec,
    solution_fingerprint,
    solution_state,
)

__all__ = [
    "ArtifactCache",
    "CheckpointManager",
    "EcoRouter",
    "Evaluation",
    "FaultInjectingTracer",
    "FaultPlan",
    "FaultSpec",
    "REQUEST_SCHEMA_VERSION",
    "RouteRequest",
    "RouteResponse",
    "RouterConfig",
    "RoutingArtifacts",
    "RoutingResult",
    "SynergisticRouter",
    "TdmAssigner",
    "build_artifacts",
    "default_artifact_cache",
    "evaluate",
    "execute_request",
    "load_solution",
    "resolve_case",
    "route_request",
    "solution_fingerprint",
    "solution_state",
]

#: Bump when the request/response layout changes incompatibly.
REQUEST_SCHEMA_VERSION = 1

REQUEST_KIND = "repro.route_request"
RESPONSE_KIND = "repro.route_response"

_CASE_SOURCES = ("case", "contest_case", "case_file", "resume_from")


# ----------------------------------------------------------------------
# The canonical request/response surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouteRequest:
    """One routing job, as data (frozen, exact dict round-trip).

    Exactly one case source must be set: ``case`` (a JSON case dict,
    :func:`repro.io.json_format.case_to_dict` layout), ``contest_case``
    (a contest-suite name like ``"case02"``), ``case_file`` (a path to a
    text or JSON case file), or ``resume_from`` (a checkpoint file or
    directory — the case, config and progress all come from the
    checkpoint).

    Attributes:
        config: router knobs; accepts a :class:`RouterConfig` or a plain
            mapping (normalized to :class:`RouterConfig`).  ``None``
            means defaults.  Ignored on ``resume_from`` requests — a
            resumed run must continue under the checkpointed config to
            stay bit-identical.
        epoch: client-controlled cache generation for this topology;
            bumping it invalidates warm artifacts without flushing the
            whole cache.
        priority: service scheduling priority (higher runs first); plain
            metadata outside :mod:`repro.serve`.
        slo_seconds: per-request latency budget, mapped onto the
            resilience wall-clock budget
            (``RouterConfig.wall_clock_budget_seconds``): an over-budget
            run degrades to its best-so-far legal result instead of
            failing (docs/serving.md).
        warm_cache: reuse (and populate) the shared
            :class:`ArtifactCache` for this request.
        checkpoint_dir: when set, the run checkpoints every barrier
            there (resumable via ``resume_from``).
        return_solution: embed the full solution dict in the response
            (off by default — responses stay small).
        tag: opaque caller label, echoed in the response.
    """

    case: Optional[Mapping[str, Any]] = None
    contest_case: Optional[str] = None
    case_file: Optional[str] = None
    resume_from: Optional[str] = None
    config: Optional[RouterConfig] = None
    epoch: int = 0
    priority: int = 0
    slo_seconds: Optional[float] = None
    warm_cache: bool = True
    checkpoint_dir: Optional[str] = None
    return_solution: bool = False
    tag: str = ""

    def __post_init__(self) -> None:
        sources = [
            name for name in _CASE_SOURCES if getattr(self, name) is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "exactly one of case/contest_case/case_file/resume_from "
                f"must be set, got {sources or 'none'}"
            )
        if self.case is not None and not isinstance(self.case, Mapping):
            raise ValueError("case must be a mapping (JSON case layout)")
        if self.case is not None:
            object.__setattr__(self, "case", dict(self.case))
        for name in ("case_file", "resume_from", "checkpoint_dir"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, str(value))
        if self.config is not None and not isinstance(self.config, RouterConfig):
            if not isinstance(self.config, Mapping):
                raise ValueError("config must be a RouterConfig or a mapping")
            object.__setattr__(self, "config", RouterConfig.from_dict(self.config))
        if int(self.epoch) != self.epoch or self.epoch < 0:
            raise ValueError("epoch must be a non-negative integer")
        object.__setattr__(self, "epoch", int(self.epoch))
        object.__setattr__(self, "priority", int(self.priority))
        if self.slo_seconds is not None:
            if not self.slo_seconds >= 0:
                raise ValueError("slo_seconds must be non-negative")
            object.__setattr__(self, "slo_seconds", float(self.slo_seconds))
        object.__setattr__(self, "warm_cache", bool(self.warm_cache))
        object.__setattr__(self, "return_solution", bool(self.return_solution))
        object.__setattr__(self, "tag", str(self.tag))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; ``from_dict(to_dict())`` is exact."""
        return {
            "kind": REQUEST_KIND,
            "schema_version": REQUEST_SCHEMA_VERSION,
            "case": dict(self.case) if self.case is not None else None,
            "contest_case": self.contest_case,
            "case_file": self.case_file,
            "resume_from": self.resume_from,
            "config": self.config.to_dict() if self.config is not None else None,
            "epoch": self.epoch,
            "priority": self.priority,
            "slo_seconds": self.slo_seconds,
            "warm_cache": self.warm_cache,
            "checkpoint_dir": self.checkpoint_dir,
            "return_solution": self.return_solution,
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouteRequest":
        """Inverse of :meth:`to_dict` (strict: unknown keys rejected)."""
        return cls(**_checked_payload(data, cls, REQUEST_KIND))


@dataclass(frozen=True)
class RouteResponse:
    """What one request produced (frozen, exact dict round-trip).

    Attributes:
        status: ``"ok"`` (legal, within budget), ``"degraded"`` (budget
            exhausted; best-so-far legal result), or ``"failed"`` (no
            result; see ``error``).
        tag: the request's tag, echoed back.
        critical_delay: the objective (Eq. 1), ``None`` on failure.
        conflict_count: SLL capacity conflicts (0 = legal).
        is_legal: overlap-free topology.
        fingerprint: SHA-256 solution fingerprint
            (:func:`solution_fingerprint`) — the bit-identity contract:
            equal fingerprints mean equal solutions.
        wall_seconds: execution time (queueing excluded).
        queue_seconds: time spent queued before execution (0 outside the
            service).
        preemptions: times the service preempted and resumed this
            request.
        cache: warm-cache provenance, e.g. ``{"artifacts": "hit"}``
            (``hit``/``miss``/``off``).
        solution: the solution dict when the request asked for it.
        error: failure description when ``status == "failed"``.
    """

    status: str
    tag: str = ""
    critical_delay: Optional[float] = None
    conflict_count: Optional[int] = None
    is_legal: Optional[bool] = None
    fingerprint: Optional[str] = None
    wall_seconds: float = 0.0
    queue_seconds: float = 0.0
    preemptions: int = 0
    cache: Dict[str, Any] = field(default_factory=dict)
    solution: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in ("ok", "degraded", "failed"):
            raise ValueError(
                f"status must be ok, degraded or failed, got {self.status!r}"
            )
        object.__setattr__(self, "cache", dict(self.cache))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form; ``from_dict(to_dict())`` is exact."""
        return {
            "kind": RESPONSE_KIND,
            "schema_version": REQUEST_SCHEMA_VERSION,
            "status": self.status,
            "tag": self.tag,
            "critical_delay": self.critical_delay,
            "conflict_count": self.conflict_count,
            "is_legal": self.is_legal,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
            "queue_seconds": self.queue_seconds,
            "preemptions": self.preemptions,
            "cache": dict(self.cache),
            "solution": self.solution,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouteResponse":
        """Inverse of :meth:`to_dict` (strict: unknown keys rejected)."""
        return cls(**_checked_payload(data, cls, RESPONSE_KIND))


def _checked_payload(
    data: Mapping[str, Any], cls: type, kind: str
) -> Dict[str, Any]:
    """Validate a request/response dict envelope; returns the field dict."""
    payload = dict(data)
    found_kind = payload.pop("kind", kind)
    if found_kind != kind:
        raise ValueError(f"kind must be {kind!r}, got {found_kind!r}")
    version = payload.pop("schema_version", REQUEST_SCHEMA_VERSION)
    if version != REQUEST_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {REQUEST_SCHEMA_VERSION}, got {version!r}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {', '.join(unknown)}"
        )
    return payload


# ----------------------------------------------------------------------
# Shared warm cache
# ----------------------------------------------------------------------
_default_cache: Optional[ArtifactCache] = None


def default_artifact_cache() -> ArtifactCache:
    """The process-wide warm-artifact cache (lazy, bounded LRU).

    Used by requests with ``warm_cache=True`` when no explicit cache is
    passed; the service layer creates its own instead so its capacity is
    configurable per deployment.
    """
    global _default_cache
    if _default_cache is None:
        _default_cache = ArtifactCache(max_entries=8)
    return _default_cache


def resolve_case(
    request: RouteRequest,
    *,
    cache: Optional[ArtifactCache] = None,
    tracer: Optional[Any] = None,
) -> Tuple[Any, Netlist, DelayModel]:
    """Resolve a request's case source to ``(system, netlist, delay_model)``.

    With a cache (or ``warm_cache=True``), resolved cases are memoized
    under ``"case:..."`` keys, so repeated requests against one topology
    skip re-parsing/regenerating the architecture entirely.
    """
    if request.resume_from is not None:
        return _checkpoint_case(_read_resume_doc(request.resume_from))
    if cache is None and request.warm_cache:
        cache = default_artifact_cache()
    key, builder = _case_builder(request, keyed=cache is not None)
    if cache is None or key is None:
        return builder()
    return cache.get_or_build(key, builder)


def _case_builder(
    request: RouteRequest, *, keyed: bool
) -> Tuple[Optional[str], Callable[[], Tuple[Any, Netlist, DelayModel]]]:
    """Cache key + builder for a (non-resume) request's case source.

    An inline case's key digests the whole case, so it is computed only
    when ``keyed`` (a cache will be consulted); otherwise it is ``None``.
    """
    if request.case is not None:
        from repro.io.json_format import case_from_dict

        key = None
        if keyed:
            payload = json.dumps(request.case, sort_keys=True).encode("utf-8")
            key = f"case:dict:{hashlib.sha256(payload).hexdigest()}"
        return key, lambda: case_from_dict(request.case)
    if request.contest_case is not None:
        name = request.contest_case

        def _load_contest() -> Tuple[Any, Netlist, DelayModel]:
            from repro.benchgen import load_case

            case = load_case(name)
            return case.system, case.netlist, DelayModel()

        return f"case:contest:{name}", _load_contest
    path = Path(request.case_file)

    def _load_file() -> Tuple[Any, Netlist, DelayModel]:
        if path.suffix == ".json":
            from repro.io import read_case_json

            return read_case_json(path)
        from repro.io import parse_case_file

        return parse_case_file(path)

    try:
        stamp = path.stat()
        key = f"case:file:{path.resolve()}:{stamp.st_mtime_ns}:{stamp.st_size}"
    except OSError:
        key = None  # missing file: let the builder raise the real error
    return key, _load_file


def _read_resume_doc(resume_from: str) -> Dict[str, Any]:
    return read_checkpoint(resolve_checkpoint_path(resume_from))


def _checkpoint_case(doc: Mapping[str, Any]) -> Tuple[Any, Netlist, DelayModel]:
    """The case a checkpoint embeds; a malformed one fails as the checkpoint."""
    from repro.io.json_format import case_from_dict

    try:
        return case_from_dict(doc["case"])
    except ValueError as exc:
        raise CheckpointFormatError(f"case: {exc}") from exc


def _effective_config(
    config: RouterConfig, slo_seconds: Optional[float]
) -> RouterConfig:
    """Map a request SLO onto the resilience wall-clock budget.

    The tighter of the two budgets wins, so an explicit config budget is
    never loosened by a generous SLO.
    """
    if slo_seconds is None:
        return config
    budget = config.wall_clock_budget_seconds
    if budget is None or slo_seconds < budget:
        return dataclasses.replace(config, wall_clock_budget_seconds=slo_seconds)
    return config


@dataclass
class _Prepared:
    """Everything :func:`execute_request` resolved before running."""

    system: Any
    netlist: Netlist
    delay_model: DelayModel
    config: RouterConfig
    resume_state: Optional[Dict[str, Any]]
    checkpoint: Optional[Any]
    artifacts: Optional[RoutingArtifacts]
    artifacts_state: str

    def run(self, tracer: Optional[Any]) -> RoutingResult:
        """Route (or resume) the prepared case to completion."""
        router = SynergisticRouter(
            self.system,
            self.netlist,
            self.delay_model,
            config=self.config,
            tracer=tracer,
            checkpoint=self.checkpoint,
            artifacts=self.artifacts,
        )
        return router.route(resume=self.resume_state)


def _prepare(
    request: RouteRequest,
    *,
    tracer: Optional[Any] = None,
    cache: Optional[ArtifactCache] = None,
    checkpoint_factory: Optional[Callable[..., Any]] = None,
) -> _Prepared:
    if request.resume_from is not None:
        doc = _read_resume_doc(request.resume_from)
        system, netlist, delay_model = _checkpoint_case(doc)
        try:
            config = RouterConfig.from_dict(doc["config"])
        except (TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"config: {exc}") from exc
        resume_state: Optional[Dict[str, Any]] = {
            "barrier": doc["barrier"],
            "payload": doc["payload"],
        }
        rng_state = doc.get("rng_state")
    else:
        system, netlist, delay_model = resolve_case(
            request, cache=cache, tracer=tracer
        )
        config = request.config if request.config is not None else RouterConfig()
        resume_state = None
        rng_state = None
    config = _effective_config(config, request.slo_seconds)

    checkpoint = None
    if checkpoint_factory is not None:
        checkpoint = checkpoint_factory(
            system, netlist, delay_model, config, rng_state=rng_state
        )
    elif request.checkpoint_dir is not None:
        checkpoint = CheckpointManager(
            request.checkpoint_dir,
            system,
            netlist,
            delay_model,
            config=config,
            rng_state=rng_state,
        )

    artifacts = None
    artifacts_state = "off"
    if request.warm_cache:
        the_cache = cache if cache is not None else default_artifact_cache()
        key = artifact_key(
            system, netlist, delay_model, config, epoch=request.epoch
        )
        artifacts_state = "hit" if key in the_cache else "miss"
        artifacts = the_cache.get_or_build(
            key,
            lambda: build_artifacts(
                system, netlist, delay_model, config, tracer=tracer
            ),
        )
    return _Prepared(
        system=system,
        netlist=netlist,
        delay_model=delay_model,
        config=config,
        resume_state=resume_state,
        checkpoint=checkpoint,
        artifacts=artifacts,
        artifacts_state=artifacts_state,
    )


def execute_request(
    request: RouteRequest,
    *,
    tracer: Optional[Any] = None,
    cache: Optional[ArtifactCache] = None,
    checkpoint_factory: Optional[Callable[..., Any]] = None,
) -> RoutingResult:
    """Run one request and return the live :class:`RoutingResult`.

    The raw-result sibling of :func:`route_request`: exceptions (bad
    case, unroutable design, injected faults) propagate to the caller.
    Used by the CLI (which needs the solution object for rendering) and
    by :mod:`repro.serve` (which needs preemption exceptions to escape).

    Args:
        request: the job description.
        tracer: optional :class:`repro.obs.Tracer` instrumenting the run.
        cache: warm-artifact cache to consult/populate; defaults to the
            process-wide one when ``request.warm_cache``.
        checkpoint_factory: ``(system, netlist, delay_model, config,
            rng_state=None) ->`` duck-typed checkpoint writer, overriding
            the default :class:`CheckpointManager` built from
            ``request.checkpoint_dir`` (the service's preemption hook;
            ``rng_state`` is the resumed checkpoint's RNG state so
            re-checkpointed barriers keep carrying it).
    """
    prepared = _prepare(
        request, tracer=tracer, cache=cache, checkpoint_factory=checkpoint_factory
    )
    return prepared.run(tracer)


def route_request(
    request: RouteRequest,
    *,
    tracer: Optional[Any] = None,
    cache: Optional[ArtifactCache] = None,
    checkpoint_factory: Optional[Callable[..., Any]] = None,
    queue_seconds: float = 0.0,
    preemptions: int = 0,
    reraise: Tuple[type, ...] = (),
) -> RouteResponse:
    """Run one request; always returns a :class:`RouteResponse`.

    Failures never raise — they come back as ``status="failed"`` with
    the error string — except exception types listed in ``reraise``
    (the service passes its preemption signal through).

    Args:
        request: the job description.
        tracer: optional tracer instrumenting the run.
        cache: warm-artifact cache (defaults to the process-wide one
            when ``request.warm_cache``).
        checkpoint_factory: see :func:`execute_request`.
        queue_seconds: queue wait to record in the response (service
            bookkeeping; 0 for direct calls).
        preemptions: preemption count to record in the response.
        reraise: exception types to propagate instead of folding into a
            failed response.
    """
    start = time.perf_counter()
    cache_info: Dict[str, Any] = {}
    try:
        prepared = _prepare(
            request,
            tracer=tracer,
            cache=cache,
            checkpoint_factory=checkpoint_factory,
        )
        cache_info["artifacts"] = prepared.artifacts_state
        result = prepared.run(tracer)
    except reraise:
        raise
    except Exception as exc:  # noqa: BLE001 - the response carries it
        return RouteResponse(
            status="failed",
            tag=request.tag,
            wall_seconds=time.perf_counter() - start,
            queue_seconds=queue_seconds,
            preemptions=preemptions,
            cache=cache_info,
            error=f"{type(exc).__name__}: {exc}",
        )
    solution_doc = None
    if request.return_solution:
        from repro.io.json_format import solution_to_dict

        solution_doc = solution_to_dict(result.solution)
    return RouteResponse(
        status="degraded" if result.degraded else "ok",
        tag=request.tag,
        critical_delay=float(result.critical_delay),
        conflict_count=int(result.conflict_count),
        is_legal=bool(result.is_legal),
        # The router's delay is an analysis of the returned solution under
        # the same delay model, so the fingerprint need not re-time it.
        fingerprint=solution_fingerprint(
            result.solution,
            prepared.delay_model,
            critical_delay=result.critical_delay,
        ),
        wall_seconds=time.perf_counter() - start,
        queue_seconds=queue_seconds,
        preemptions=preemptions,
        cache=cache_info,
        solution=solution_doc,
    )


@dataclass(frozen=True)
class Evaluation:
    """What :func:`evaluate` reports about a solution.

    Attributes:
        is_legal: complete and DRC-clean.
        conflict_count: SLL capacity conflicts (#CONF).
        critical_delay: system critical delay, or ``None`` when the
            solution is incomplete or leaves a TDM use without a ratio
            and wire.
        unrouted: connection indices with no path.
        violations: human-readable DRC violation strings.
    """

    is_legal: bool
    conflict_count: int
    critical_delay: Optional[float]
    unrouted: List[int]
    violations: List[str]


def evaluate(
    request: RouteRequest,
    *,
    solution: Union[RoutingSolution, Mapping[str, Any]],
    cache: Optional[ArtifactCache] = None,
) -> Evaluation:
    """Independently re-check a solution: design rules plus timing.

    The case comes from the request, and the resolved case *and* the
    checker/analyzer pair are memoized in the warm cache keyed by
    ``(case digest, epoch)``, so repeated evaluations of one topology
    skip re-parsing the architecture.  ``solution`` is a
    :class:`RoutingSolution` or its JSON dict form.

    This never trusts router-reported numbers, recomputing legality and
    the critical delay from the solution alone.
    """
    system, netlist, delay_model = resolve_case(request, cache=cache)
    if isinstance(solution, Mapping):
        from repro.io.json_format import solution_from_dict

        solution = solution_from_dict(solution, system, netlist)
    checker, analyzer = _evaluators(
        system,
        netlist,
        delay_model,
        epoch=request.epoch,
        cache=cache,
        use_cache=request.warm_cache,
    )
    report = checker.check(solution)
    critical_delay = None
    if solution.is_complete and solution.unassigned_use() is None:
        timing = analyzer.analyze(solution)
        critical_delay = float(timing.critical_delay)
    return Evaluation(
        is_legal=bool(report.is_clean and solution.is_complete),
        conflict_count=int(solution.conflict_count()),
        critical_delay=critical_delay,
        unrouted=[int(i) for i in solution.unrouted_connections()],
        violations=[str(v) for v in report.violations],
    )


def _evaluators(
    system: Any,
    netlist: Netlist,
    delay_model: DelayModel,
    *,
    epoch: int,
    cache: Optional[ArtifactCache],
    use_cache: bool,
) -> Tuple[DesignRuleChecker, TimingAnalyzer]:
    """The (cached) checker/analyzer pair for one ``(case, epoch)``.

    Both are stateless across calls (pure functions of the solution they
    are handed), so sharing one pair across evaluations — including
    concurrent ones — is safe.
    """
    if use_cache and cache is None:
        cache = default_artifact_cache()
    if cache is None:
        return (
            DesignRuleChecker(system, netlist, delay_model),
            TimingAnalyzer(system, netlist, delay_model),
        )
    key = f"eval:{case_digest(system, netlist, delay_model)}:epoch={int(epoch)}"
    return cache.get_or_build(
        key,
        lambda: (
            DesignRuleChecker(system, netlist, delay_model),
            TimingAnalyzer(system, netlist, delay_model),
        ),
    )


def load_solution(
    path: Union[str, Path],
    system: Any,
    netlist: Netlist,
    *,
    format: str = "auto",
) -> RoutingSolution:
    """Read a solution file written by the CLI or :mod:`repro.io`.

    Args:
        path: the solution file.
        system: the system the solution routes on.
        netlist: the netlist the solution routes.
        format: ``"text"`` (the contest-style line format), ``"json"``
            (``repro route --json`` output), or ``"auto"`` to sniff: a
            ``.json`` suffix or a leading ``{`` means JSON.

    Returns:
        The parsed :class:`RoutingSolution`.
    """
    path = Path(path)
    if format not in ("auto", "text", "json"):
        raise ValueError(f"unknown solution format {format!r}")
    if format == "auto":
        if path.suffix == ".json":
            format = "json"
        else:
            head = path.read_text()[:1].lstrip()
            format = "json" if head.startswith("{") else "text"
    if format == "json":
        from repro.io import read_solution_json

        return read_solution_json(path, system, netlist)
    from repro.io import parse_solution_file

    return parse_solution_file(path, system, netlist)
