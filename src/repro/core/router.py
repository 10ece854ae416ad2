"""Top-level synergistic router (Fig. 3's overall flow) and the one phase
II pipeline that cold routes, timing rounds, resume, ECO and the Fig. 5(a)
refinement of foreign topologies share."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence, build_incidence
from repro.core.initial_routing import InitialRouter, InitialRoutingStats
from repro.core.lagrangian import LagrangianTdmAssigner, LrHistory
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner, WireAssignmentStats
from repro.arch.system import MultiFpgaSystem
from repro.io.checkpoint_io import CheckpointFormatError
from repro.io.json_format import solution_from_dict, solution_to_dict
from repro.netlist.netlist import Netlist
from repro.obs import TelemetrySnapshot, Tracer, get_logger
from repro.route.solution import RoutingSolution
from repro.timing.analysis import TimingAnalyzer, TimingReport
from repro.timing.delay import DelayModel

logger = get_logger(__name__)

#: Span names of the three Fig. 5(b) phases (obs timer keys).
PHASE_IR = "phase.initial_routing"
PHASE_TA = "phase.tdm_assignment"
PHASE_LGWA = "phase.legalization_wire_assignment"

#: Span name of the timing-analysis passes between refinement rounds.
#: Not part of the Fig. 5(b) phase accounting, but without it the trace
#: profiler would attribute analysis time to ``(untracked)``.
SPAN_TIMING = "timing.analysis"

#: Checkpoint barriers whose payload holds the full solution (phase II done).
_SOLUTION_BARRIERS = ("phase2.assigned", "phase2.round", "final")


@dataclass
class PhaseTimes:
    """Wall-clock seconds per phase (the Fig. 5(b) breakdown).

    Since the obs layer landed this is a *derived view*: the router
    accumulates the phases as :mod:`repro.obs` spans (``phase.*`` timer
    keys) and projects them into this dataclass via :meth:`from_tracer`.

    Attributes:
        initial_routing: phase I (IR).
        tdm_assignment: Lagrangian initial ratio assignment (TA).
        legalization_wire_assignment: legalization + wire assignment
            (LG & WA).
    """

    initial_routing: float = 0.0
    tdm_assignment: float = 0.0
    legalization_wire_assignment: float = 0.0

    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        baseline: Optional[Tuple[float, float, float]] = None,
    ) -> "PhaseTimes":
        """Project a tracer's ``phase.*`` span timers into phase times.

        Args:
            tracer: the tracer the router instrumented its phases on.
            baseline: timer values ``(IR, TA, LG&WA)`` captured before the
                run, subtracted so a re-used tracer yields per-run times.
        """
        base = baseline if baseline is not None else (0.0, 0.0, 0.0)
        return cls(
            initial_routing=tracer.timer(PHASE_IR) - base[0],
            tdm_assignment=tracer.timer(PHASE_TA) - base[1],
            legalization_wire_assignment=tracer.timer(PHASE_LGWA) - base[2],
        )

    @property
    def total(self) -> float:
        """Total routing runtime."""
        return (
            self.initial_routing
            + self.tdm_assignment
            + self.legalization_wire_assignment
        )

    def fractions(self) -> Dict[str, float]:
        """Per-phase share of the total runtime (empty phases at 0)."""
        total = self.total
        if total <= 0:
            return {"IR": 0.0, "TA": 0.0, "LG & WA": 0.0}
        return {
            "IR": self.initial_routing / total,
            "TA": self.tdm_assignment / total,
            "LG & WA": self.legalization_wire_assignment / total,
        }


@dataclass
class RoutingResult:
    """Everything a routing run produces.

    Attributes:
        solution: paths, ratios and wires.
        critical_delay: the objective value (Eq. 1).
        conflict_count: total SLL overflow (#CONF; 0 for a legal result).
        phase_times: runtime breakdown.
        timing: full timing report.
        lr_history: Lagrangian convergence history (None if phase II was
            skipped because no net crosses a TDM edge).
        initial_stats: phase I diagnostics.
        wire_stats: wire-assignment counters.
        telemetry: aggregate obs metrics of the run (counters, gauges,
            span timers, histograms); serialized into the run report by
            :func:`repro.obs.build_run_report`.
        degraded: True when a wall-clock budget
            (``RouterConfig.wall_clock_budget_seconds``) cut the run
            short; the solution is the best-so-far legal state and the
            run report carries the same flag (docs/resilience.md).
    """

    solution: RoutingSolution
    critical_delay: float
    conflict_count: int
    phase_times: PhaseTimes
    timing: TimingReport
    lr_history: Optional[LrHistory] = None
    initial_stats: Optional[InitialRoutingStats] = None
    wire_stats: Optional[WireAssignmentStats] = None
    timing_reroute_moves: int = 0
    telemetry: Optional[TelemetrySnapshot] = None
    degraded: bool = False

    @property
    def is_legal(self) -> bool:
        """Whether the topology is overlap-free on SLL edges."""
        return self.conflict_count == 0


class TdmAssigner:
    """Phase II: LR ratios (Alg. 1), legalization (Alg. 2), wire assignment.

    The one phase II pipeline.  It runs the paper's full TDM ratio
    assignment on *any* routed topology — a cold route's, a timing-round
    candidate, an ECO result or a baseline's (the Fig. 5(a) experiment)
    — and finishes it from a ``phase2.lr`` or ``phase2.legalized``
    checkpoint.  Each stage runs under its phase span
    (``phase.tdm_assignment`` / ``phase.legalization_wire_assignment``),
    so repeated calls accumulate into the same phase timers.

    After :meth:`assign`, ``multipliers`` are the final LR multipliers
    (the next round's ``warm_start``) and ``wire_stats`` the
    wire-assignment counters; both are ``None`` when no net crosses a
    TDM edge.
    """

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: Optional[DelayModel] = None,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.multipliers: Optional[np.ndarray] = None
        self.wire_stats: Optional[WireAssignmentStats] = None

    def assign(
        self,
        solution: RoutingSolution,
        *,
        warm_start: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
        checkpoint: Optional[Any] = None,
        initial_stats: Optional[InitialRoutingStats] = None,
        resume: Optional[Mapping[str, Any]] = None,
    ) -> Optional[LrHistory]:
        """Assign ratios and wires in place; returns the LR history.

        Args:
            solution: the routed topology to assign ratios and wires for.
            warm_start: multipliers of a previous LR solve.
            deadline: wall-clock budget forwarded to the LR solve.
            checkpoint: writer offered ``phase2.lr`` and
                ``phase2.legalized`` for the stages this call runs.  A
                timing-round candidate passes none: it may be rejected,
                so its states are not resumable.
            initial_stats: phase I diagnostics embedded in those payloads.
            resume: the ``{"barrier": ..., "payload": ...}`` of a
                ``phase2.lr`` or ``phase2.legalized`` checkpoint; its
                payload replaces the LR solve and, from
                ``phase2.legalized``, legalization too.

        Returns ``None`` when no net crosses a TDM edge.

        Raises:
            CheckpointFormatError: when a resume payload does not fit the
                topology.
        """
        tracer = self.tracer
        self.multipliers = self.wire_stats = None
        incidence = build_incidence(
            self.system, self.netlist, solution, self.delay_model, tracer=tracer
        )
        if not incidence.num_pairs:
            return None
        barrier = resume["barrier"] if resume is not None else None
        payload = resume["payload"] if resume is not None else None

        def stage_payload(**arrays: Any) -> Dict[str, Any]:
            return {
                "paths": [list(path) for path in solution.paths()],
                "multipliers": _floats(multipliers),
                "lr_history": history.to_dict(),
                "initial_stats": (
                    initial_stats.to_dict() if initial_stats is not None else None
                ),
                **arrays,
            }

        if barrier is None:
            with tracer.span(PHASE_TA):
                lr_result = LagrangianTdmAssigner(
                    incidence, self.config, tracer=tracer
                ).solve(warm_start=warm_start, deadline=deadline)
            history, multipliers = lr_result.history, lr_result.multipliers
            ratios = lr_result.ratios
            if checkpoint is not None:
                checkpoint.save(
                    "phase2.lr", lambda: stage_payload(ratios=_floats(ratios))
                )
        else:
            history = _payload_record(
                payload, barrier, "lr_history", LrHistory.from_dict
            )
            multipliers = _payload_floats(
                payload, barrier, "multipliers", incidence.num_connections, "connection"
            )
            if barrier == "phase2.lr":
                ratios = _payload_pair_values(payload, barrier, "ratios", incidence)

        with tracer.span(PHASE_LGWA):
            if barrier == "phase2.legalized":
                legal_ratios = _payload_pair_values(
                    payload, barrier, "legal_ratios", incidence
                )
                wire_budgets = _payload_wire_budgets(payload, barrier, incidence)
                criticality = _payload_pair_values(
                    payload, barrier, "criticality", incidence
                )
            else:
                legal = TdmLegalizer(incidence, self.config, tracer=tracer).legalize(
                    ratios
                )
                legal_ratios = legal.ratios
                wire_budgets = legal.wire_budgets
                criticality = legal.criticality
                if checkpoint is not None:
                    checkpoint.save(
                        "phase2.legalized",
                        lambda: stage_payload(
                            legal_ratios=_floats(legal_ratios),
                            wire_budgets=[
                                [edge, direction, budget]
                                for (edge, direction), budget in sorted(
                                    wire_budgets.items()
                                )
                            ],
                            criticality=_floats(criticality),
                        ),
                    )
            self.wire_stats = WireAssigner(
                incidence, self.config, tracer=tracer
            ).assign(solution, legal_ratios, wire_budgets, criticality)
        self.multipliers = multipliers
        return history


class SynergisticRouter:
    """The paper's die-level router: phase I then phase II.

    Args:
        system: the multi-FPGA system.
        netlist: the die-level partitioned design.
        delay_model: delay constants (defaults match DESIGN.md).
        config: tuning knobs for both phases.
        tracer: obs tracer receiving spans, counters and per-iteration
            events; defaults to a fresh null-sink tracer so an
            uninstrumented run pays one attribute check per hot call site.
        checkpoint: duck-typed writer with ``save(barrier, build_payload)``
            (e.g. :class:`repro.resilience.CheckpointManager`); when set,
            the run offers it every barrier of docs/resilience.md, so a
            written barrier resumes bit-identically.  ``build_payload``
            is a zero-argument callable returning the barrier's
            JSON-ready state; a writer calls it only for a barrier it
            writes.
        artifacts: optional warm per-topology state
            (:class:`repro.core.artifacts.RoutingArtifacts` for this
            case and pricing config) forwarded to phase I; reuses the
            prebuilt graph/weights/ordering, bit-identical to a cold
            run (docs/serving.md).
    """

    def __init__(
        self,
        system: MultiFpgaSystem,
        netlist: Netlist,
        delay_model: Optional[DelayModel] = None,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
        checkpoint: Optional[Any] = None,
        artifacts: Optional[Any] = None,
    ) -> None:
        netlist.validate_against(system.num_dies)
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.checkpoint = checkpoint
        self.artifacts = artifacts

    def route(self, resume: Optional[Mapping[str, Any]] = None) -> RoutingResult:
        """Run both phases (plus the timing-driven outer loop).

        Args:
            resume: a ``{"barrier": ..., "payload": ...}`` mapping from a
                checkpoint (``execute_request(RouteRequest(resume_from=...))``
                reads it from a checkpoint file).  The run restores the
                barrier's state and falls through into the ordinary
                control flow, so the result is bit-identical to an
                uninterrupted run.

        Raises:
            CheckpointFormatError: when a resume payload field does not
                fit the case.
        """
        tracer = self.tracer
        checkpoint = self.checkpoint
        config = self.config
        # Timer values before the run: route() may be called repeatedly on
        # one tracer, and PhaseTimes must cover this run only.
        baseline = (
            tracer.timer(PHASE_IR),
            tracer.timer(PHASE_TA),
            tracer.timer(PHASE_LGWA),
        )
        budget = config.wall_clock_budget_seconds
        deadline = tracer.elapsed() + budget if budget is not None else None
        barrier = resume["barrier"] if resume is not None else None
        payload = resume["payload"] if resume is not None else None

        # --- Restore the barrier's state, each field checked as it enters.
        # phase1.ordering carries no loop state: the ordering is
        # recomputed deterministically, so resume == fresh run.
        solution: Optional[RoutingSolution] = None
        initial_stats = lr_history = wire_stats = multipliers = None
        moves = start_round = 0
        degraded = False
        if barrier == "phase1.round":
            # Negotiation continues from the payload: phase I reads its
            # paths (restored here), history and stats (checked here).
            payload = dict(
                payload, paths=self._restore_topology(barrier, payload["paths"])
            )
            _payload_floats(
                payload, barrier, "history", self.system.num_edges, "edge"
            )
            _payload_record(payload, barrier, "stats", InitialRoutingStats.from_dict)
        elif barrier in ("phase1.done", "phase2.lr", "phase2.legalized"):
            solution = self._restore_topology(barrier, payload["paths"])
            initial_stats = _payload_record(
                payload,
                barrier,
                "stats" if barrier == "phase1.done" else "initial_stats",
                InitialRoutingStats.from_dict,
            )
        elif barrier in _SOLUTION_BARRIERS:
            solution = self._restore_solution(barrier, payload["solution"])
            initial_stats = _payload_record(
                payload, barrier, "initial_stats", InitialRoutingStats.from_dict
            )
            lr_history = _payload_record(
                payload, barrier, "lr_history", LrHistory.from_dict
            )
            wire_stats = _payload_record(payload, barrier, "wire_stats", _wire_stats)
            multipliers = _payload_floats(
                payload,
                barrier,
                "multipliers",
                self.netlist.num_connections,
                "connection",
            )
            moves = _payload_record(payload, barrier, "moves", int, 0)
            degraded = bool(payload.get("degraded", False))
            start_round = (
                config.timing_reroute_rounds
                if barrier == "final"
                else _payload_record(payload, barrier, "timing_round", int, -1) + 1
            )
        elif barrier not in (None, "phase1.ordering"):
            raise ValueError(f"unknown resume barrier {barrier!r}")

        # --- Phase I (run, or continue negotiation from phase1.round) ---
        if solution is None:
            with tracer.span(PHASE_IR):
                initial = InitialRouter(
                    self.system,
                    self.netlist,
                    self.delay_model,
                    config,
                    tracer=tracer,
                    artifacts=self.artifacts,
                )
                solution = initial.route(
                    resume=payload if barrier == "phase1.round" else None,
                    checkpoint=checkpoint,
                    deadline=deadline,
                )
            initial_stats = initial.stats
        if initial_stats is not None:
            degraded |= initial_stats.degraded

        def offer(name: str, timing_round: int) -> None:
            """Offer a full-solution barrier (assigned/round/final)."""
            if checkpoint is not None:
                checkpoint.save(
                    name,
                    lambda: {
                        "solution": solution_to_dict(solution),
                        "multipliers": _floats(multipliers),
                        "lr_history": (
                            lr_history.to_dict() if lr_history is not None else None
                        ),
                        "wire_stats": (
                            asdict(wire_stats) if wire_stats is not None else None
                        ),
                        "initial_stats": (
                            initial_stats.to_dict()
                            if initial_stats is not None
                            else None
                        ),
                        "timing_round": timing_round,
                        "moves": moves,
                        "degraded": degraded,
                    },
                )

        # --- Phase II (run, or finish from phase2.lr/phase2.legalized) --
        phase2 = TdmAssigner(
            self.system, self.netlist, self.delay_model, config, tracer=tracer
        )
        if barrier not in _SOLUTION_BARRIERS:
            lr_history = phase2.assign(
                solution,
                deadline=deadline,
                checkpoint=checkpoint,
                initial_stats=initial_stats,
                resume=(
                    resume if barrier in ("phase2.lr", "phase2.legalized") else None
                ),
            )
            multipliers, wire_stats = phase2.multipliers, phase2.wire_stats
        if lr_history is not None and lr_history.budget_stopped:
            degraded = True
        if lr_history is not None and barrier not in _SOLUTION_BARRIERS:
            offer("phase2.assigned", timing_round=-1)
        analyzer = TimingAnalyzer(self.system, self.netlist, self.delay_model)
        with tracer.span(SPAN_TIMING):
            timing = analyzer.analyze(solution)

        # --- Timing-driven outer loop: reroute measured-critical
        # connections, re-assign ratios, keep only strict improvements.
        rounds = config.timing_reroute_rounds
        if start_round < rounds and timing.critical_connection >= 0:
            from repro.core.timing_reroute import TimingDrivenRefiner

            refiner = TimingDrivenRefiner(
                self.system, self.netlist, self.delay_model, config
            )
            for round_index in range(start_round, rounds):
                if deadline is not None and tracer.elapsed() > deadline:
                    degraded = True
                    logger.warning(
                        "budget exhausted before timing-reroute round "
                        "%d; keeping best-so-far solution",
                        round_index,
                    )
                    break
                # The refinement search counts as initial-routing work,
                # so it accumulates into the same phase timer.
                with tracer.span(PHASE_IR, kind="timing_reroute"):
                    # ``timing`` is always an analysis of the current
                    # ``solution``, so the refiner need not re-run one.
                    outcome = refiner.refine(solution, report=timing)
                if outcome.solution is None:
                    break
                candidate = outcome.solution
                # The incumbent's multipliers warm-start the re-solve (the
                # topology barely changed, so λ is nearly right already).
                cand_lr = phase2.assign(
                    candidate, warm_start=multipliers, deadline=deadline
                )
                if cand_lr is not None and cand_lr.budget_stopped:
                    degraded = True
                with tracer.span(SPAN_TIMING):
                    cand_timing = analyzer.analyze(candidate)
                improved = (
                    cand_timing.critical_delay < timing.critical_delay - 1e-9
                )
                if tracer.enabled:
                    tracer.event(
                        "timing_reroute.round",
                        round=round_index,
                        moves=outcome.moves,
                        candidate_delay=cand_timing.critical_delay,
                        incumbent_delay=timing.critical_delay,
                        accepted=improved,
                    )
                if not improved:
                    break
                solution, timing = candidate, cand_timing
                if cand_lr is not None:
                    lr_history = cand_lr
                    wire_stats, multipliers = phase2.wire_stats, phase2.multipliers
                moves += outcome.moves
                offer("phase2.round", timing_round=round_index)
        tracer.add("timing_reroute.moves", moves)

        times = PhaseTimes.from_tracer(tracer, baseline)
        conflict_count = solution.conflict_count()
        if degraded:
            tracer.gauge("router.degraded", 1.0)
        logger.info(
            "routing done: critical delay %.3f, %d conflicts, "
            "%.2fs (IR %.2fs, TA %.2fs, LG&WA %.2fs)%s",
            timing.critical_delay,
            conflict_count,
            times.total,
            times.initial_routing,
            times.tdm_assignment,
            times.legalization_wire_assignment,
            " [degraded: budget exhausted]" if degraded else "",
        )
        result = RoutingResult(
            solution=solution,
            critical_delay=timing.critical_delay,
            conflict_count=conflict_count,
            phase_times=times,
            timing=timing,
            lr_history=lr_history,
            initial_stats=initial_stats,
            wire_stats=wire_stats,
            timing_reroute_moves=moves,
            telemetry=tracer.snapshot(),
            degraded=degraded,
        )
        offer("final", timing_round=rounds)
        return result

    # ------------------------------------------------------------------
    # Restoring checkpointed solutions (formats in docs/resilience.md)
    # ------------------------------------------------------------------
    def _restore_topology(
        self, barrier: str, paths: List[Optional[List[int]]]
    ) -> RoutingSolution:
        """A solution holding the checkpointed paths (no ratios/wires).

        Raises:
            CheckpointFormatError: when there is not one valid path per
                connection.
        """
        solution = RoutingSolution(self.system, self.netlist)
        try:
            solution.set_paths(
                [None if path is None else [int(d) for d in path] for path in paths]
            )
        except (TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"{barrier} payload paths: {exc}") from exc
        _require_complete(barrier, "paths", solution)
        return solution

    def _restore_solution(
        self, barrier: str, data: Mapping[str, Any]
    ) -> RoutingSolution:
        """The checkpointed full solution of an assigned/round/final barrier.

        Raises:
            CheckpointFormatError: when it does not route every connection
                of the case on valid paths, or leaves a TDM use of its
                topology without a ratio or a wire.
        """
        try:
            solution = solution_from_dict(data, self.system, self.netlist)
        except ValueError as exc:
            raise CheckpointFormatError(f"{barrier} payload solution: {exc}") from exc
        _require_complete(barrier, "solution", solution)
        use = solution.unassigned_use()
        if use is not None:
            raise CheckpointFormatError(
                f"{barrier} payload solution leaves net {use[0]} on edge "
                f"{use[1]} direction {use[2]} without a TDM ratio and wire"
            )
        return solution


def _floats(values: Optional[Any]) -> Optional[List[float]]:
    """A float array as a JSON-ready list (``None`` stays ``None``)."""
    return None if values is None else [float(x) for x in values]


def _wire_stats(data: Mapping[str, Any]) -> WireAssignmentStats:
    """Inverse of ``dataclasses.asdict`` on :class:`WireAssignmentStats`."""
    return WireAssignmentStats(
        **{f.name: int(data[f.name]) for f in fields(WireAssignmentStats)}
    )


def _require_complete(barrier: str, key: str, solution: RoutingSolution) -> None:
    unrouted = solution.unrouted_connections()
    if unrouted:
        raise CheckpointFormatError(
            f"{barrier} payload {key} leaves connection {unrouted[0]} unrouted"
        )


def _payload_record(
    payload: Mapping[str, Any],
    barrier: str,
    key: str,
    decode: Callable[[Any], Any],
    default: Any = None,
) -> Any:
    """``decode(payload[key])``, or ``default`` when the key is absent or null.

    Raises:
        CheckpointFormatError: naming the barrier and key when the value
            does not decode.
    """
    data = payload.get(key)
    if data is None:
        return default
    try:
        return decode(data)
    except KeyError as exc:
        raise CheckpointFormatError(f"{barrier} payload {key} lacks {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{barrier} payload {key}: {exc}") from exc


def _payload_floats(
    payload: Mapping[str, Any], barrier: str, key: str, size: int, per: str
) -> Optional[np.ndarray]:
    """A checkpointed array of one finite float per ``per`` (``None``
    when the key is absent or null).

    Raises:
        CheckpointFormatError: when the array does not fit.
    """
    data = payload.get(key)
    if data is None:
        return None
    where = f"{barrier} payload {key}"
    try:
        values = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{where}: {exc}") from exc
    if values.shape != (size,):
        raise CheckpointFormatError(
            f"{where} has {values.size} entries, expected one per {per} ({size})"
        )
    if not np.all(np.isfinite(values)):
        raise CheckpointFormatError(f"{where} must be finite")
    return values


def _payload_pair_values(
    payload: Mapping[str, Any], barrier: str, key: str, incidence: TdmIncidence
) -> Optional[np.ndarray]:
    """A checkpointed per-pair array, checked against the rebuilt incidence.

    Ratios must be finite and positive, and legalized ones positive
    multiples of the TDM step; criticalities must be finite.

    Raises:
        CheckpointFormatError: when the array does not fit.
    """
    values = _payload_floats(payload, barrier, key, incidence.num_pairs, "TDM use")
    where = f"{barrier} payload {key}"
    if key != "criticality" and not np.all(values > 0):
        raise CheckpointFormatError(f"{where} must be positive")
    step = incidence.delay_model.tdm_step
    if key == "legal_ratios" and np.any(values % step):
        raise CheckpointFormatError(
            f"{where} must be multiples of the TDM step {step}"
        )
    return values


def _payload_wire_budgets(
    payload: Mapping[str, Any], barrier: str, incidence: TdmIncidence
) -> Dict[Tuple[int, int], int]:
    """Checkpointed ``[edge, direction, budget]`` triples as a budget map.

    Every directed TDM edge in use needs exactly one positive budget, and
    an edge's two budgets must fit its capacity.

    Raises:
        CheckpointFormatError: when the budgets do not fit.
    """
    where = f"{barrier} payload wire_budgets"
    budgets: Dict[Tuple[int, int], int] = {}
    for entry in payload["wire_budgets"]:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and all(type(item) is int for item in entry)
            and entry[2] > 0
        ):
            raise CheckpointFormatError(
                f"{where} entry {entry!r} is not [edge, direction, positive budget]"
            )
        key = (entry[0], entry[1])
        if key in budgets:
            raise CheckpointFormatError(f"{where} repeats {key}")
        budgets[key] = entry[2]
    expected = set(incidence.directed_edges())
    if set(budgets) != expected:
        missing = sorted(expected - set(budgets))
        unexpected = sorted(set(budgets) - expected)
        raise CheckpointFormatError(
            f"{where} must cover the directed TDM edges in use: "
            f"missing {missing}, unexpected {unexpected}"
        )
    totals: Dict[int, int] = {}
    for (edge_index, _), budget in budgets.items():
        totals[edge_index] = totals.get(edge_index, 0) + budget
    for edge_index, total in totals.items():
        capacity = incidence.system.edge(edge_index).capacity
        if total > capacity:
            raise CheckpointFormatError(
                f"{where} total {total} wires on edge {edge_index}, over "
                f"its capacity {capacity}"
            )
    return budgets
