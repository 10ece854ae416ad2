"""Top-level synergistic router (Fig. 3's overall flow) and the standalone
phase II assigner used to refine foreign topologies (Fig. 5(a))."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence, build_incidence
from repro.core.initial_routing import InitialRouter, InitialRoutingStats
from repro.core.lagrangian import LagrangianTdmAssigner, LrHistory
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner, WireAssignmentStats
from repro.arch.system import MultiFpgaSystem
from repro.netlist.netlist import Netlist
from repro.obs import TelemetrySnapshot, Tracer, get_logger
from repro.parallel import ParallelExecutor, resolve_workers
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


def parallel_run_info(config: RouterConfig) -> Dict[str, Any]:
    """How a run's worker pools will be sized under ``config``.

    The resolved count is what :class:`~repro.parallel.ParallelExecutor`
    would use (an explicit ``num_workers`` verbatim; ``None`` via the
    ``REPRO_WORKERS`` env var, else the paper default) — recorded in run
    reports and bench rows so perf comparisons can see the actual
    parallelism, not just the request.
    """
    workers, from_env = resolve_workers(config.num_workers)
    return {
        "requested_workers": config.num_workers,
        "resolved_workers": workers,
        "workers_from_env": from_env,
    }


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
        parallel_info: how the run's worker pool was sized — requested
            vs resolved worker count and whether ``REPRO_WORKERS``
            supplied it.  Recorded in run reports and ``BENCH_*.json``
            so perf-sentinel comparisons are apples-to-apples
            (docs/performance.md).
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
    parallel_info: Optional[Dict[str, Any]] = None

    @property
    def is_legal(self) -> bool:
        """Whether the topology is overlap-free on SLL edges."""
        return self.conflict_count == 0


class TdmAssigner:
    """Phase II standalone: LR ratios, legalization, wire assignment.

    Runs the paper's full TDM ratio pipeline on *any* routed topology —
    ours or a baseline's (the Fig. 5(a) experiment).
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

    def _executor(self) -> ParallelExecutor:
        workers = self.config.num_workers
        # The paper's rule: auto-size only above 200k nets, 1 below.
        # ``None`` is forwarded so the executor resolves it (REPRO_WORKERS
        # env override, else the paper's min(10, cpu_count) default).
        if (
            workers is None
            and self.netlist.num_nets <= self.config.parallel_net_threshold
        ):
            workers = 1
        return ParallelExecutor(
            workers,
            tracer=self.tracer,
            max_retries=self.config.worker_max_retries,
            retry_backoff=self.config.worker_retry_backoff_seconds,
        )

    def assign(
        self,
        solution: RoutingSolution,
        prev_incidence: Optional[TdmIncidence] = None,
        changed_connections: Optional[list] = None,
    ) -> Optional[LrHistory]:
        """Assign ratios and wires in place; returns the LR history."""
        history, _ = self.assign_with_stats(
            solution,
            prev_incidence=prev_incidence,
            changed_connections=changed_connections,
        )
        return history

    def assign_with_stats(
        self,
        solution: RoutingSolution,
        prev_incidence: Optional[TdmIncidence] = None,
        changed_connections: Optional[list] = None,
    ) -> "tuple[Optional[LrHistory], Optional[WireAssignmentStats]]":
        """Like :meth:`assign` but also returns wire-assignment counters.

        Args:
            solution: the routed topology to assign ratios and wires for.
            prev_incidence: incidence of the topology this solution was
                derived from (e.g. before an ECO); enables the incremental
                rebuild when few connections changed.
            changed_connections: connection indices whose path differs
                from ``prev_incidence``'s topology.
        """
        tracer = self.tracer
        incidence, _ = build_incidence(
            self.system,
            self.netlist,
            solution,
            self.delay_model,
            previous=prev_incidence,
            changed_connections=changed_connections,
            incremental_fraction=self.config.incremental_rebuild_fraction,
            tracer=tracer,
        )
        if incidence.num_pairs == 0:
            return None, None
        with self._executor() as executor:
            with tracer.span(PHASE_TA):
                lr = LagrangianTdmAssigner(incidence, self.config, tracer=tracer)
                lr_result = lr.solve()
            with tracer.span(PHASE_LGWA):
                legalizer = TdmLegalizer(
                    incidence, self.config, executor, tracer=tracer
                )
                legal = legalizer.legalize(lr_result.ratios)
                incidence.write_ratios(solution, legal.ratios)
                assigner = WireAssigner(incidence, self.config, executor, tracer=tracer)
                stats = assigner.assign(
                    solution, legal.ratios, legal.wire_budgets, legal.criticality
                )
        return lr_result.history, stats


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
            prebuilt graph/ordering/seed trees, bit-identical to a cold
            run (docs/serving.md).
        executor: optional externally pooled
            :class:`~repro.parallel.ParallelExecutor` serving phase II.
            The router never closes an external executor — the owner
            (e.g. :class:`repro.serve.RoutingService`, which shares one
            pool across requests) does; when absent the router creates
            and closes its own.
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
        executor: Optional[ParallelExecutor] = None,
    ) -> None:
        netlist.validate_against(system.num_dies)
        self.system = system
        self.netlist = netlist
        self.delay_model = delay_model if delay_model is not None else DelayModel()
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.checkpoint = checkpoint
        self.artifacts = artifacts
        self.executor = executor

    def route(self, resume: Optional[Mapping[str, Any]] = None) -> RoutingResult:
        """Run both phases (plus the timing-driven outer loop).

        Args:
            resume: a ``{"barrier": ..., "payload": ...}`` mapping from a
                checkpoint (use :func:`repro.resilience.resume` rather
                than building one by hand).  The run restores the
                barrier's state and falls through into the ordinary
                control flow, so the result is bit-identical to an
                uninterrupted run.
        """
        tracer = self.tracer
        checkpoint = self.checkpoint
        # Timer values before the run: route() may be called repeatedly on
        # one tracer, and PhaseTimes must cover this run only.
        baseline = (
            tracer.timer(PHASE_IR),
            tracer.timer(PHASE_TA),
            tracer.timer(PHASE_LGWA),
        )
        budget = self.config.wall_clock_budget_seconds
        deadline = tracer.elapsed() + budget if budget is not None else None
        degraded = False

        barrier = resume["barrier"] if resume is not None else None
        payload = resume["payload"] if resume is not None else None

        # --- Phase I (run, resume mid-negotiation, or restore) ---------
        initial_stats: Optional[InitialRoutingStats] = None
        lr_history = wire_stats = multipliers = incidence = None
        moves = 0
        start_round = 0
        phase2_state = "run"
        if barrier is None or barrier == "phase1.ordering":
            # phase1.ordering carries no loop state: the ordering is
            # recomputed deterministically, so resume == fresh run.
            with tracer.span(PHASE_IR):
                initial = InitialRouter(
                    self.system,
                    self.netlist,
                    self.delay_model,
                    self.config,
                    tracer=tracer,
                    artifacts=self.artifacts,
                )
                solution = initial.route(checkpoint=checkpoint, deadline=deadline)
            initial_stats = initial.stats
            degraded |= initial.stats.degraded
        elif barrier == "phase1.round":
            with tracer.span(PHASE_IR):
                initial = InitialRouter(
                    self.system,
                    self.netlist,
                    self.delay_model,
                    self.config,
                    tracer=tracer,
                    artifacts=self.artifacts,
                )
                solution = initial.route(
                    resume=payload, checkpoint=checkpoint, deadline=deadline
                )
            initial_stats = initial.stats
            degraded |= initial.stats.degraded
        elif barrier == "phase1.done":
            solution = self._restore_topology(payload["paths"])
            initial_stats = InitialRoutingStats.from_dict(payload["stats"])
            degraded |= initial_stats.degraded
        elif barrier in ("phase2.lr", "phase2.legalized"):
            solution = self._restore_topology(payload["paths"])
            initial_stats = self._initial_stats_from(payload)
            phase2_state = ("resume", barrier, payload)
        elif barrier in ("phase2.assigned", "phase2.round", "final"):
            from repro.io.json_format import solution_from_dict

            solution = solution_from_dict(
                payload["solution"], self.system, self.netlist
            )
            initial_stats = self._initial_stats_from(payload)
            multipliers = self._multipliers_from(payload.get("multipliers"))
            lr_history = (
                LrHistory.from_dict(payload["lr_history"])
                if payload.get("lr_history") is not None
                else None
            )
            wire_stats = self._wire_stats_from(payload.get("wire_stats"))
            moves = int(payload.get("moves", 0))
            degraded |= bool(payload.get("degraded", False))
            if barrier == "final":
                phase2_state = "done"
                start_round = self.config.timing_reroute_rounds
            else:
                phase2_state = "assigned"
                start_round = int(payload.get("timing_round", -1)) + 1
        else:
            raise ValueError(f"unknown resume barrier {barrier!r}")
        if initial_stats is not None:
            degraded |= initial_stats.degraded

        # One executor serves every phase II stage of every round; its
        # thread pool (when parallel) is spawned once and reused.  An
        # external executor (the serving layer's shared pool) outlives
        # the run and is never closed here.
        owns_executor = self.executor is None
        executor = (
            self.executor
            if self.executor is not None
            else TdmAssigner(
                self.system, self.netlist, self.delay_model, self.config, tracer=tracer
            )._executor()
        )
        try:
            analyzer = TimingAnalyzer(self.system, self.netlist, self.delay_model)
            if phase2_state == "run":
                lr_history, wire_stats, multipliers, incidence = self._run_phase2(
                    solution,
                    executor=executor,
                    checkpoint=checkpoint,
                    deadline=deadline,
                    initial_stats=initial_stats,
                )
            elif isinstance(phase2_state, tuple):
                _, p2_barrier, p2_payload = phase2_state
                lr_history, wire_stats, multipliers, incidence = (
                    self._resume_phase2(solution, p2_barrier, p2_payload, executor)
                )
            if lr_history is not None and lr_history.budget_stopped:
                degraded = True
            phase2_ran = phase2_state == "run" or isinstance(phase2_state, tuple)
            if checkpoint is not None and phase2_ran and lr_history is not None:
                checkpoint.save(
                    "phase2.assigned",
                    lambda: self._phase2_payload(
                        solution,
                        multipliers,
                        lr_history,
                        wire_stats,
                        initial_stats,
                        timing_round=-1,
                        moves=0,
                        degraded=degraded,
                    ),
                )
            with tracer.span(SPAN_TIMING):
                timing = analyzer.analyze(solution)

            # Timing-driven outer loop: reroute measured-critical
            # connections, re-assign ratios, keep only strict improvements.
            if (
                phase2_state != "done"
                and timing.critical_connection >= 0
                and self.config.timing_reroute_rounds
            ):
                from repro.core.timing_reroute import TimingDrivenRefiner

                refiner = TimingDrivenRefiner(
                    self.system, self.netlist, self.delay_model, self.config
                )
                for round_index in range(
                    start_round, self.config.timing_reroute_rounds
                ):
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
                    # The previous round's multipliers warm-start the
                    # re-solve (the topology barely changed, so λ is nearly
                    # right already), and the round's changed-connection
                    # set lets the incidence rebuild incrementally.
                    cand_lr, cand_wires, cand_multipliers, cand_incidence = (
                        self._run_phase2(
                            candidate,
                            warm_start=multipliers,
                            executor=executor,
                            prev_incidence=incidence,
                            changed_connections=outcome.changed_connections,
                            deadline=deadline,
                        )
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
                    if improved:
                        solution = candidate
                        timing = cand_timing
                        incidence = cand_incidence
                        lr_history = cand_lr if cand_lr is not None else lr_history
                        wire_stats = (
                            cand_wires if cand_wires is not None else wire_stats
                        )
                        multipliers = (
                            cand_multipliers
                            if cand_multipliers is not None
                            else multipliers
                        )
                        moves += outcome.moves
                        if checkpoint is not None:
                            checkpoint.save(
                                "phase2.round",
                                lambda: self._phase2_payload(
                                    solution,
                                    multipliers,
                                    lr_history,
                                    wire_stats,
                                    initial_stats,
                                    timing_round=round_index,
                                    moves=moves,
                                    degraded=degraded,
                                ),
                            )
                    else:
                        break
        finally:
            if owns_executor:
                executor.close()
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
            parallel_info=parallel_run_info(self.config),
        )
        if checkpoint is not None:
            checkpoint.save(
                "final",
                lambda: self._phase2_payload(
                    solution,
                    multipliers,
                    lr_history,
                    wire_stats,
                    initial_stats,
                    timing_round=self.config.timing_reroute_rounds,
                    moves=moves,
                    degraded=degraded,
                ),
            )
        return result

    # ------------------------------------------------------------------
    # Checkpoint payload helpers (formats in docs/resilience.md)
    # ------------------------------------------------------------------
    def _restore_topology(self, paths: List[Optional[List[int]]]) -> RoutingSolution:
        """A solution holding the checkpointed paths (no ratios/wires)."""
        solution = RoutingSolution(self.system, self.netlist)
        for conn_index, path in enumerate(paths):
            if path is not None:
                solution.set_path(conn_index, [int(d) for d in path])
        return solution

    @staticmethod
    def _paths_payload(solution: RoutingSolution) -> List[Optional[List[int]]]:
        """Per-connection die paths, JSON-ready."""
        return [
            list(solution.path(i)) if solution.path(i) is not None else None
            for i in range(solution.netlist.num_connections)
        ]

    @staticmethod
    def _multipliers_from(data: Optional[List[float]]) -> Optional[np.ndarray]:
        return None if data is None else np.asarray(data, dtype=np.float64)

    @staticmethod
    def _multipliers_payload(multipliers) -> Optional[List[float]]:
        return None if multipliers is None else [float(x) for x in multipliers]

    @staticmethod
    def _wire_stats_from(data: Optional[Mapping[str, int]]):
        if data is None:
            return None
        return WireAssignmentStats(**{k: int(v) for k, v in data.items()})

    @staticmethod
    def _wire_stats_payload(stats: Optional[WireAssignmentStats]):
        if stats is None:
            return None
        return {
            "wires_used": stats.wires_used,
            "nets_assigned": stats.nets_assigned,
            "overflow_bumps": stats.overflow_bumps,
            "critical_moves": stats.critical_moves,
        }

    @staticmethod
    def _initial_stats_from(
        payload: Mapping[str, Any]
    ) -> Optional[InitialRoutingStats]:
        data = payload.get("initial_stats")
        return InitialRoutingStats.from_dict(data) if data is not None else None

    def _phase2_payload(
        self,
        solution: RoutingSolution,
        multipliers,
        lr_history: Optional[LrHistory],
        wire_stats: Optional[WireAssignmentStats],
        initial_stats: Optional[InitialRoutingStats],
        *,
        timing_round: int,
        moves: int,
        degraded: bool,
    ) -> Dict[str, Any]:
        """Payload of the full-solution barriers (assigned/round/final)."""
        from repro.io.json_format import solution_to_dict

        return {
            "solution": solution_to_dict(solution),
            "multipliers": self._multipliers_payload(multipliers),
            "lr_history": lr_history.to_dict() if lr_history is not None else None,
            "wire_stats": self._wire_stats_payload(wire_stats),
            "initial_stats": (
                initial_stats.to_dict() if initial_stats is not None else None
            ),
            "timing_round": timing_round,
            "moves": moves,
            "degraded": degraded,
        }

    def _resume_phase2(
        self,
        solution: RoutingSolution,
        barrier: str,
        payload: Mapping[str, Any],
        executor: ParallelExecutor,
    ) -> "tuple[Optional[LrHistory], Optional[WireAssignmentStats], object, TdmIncidence]":
        """Finish phase II from a ``phase2.lr``/``phase2.legalized`` payload.

        The incidence is cold-rebuilt (bit-equal to any incremental
        build), the checkpointed ratios replace the skipped LR solve, and
        legalization/wire assignment continue exactly as the uninterrupted
        run would have.
        """
        tracer = self.tracer
        incidence, _ = build_incidence(
            self.system, self.netlist, solution, self.delay_model, tracer=tracer
        )
        multipliers = self._multipliers_from(payload.get("multipliers"))
        lr_history = LrHistory.from_dict(payload["lr_history"])
        with tracer.span(PHASE_LGWA):
            if barrier == "phase2.lr":
                ratios = np.asarray(payload["ratios"], dtype=np.float64)
                legal = TdmLegalizer(
                    incidence, self.config, executor, tracer=tracer
                ).legalize(ratios)
                legal_ratios = legal.ratios
                wire_budgets = legal.wire_budgets
                criticality = legal.criticality
            else:
                legal_ratios = np.asarray(
                    payload["legal_ratios"], dtype=np.float64
                )
                wire_budgets = {
                    (int(edge), int(direction)): int(budget)
                    for edge, direction, budget in payload["wire_budgets"]
                }
                criticality = (
                    np.asarray(payload["criticality"], dtype=np.float64)
                    if payload.get("criticality") is not None
                    else None
                )
            incidence.write_ratios(solution, legal_ratios)
            wire_stats = WireAssigner(
                incidence, self.config, executor, tracer=tracer
            ).assign(solution, legal_ratios, wire_budgets, criticality)
        return lr_history, wire_stats, multipliers, incidence

    def _run_phase2(
        self,
        solution: RoutingSolution,
        warm_start=None,
        executor: Optional[ParallelExecutor] = None,
        prev_incidence: Optional[TdmIncidence] = None,
        changed_connections=None,
        checkpoint: Optional[Any] = None,
        deadline: Optional[float] = None,
        initial_stats: Optional[InitialRoutingStats] = None,
    ) -> "tuple[Optional[LrHistory], Optional[WireAssignmentStats], object, TdmIncidence]":
        """LR + legalization + wire assignment on one topology.

        Each stage runs under its phase span (``phase.tdm_assignment`` /
        ``phase.legalization_wire_assignment``), so repeated calls from
        the timing-driven loop accumulate into the same phase timers.

        Args:
            solution: the topology to assign ratios and wires for.
            warm_start: multipliers from the previous round's solve.
            executor: a shared phase II executor (one is created — and
                closed — here when absent).
            prev_incidence: the previous round's incidence; together with
                ``changed_connections`` it enables the incremental
                rebuild (gated on
                ``config.incremental_rebuild_fraction``).
            changed_connections: connection indices rerouted since
                ``prev_incidence`` was built.
            checkpoint: when set (initial pass only — timing-round
                candidates may be rejected, so their intermediate states
                are not resumable), offered the ``phase2.lr`` and
                ``phase2.legalized`` barriers.
            deadline: wall-clock budget forwarded to the LR solve.
            initial_stats: phase I diagnostics embedded into checkpoint
                payloads.

        Returns the LR history, wire stats, the final multipliers (a warm
        start for the next timing-reroute round) and the incidence (the
        next round's ``prev_incidence``).
        """
        tracer = self.tracer
        incidence, delta = build_incidence(
            self.system,
            self.netlist,
            solution,
            self.delay_model,
            previous=prev_incidence,
            changed_connections=changed_connections,
            incremental_fraction=self.config.incremental_rebuild_fraction,
            tracer=tracer,
        )
        if not incidence.num_pairs:
            return None, None, None, incidence
        if delta is not None:
            warm_start = delta.map_multipliers(warm_start)
        owns_executor = executor is None
        if owns_executor:
            executor = TdmAssigner(
                self.system, self.netlist, self.delay_model, self.config, tracer=tracer
            )._executor()
        try:
            with tracer.span(PHASE_TA):
                lr_result = LagrangianTdmAssigner(
                    incidence, self.config, tracer=tracer
                ).solve(warm_start=warm_start, deadline=deadline)
            if checkpoint is not None:
                checkpoint.save(
                    "phase2.lr",
                    lambda: {
                        "paths": self._paths_payload(solution),
                        "ratios": [float(r) for r in lr_result.ratios],
                        "multipliers": self._multipliers_payload(
                            lr_result.multipliers
                        ),
                        "lr_history": lr_result.history.to_dict(),
                        "initial_stats": (
                            initial_stats.to_dict()
                            if initial_stats is not None
                            else None
                        ),
                    },
                )

            with tracer.span(PHASE_LGWA):
                legal = TdmLegalizer(
                    incidence, self.config, executor, tracer=tracer
                ).legalize(lr_result.ratios)
                if checkpoint is not None:
                    checkpoint.save(
                        "phase2.legalized",
                        lambda: {
                            "paths": self._paths_payload(solution),
                            "legal_ratios": [float(r) for r in legal.ratios],
                            "wire_budgets": [
                                [edge, direction, budget]
                                for (edge, direction), budget in sorted(
                                    legal.wire_budgets.items()
                                )
                            ],
                            "criticality": (
                                [float(c) for c in legal.criticality]
                                if legal.criticality is not None
                                else None
                            ),
                            "multipliers": self._multipliers_payload(
                                lr_result.multipliers
                            ),
                            "lr_history": lr_result.history.to_dict(),
                            "initial_stats": (
                                initial_stats.to_dict()
                                if initial_stats is not None
                                else None
                            ),
                        },
                    )
                incidence.write_ratios(solution, legal.ratios)
                wire_stats = WireAssigner(
                    incidence, self.config, executor, tracer=tracer
                ).assign(solution, legal.ratios, legal.wire_budgets, legal.criticality)
        finally:
            if owns_executor:
                executor.close()
        return lr_result.history, wire_stats, lr_result.multipliers, incidence
