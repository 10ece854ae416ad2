"""Configuration of the synergistic router."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional


@dataclass(kw_only=True)
class RouterConfig:
    """Tuning knobs of both router phases.

    Construction is keyword-only: every knob must be named, so configs
    survive field reordering and read unambiguously at call sites.
    ``to_dict``/``from_dict`` give an exact round-trip used by
    checkpoints (:mod:`repro.resilience`) and ``RouteRequest`` dicts
    (:mod:`repro.api`).

    Phase I (initial routing):

    Attributes:
        mu_shared: the paper's µ for an edge already used by another
            connection of the same net (Section III-B; 1/2 in practice).
            Must be in (0, 1].
        max_reroute_iterations: negotiation rounds after the first pass;
            each round rips up and reroutes nets crossing overflowed SLL
            edges with increased history costs.
        history_increment: history-cost bump per overflow round for each
            overflowed SLL edge (PathFinder-style), as a fraction of the
            edge's base weight.
        present_penalty: multiplier applied per unit of *prospective*
            SLL overuse while searching (present-congestion term).
        ripup_factor: per overflowed SLL edge, rip up only
            ``ceil(factor * overuse)`` nets — the ones with the smallest
            routing weight, i.e. the cheapest to move — instead of every
            net on the edge.  Keeps critical nets on their short paths
            while the overflow drains; ``float("inf")`` restores the
            rip-everything behaviour.
        weight_mode: ``"auto"`` applies the paper's rule (delay-driven
            weights when die demand is below half the SLL capacity,
            congestion-driven otherwise); ``"delay"``/``"congestion"``
            force one mode (used by the ablation benchmarks).
        timing_reroute_rounds: timing-driven outer rounds after phase II:
            each round reroutes only the *measured-critical* connections
            under a wire-ratio-aware delay cost, re-runs phase II, and
            keeps the result only if the critical delay improved (monotone
            by construction).  Guards the critical connection against the
            µ sharing discount trading its delay for edge usage; 0
            disables the loop (ablated in the benchmarks).

    Phase II (TDM ratio assignment):

    Attributes:
        lr_max_iterations: cap on Lagrangian-relaxation iterations
            (Algorithm 1's MaxIter).
        lr_epsilon: relative primal-dual gap threshold (Algorithm 1's ε).
        refine_margin_epsilon: Algorithm 2 stops once the margin between a
            directed edge's wire budget and its demand drops below this.

    Resilience (docs/resilience.md):

    Attributes:
        wall_clock_budget_seconds: graceful-degradation budget.  When
            set, the router checks ``tracer.elapsed()`` against the
            deadline at phase I round boundaries, after each LR
            iteration and between timing-reroute rounds, and exits early
            with the best-so-far legal solution, flagging the result (and
            run report) ``degraded``.  ``None`` (default) never degrades.
    """

    mu_shared: float = 0.5
    max_reroute_iterations: int = 30
    history_increment: float = 1.0
    present_penalty: float = 4.0
    weight_mode: str = "auto"
    ripup_factor: float = 2.0
    timing_reroute_rounds: int = 3

    lr_max_iterations: int = 100
    lr_epsilon: float = 1e-3
    refine_margin_epsilon: float = 1e-6

    wall_clock_budget_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Each bound is written so that NaN fails it (``not x >= 0``
        # rather than ``x < 0``).
        if not 0.0 < self.mu_shared <= 1.0:
            raise ValueError("mu_shared must be in (0, 1]")
        if self.max_reroute_iterations < 0:
            raise ValueError("max_reroute_iterations must be non-negative")
        if not self.history_increment >= 0:
            raise ValueError("history_increment must be non-negative")
        if not self.present_penalty >= 0:
            raise ValueError("present_penalty must be non-negative")
        if not self.ripup_factor > 0:
            raise ValueError("ripup_factor must be positive")
        if self.weight_mode not in ("auto", "delay", "congestion"):
            raise ValueError("weight_mode must be auto, delay or congestion")
        if self.timing_reroute_rounds < 0:
            raise ValueError("timing_reroute_rounds must be non-negative")
        if self.lr_max_iterations <= 0:
            raise ValueError("lr_max_iterations must be positive")
        if not self.lr_epsilon > 0:
            raise ValueError("lr_epsilon must be positive")
        if not self.refine_margin_epsilon >= 0:
            raise ValueError("refine_margin_epsilon must be non-negative")
        if (
            self.wall_clock_budget_seconds is not None
            and not self.wall_clock_budget_seconds >= 0
        ):
            raise ValueError("wall_clock_budget_seconds must be non-negative")

    # ------------------------------------------------------------------
    # Exact dict round-trip (checkpoints, request dicts)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Field-name → value mapping; ``from_dict(to_dict())`` is exact.

        Every value is JSON-serializable (floats survive a JSON
        round-trip bit-exactly; ``float("inf")`` serializes as JSON
        ``Infinity``).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RouterConfig":
        """Build a config from a mapping, validating every key.

        Args:
            data: field-name → value mapping; may omit fields (defaults
                apply) but must not contain unknown keys.

        Raises:
            ValueError: on unknown keys or invalid field values.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RouterConfig fields: {', '.join(unknown)}")
        return cls(**dict(data))
