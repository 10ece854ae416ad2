"""Lagrangian-relaxation-based initial TDM ratio assignment (Section III-C).

The primal problem (Eq. 3) minimizes the critical connection delay subject
to per-TDM-edge capacity constraints ``Σ 1/r_ne <= cap_e - 1`` (one wire is
reserved so both directions always get at least one wire each during
legalization).  Relaxing the delay constraints with multipliers ``λ_c``
yields the subproblem (Eq. 5) whose optimum has the closed form of Eq. 12
via the Cauchy–Schwarz inequality; the dual is maximized by the
multiplicative update of Eq. 13 with an adaptive acceleration factor.

Every step is data-parallel over TDM edges (the Eq. 12 solve) or over
connections (delay evaluation and the multiplier update); the paper uses
OpenMP reductions, we use numpy scatter/gather over the incidence arrays
of :class:`repro.core.incidence.TdmIncidence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence
from repro.obs import Tracer, get_logger

_LAMBDA_FLOOR = 1e-16
_ETA_FLOOR = 1e-30

#: Lower clamp on the continuous Eq. 12 ratios.  Clamping a ratio *up*
#: only decreases ``Σ 1/r``, so edge capacity constraints still hold.
MIN_RATIO = 1.0

logger = get_logger(__name__)


@dataclass
class LrIteration:
    """Diagnostics of one LR iteration.

    ``lower_bound`` is the dual value ``λ·d`` at the iteration's ratios,
    and ``gap`` is ``(critical_delay - lower_bound) / lower_bound``.
    Neither is a certificate: Eq. 12 is solved under ``cap_e - 1``, which
    is not a relaxation of the wire rule, and the ratios are clamped up to
    :data:`MIN_RATIO` after the closed form, which can lift ``λ·d`` above
    the subproblem's optimum.  So ``lower_bound`` is not a lower bound on
    the critical delay of any legal solution; the sound bounds live in
    :mod:`repro.analysis.lower_bound`.  The field names stay because
    checkpoint payloads carry them.
    """

    iteration: int
    critical_delay: float
    lower_bound: float
    gap: float
    acceleration: float


@dataclass
class LrHistory:
    """Convergence history of the LR loop.

    ``budget_stopped`` records that a wall-clock budget ended the loop
    early (docs/resilience.md): the best-so-far ratios are still legal
    and are what the run returns, but the result is flagged degraded.
    """

    iterations: List[LrIteration] = field(default_factory=list)
    converged: bool = False
    budget_stopped: bool = False

    @property
    def num_iterations(self) -> int:
        """Number of LR iterations run."""
        return len(self.iterations)

    @property
    def final_gap(self) -> float:
        """Relative gap of the last iteration (inf when empty).

        The LR's stopping test, not an optimality certificate: its dual
        value is not a lower bound on any legal solution's critical delay
        (see :class:`LrIteration`).
        """
        if not self.iterations:
            return float("inf")
        return self.iterations[-1].gap

    @property
    def best_delay(self) -> float:
        """Best (smallest) critical delay seen across iterations.

        ``inf`` when no iteration ran, consistent with :attr:`final_gap`
        (an empty history has no delay, not a zero one).
        """
        if not self.iterations:
            return float("inf")
        return min(it.critical_delay for it in self.iterations)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (checkpoint payloads); floats stay bit-exact."""
        return {
            "converged": self.converged,
            "budget_stopped": self.budget_stopped,
            "iterations": [
                {
                    "iteration": it.iteration,
                    "critical_delay": it.critical_delay,
                    "lower_bound": it.lower_bound,
                    "gap": it.gap,
                    "acceleration": it.acceleration,
                }
                for it in self.iterations
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LrHistory":
        """Inverse of :meth:`to_dict`."""
        return cls(
            iterations=[
                LrIteration(
                    iteration=int(it["iteration"]),
                    critical_delay=float(it["critical_delay"]),
                    lower_bound=float(it["lower_bound"]),
                    gap=float(it["gap"]),
                    acceleration=float(it["acceleration"]),
                )
                for it in data["iterations"]
            ],
            converged=bool(data["converged"]),
            budget_stopped=bool(data.get("budget_stopped", False)),
        )


class LagrangianTdmAssigner:
    """Runs Algorithm 1 over a :class:`TdmIncidence`.

    The loop reuses preallocated √η/ratio/delay buffers and the
    precomputed per-pair capacity gather across iterations.  Its
    reductions are ``np.bincount`` scatters and pairwise ``ndarray.sum``
    calls, never a BLAS product, so every float is independent of the
    host's BLAS thread count.

    Args:
        incidence: the solution's TDM incidence arrays.
        config: router configuration (LR iteration cap and ε).
        tracer: optional obs tracer; each iteration emits an
            ``lr.iteration`` event (gap, bounds, acceleration, ‖λ‖) when a
            sink is attached.
    """

    def __init__(
        self,
        incidence: TdmIncidence,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.incidence = incidence
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        # Compact per-edge grouping of pairs (the Eq. 12 solve is per edge).
        self._edge_ids, self._pair_group = np.unique(
            incidence.pair_edge, return_inverse=True
        )
        self._num_groups = len(self._edge_ids)
        if self._num_groups:
            group_caps = np.empty(self._num_groups, dtype=np.float64)
            # All pairs of a group share the edge, hence the capacity.
            group_caps[self._pair_group] = incidence.pair_cap
            # Per-pair gather of the per-group divisor, fixed for the run.
            self._cap_pp = (group_caps - 1.0)[self._pair_group]
        num_pairs = incidence.num_pairs
        self._sqrt_buf = np.empty(num_pairs, dtype=np.float64)
        self._ratio_buf = np.empty(num_pairs, dtype=np.float64)
        self._delay_buf = np.empty(incidence.num_connections, dtype=np.float64)
        self._lam_work = np.empty(incidence.num_connections, dtype=np.float64)

    # ------------------------------------------------------------------
    def solve(
        self,
        warm_start: Optional[np.ndarray] = None,
        deadline: Optional[float] = None,
    ) -> "LrResult":
        """Run the LR loop and return the best continuous ratios found.

        Args:
            warm_start: optional multipliers from a previous solve on a
                similar topology (e.g. the previous timing-reroute round);
                re-normalized before use.  Defaults to the paper's uniform
                ``1/||C||`` initialization.
            deadline: wall-clock budget as a ``tracer.elapsed()`` value;
                checked after each iteration (at least one always runs).
                When exceeded, the loop stops with the best-so-far
                ratios and marks ``history.budget_stopped``.
        """
        inc = self.incidence
        cfg = self.config
        history = LrHistory()
        if inc.num_pairs == 0 or inc.num_connections == 0:
            return LrResult(
                ratios=np.zeros(0, dtype=np.float64),
                connection_delays=inc.connection_delays(np.zeros(0)),
                history=history,
            )

        num_conns = inc.num_connections
        if warm_start is not None and warm_start.shape == (num_conns,):
            lam = np.maximum(warm_start.astype(np.float64), _LAMBDA_FLOOR)
            lam /= lam.sum()
        else:
            lam = np.full(num_conns, 1.0 / num_conns, dtype=np.float64)
        acceleration = 1.0
        best_delay = np.inf
        best_ratios: Optional[np.ndarray] = None
        best_delays: Optional[np.ndarray] = None
        prev_lower_bound = -np.inf
        work = self._lam_work

        for iteration in range(cfg.lr_max_iterations):
            ratios = self._solve_lrs(lam)
            delays = inc.connection_delays(ratios, out=self._delay_buf)
            critical = float(delays.max())
            # The dual value λ·d (see LrIteration: not a certificate).
            lower_bound = float(np.multiply(lam, delays, out=work).sum())
            gap = (critical - lower_bound) / max(lower_bound, 1e-12)
            history.iterations.append(
                LrIteration(
                    iteration=iteration,
                    critical_delay=critical,
                    lower_bound=lower_bound,
                    gap=gap,
                    acceleration=acceleration,
                )
            )
            if self.tracer.enabled:
                self.tracer.event(
                    "lr.iteration",
                    iteration=iteration,
                    critical_delay=critical,
                    lower_bound=lower_bound,
                    gap=gap,
                    acceleration=acceleration,
                    lambda_norm=math.sqrt(np.square(lam, out=work).sum()),
                )
            if critical < best_delay:
                best_delay = critical
                # The ratio/delay buffers are reused on the next
                # iteration, so the best-so-far state is snapshotted.
                best_ratios = ratios.copy()
                best_delays = delays.copy()
            if gap < cfg.lr_epsilon:
                history.converged = True
                break
            if deadline is not None and self.tracer.elapsed() > deadline:
                history.budget_stopped = True
                logger.warning(
                    "LR budget exhausted after %d iterations; keeping "
                    "best-so-far ratios (gap %.2e)",
                    iteration + 1,
                    gap,
                )
                break
            # Acceleration factor (the paper follows [15]): speed up
            # while the dual value keeps improving, damp otherwise.
            if lower_bound > prev_lower_bound:
                acceleration = min(acceleration * 1.1, 4.0)
            else:
                acceleration = max(acceleration * 0.8, 0.25)
            prev_lower_bound = max(prev_lower_bound, lower_bound)
            # Eq. 13 multiplicative update, then re-normalize to satisfy
            # the KKT condition Σλ = 1 (Eq. 8).
            if critical > 0:
                np.maximum(delays, 1e-12, out=work)
                np.divide(work, critical, out=work)
                np.power(work, acceleration, out=work)
                np.multiply(lam, work, out=lam)
            np.maximum(lam, _LAMBDA_FLOOR, out=lam)
            lam /= lam.sum()

        assert best_ratios is not None and best_delays is not None
        self.tracer.add("lr.iterations", history.num_iterations)
        self.tracer.gauge("lr.final_gap", history.final_gap)
        self.tracer.gauge("lr.converged", 1.0 if history.converged else 0.0)
        logger.info(
            "LR %s after %d iterations: best delay %.3f, final gap %.2e",
            "converged" if history.converged else "hit the iteration cap",
            history.num_iterations,
            history.best_delay,
            history.final_gap,
        )
        return LrResult(
            ratios=best_ratios,
            connection_delays=best_delays,
            history=history,
            multipliers=lam,
        )

    # ------------------------------------------------------------------
    def _solve_lrs(self, lam: np.ndarray) -> np.ndarray:
        """Closed-form optimum of the LR subproblem (Eq. 12) per TDM edge."""
        inc = self.incidence
        # Eq. 10: η_ne = d1 * Σ_{c of n using e} λ_c.
        eta = np.bincount(
            inc.inc_pair, weights=lam[inc.inc_conn], minlength=inc.num_pairs
        )
        np.multiply(eta, inc.delay_model.d1, out=eta)
        np.maximum(eta, _ETA_FLOOR, out=eta)
        sqrt_eta = np.sqrt(eta, out=self._sqrt_buf)
        group_sum = np.bincount(
            self._pair_group, weights=sqrt_eta, minlength=self._num_groups
        )
        # Eq. 12: r_ne = (Σ_{n'} sqrt(η_{n'e})) / (sqrt(η_ne) (cap_e - 1)).
        numer = group_sum[self._pair_group]
        np.multiply(sqrt_eta, self._cap_pp, out=sqrt_eta)
        np.divide(numer, sqrt_eta, out=self._ratio_buf)
        np.maximum(self._ratio_buf, MIN_RATIO, out=self._ratio_buf)
        return self._ratio_buf


@dataclass
class LrResult:
    """Output of the LR phase: continuous per-pair ratios and diagnostics.

    Attributes:
        ratios: best per-pair continuous ratios found.
        connection_delays: per-connection delays under those ratios.
        history: convergence trace.
        multipliers: final λ (usable as a warm start for a re-solve on a
            slightly changed topology).
    """

    ratios: np.ndarray
    connection_delays: np.ndarray
    history: LrHistory
    multipliers: Optional[np.ndarray] = None
