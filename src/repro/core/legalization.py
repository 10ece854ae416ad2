"""TDM ratio legalization and margin-aware refinement (Section III-D).

Legalization turns the continuous LR ratios into legal ones:

1. Split each bidirectional TDM edge's physical wires between its two
   directions: ``ceil(Σ 1/r)`` wires per direction, then hand leftover
   wires to the busier direction.  Because the LR phase kept
   ``Σ 1/r <= cap_e - 1``, the two rounded budgets always fit in ``cap_e``.
2. Round every net ratio up to the nearest multiple of the TDM step ``p``.
3. Margin-aware refinement (Algorithm 2): rounding up leaves a margin
   between each directed edge's wire budget and its demand ``Σ 1/r``.  The
   paper's priority queue repeatedly pops the most critical net (largest
   delay of a connection of the net crossing the edge) and lowers its
   ratio by one step while the margin affords it.

   No queue is built here.  A stepped net's key drops by exactly
   ``d1·p``, so inside a criticality window ``(T − d1·p, T]`` below the
   top key ``T`` each live net has at most one pending pop, and the
   queue pops them in ``(−criticality, pair)`` order.  Each window is one
   stable sort plus a plain-float walk over the margin.  The margin only
   shrinks, so a net at ratio ``p`` or one whose next step the window's
   starting margin cannot afford can never step again: such nets are
   dropped in bulk.  The ratios, criticalities and step count are the
   queue's, bit for bit (``tests/test_lgwa_oracle.py``).

Each directed edge is independent (the paper refines them in an OpenMP
loop); this implementation visits them in CSR group order on the calling
thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence
from repro.obs import Tracer, get_logger

logger = get_logger(__name__)


@dataclass
class LegalizationResult:
    """Output of legalization: legal per-pair ratios and wire budgets.

    Attributes:
        ratios: per-pair legalized ratios (positive multiples of the step).
        wire_budgets: physical wires granted to each (edge, direction).
        criticality: per-pair criticality after refinement (used to order
            wire assignment).
        refinement_steps: total number of ratio decreases applied by
            Algorithm 2.
    """

    ratios: np.ndarray
    wire_budgets: Dict[Tuple[int, int], int] = field(default_factory=dict)
    criticality: Optional[np.ndarray] = None
    refinement_steps: int = 0


class TdmLegalizer:
    """Legalizes and refines continuous TDM ratios."""

    def __init__(
        self,
        incidence: TdmIncidence,
        config: Optional[RouterConfig] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.incidence = incidence
        self.config = config if config is not None else RouterConfig()
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------
    def legalize(self, continuous_ratios: np.ndarray) -> LegalizationResult:
        """Run budget split, rounding and Algorithm 2 refinement."""
        inc = self.incidence
        if inc.num_pairs == 0:
            return LegalizationResult(ratios=np.zeros(0, dtype=np.float64))
        budgets = self._split_wire_budgets(continuous_ratios)
        step = inc.delay_model.tdm_step
        ratios = np.ceil(continuous_ratios / step - 1e-12).astype(np.int64) * step
        ratios = np.maximum(ratios, step).astype(np.float64)
        # Criticalities under the legalized ratios drive the refinement.
        delays = inc.connection_delays(ratios)
        criticality = inc.pair_criticality(delays)

        # CSR groups come out sorted by (edge, direction) and only exist
        # when a direction carries nets — exactly the budget keys.
        tasks = [
            (pairs, budgets[(edge_index, direction)])
            for edge_index, direction, pairs in inc.directed_edge_groups()
        ]
        steps = sum(
            self._refine_directed_edge(pairs, budget, ratios, criticality)
            for pairs, budget in tasks
        )
        tracer = self.tracer
        tracer.add("legalization.refinement_steps", steps)
        tracer.add("legalization.directed_edges", len(tasks))
        # The post-refinement margin per directed edge (Algorithm 2's
        # leftover slack) — the Fig.-style histogram in the run report.
        for pairs, budget in tasks:
            margin = budget - float(np.sum(1.0 / ratios[pairs]))
            tracer.observe("legalization.margin", margin)
        logger.info(
            "legalization: %d refinement steps over %d directed edges",
            steps,
            len(tasks),
        )
        return LegalizationResult(
            ratios=ratios,
            wire_budgets=budgets,
            criticality=criticality,
            refinement_steps=steps,
        )

    # ------------------------------------------------------------------
    def _split_wire_budgets(
        self, continuous_ratios: np.ndarray
    ) -> Dict[Tuple[int, int], int]:
        """Assign each TDM edge's physical wires to its two directions."""
        inc = self.incidence
        budgets: Dict[Tuple[int, int], int] = {}
        # One vectorized reciprocal, then per-CSR-group slice sums.  The
        # slices hold the same elements in the same (ascending pair)
        # order as the old per-direction fancy-index gathers, so the
        # pairwise summation is bit-identical.
        grouped = (1.0 / continuous_ratios)[inc.dir_pairs]
        indptr = inc.dir_indptr
        demands_by_edge: Dict[int, List[float]] = {}
        for group, (edge_index, direction) in enumerate(
            zip(inc.dir_edge.tolist(), inc.dir_dir.tolist())
        ):
            demand = float(np.sum(grouped[indptr[group] : indptr[group + 1]]))
            demands_by_edge.setdefault(edge_index, [0.0, 0.0])[direction] = demand
        for edge_index, demands in demands_by_edge.items():
            capacity = inc.system.edge(edge_index).capacity
            needed = [int(math.ceil(d - 1e-9)) if d > 0 else 0 for d in demands]
            if sum(needed) > capacity:
                raise ValueError(
                    f"TDM edge {edge_index}: directional budgets {needed} "
                    f"exceed capacity {capacity} — LR invariant broken"
                )
            leftover = capacity - sum(needed)
            # Hand spare wires out; the busier direction gets the larger
            # share, widening the refinement margin where it matters most.
            busy = 0 if demands[0] >= demands[1] else 1
            if demands[0] > 0 and demands[1] > 0:
                needed[busy] += (leftover + 1) // 2
                needed[1 - busy] += leftover // 2
            elif demands[busy] > 0:
                needed[busy] += leftover
            for direction in (0, 1):
                if demands[direction] > 0:
                    budgets[(edge_index, direction)] = needed[direction]
        return budgets

    # ------------------------------------------------------------------
    def _refine_directed_edge(
        self,
        pairs: np.ndarray,
        budget: int,
        ratios: np.ndarray,
        criticality: np.ndarray,
    ) -> int:
        """Algorithm 2 on one directed TDM edge, one window at a time.

        Mutates ``ratios`` and ``criticality`` in place for the given pairs
        (disjoint across directed edges).

        Returns:
            Number of single-step ratio decreases applied.
        """
        model = self.incidence.delay_model
        step = model.tdm_step
        crit_drop = model.d1 * step
        epsilon = self.config.refine_margin_epsilon
        margin = budget - float(np.sum(1.0 / ratios[pairs]))
        if margin <= epsilon:
            return 0
        local_ratios = ratios[pairs]
        local_crit = criticality[pairs]
        # Local positions of the nets that may still step, ascending, so
        # position order is pair order (the queue's tie-break).
        live = np.arange(pairs.shape[0])
        steps = 0
        while margin > epsilon:
            # The margin only shrinks and a dropped net keeps its ratio:
            # a net at ratio ``p``, or one whose next step the margin
            # cannot afford now, can never step again.  Drop them for good.
            live_ratios = local_ratios[live]
            with np.errstate(divide="ignore"):
                gains = 1.0 / (live_ratios - step) - 1.0 / live_ratios
            keep = (live_ratios > step) & (gains <= margin - epsilon)
            live = live[keep]
            if not live.size:
                break
            gains = gains[keep]
            crits = local_crit[live]
            top = crits.max()
            floor = top - crit_drop
            # When ``d1·p`` is under half an ulp of ``top``, a stepped net
            # keeps its key and the queue pops it again at once: each net
            # at ``top`` steps until it drops.
            stuck = floor == top
            in_window = crits == top if stuck else crits > floor
            order = np.argsort(-crits[in_window], kind="stable")
            window = live[in_window][order].tolist()
            if stuck:
                for position in window:
                    ratio = float(local_ratios[position])
                    crit = float(local_crit[position])
                    while ratio > step and margin > epsilon:
                        gain = 1.0 / (ratio - step) - 1.0 / ratio
                        if gain > margin - epsilon:
                            break
                        ratio -= step
                        crit -= crit_drop
                        margin -= gain
                        steps += 1
                    local_ratios[position] = ratio
                    local_crit[position] = crit
                continue
            # The queue's pops in this window, in order.  A net the margin
            # cannot afford now never steps again (the next bulk drop
            # removes it), and once the margin is spent no net can; a
            # stepped net's new key is at most ``floor``, so it leaves
            # the window.
            moved = []
            for position, gain in zip(window, gains[in_window][order].tolist()):
                if gain <= margin - epsilon:
                    margin -= gain
                    moved.append(position)
            local_ratios[moved] -= step
            local_crit[moved] -= crit_drop
            steps += len(moved)
        if steps:
            ratios[pairs] = local_ratios
            criticality[pairs] = local_crit
        return steps
