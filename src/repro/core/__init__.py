"""The paper's contribution: the synergistic two-phase die-level router.

Phase I (:mod:`repro.core.initial_routing`) produces a delay-demand-balanced
routing topology; phase II (:mod:`repro.core.lagrangian`,
:mod:`repro.core.legalization`, :mod:`repro.core.wire_assignment`) assigns
TDM ratios and physical wires.  :class:`repro.core.router.SynergisticRouter`
ties the phases together; :class:`repro.core.router.TdmAssigner` runs
phase II for cold routes, timing rounds, resume and ECO, and refines any
router's topology (the Fig. 5(a) experiment).
"""

from repro.core.config import RouterConfig
from repro.core.incidence import TdmIncidence, build_incidence
from repro.core.ordering import (
    WeightMode,
    estimate_edge_weights,
    floyd_warshall,
    order_connections,
)
from repro.core.initial_routing import InitialRouter
from repro.core.lagrangian import LagrangianTdmAssigner, LrHistory
from repro.core.legalization import TdmLegalizer
from repro.core.wire_assignment import WireAssigner
from repro.core.router import PhaseTimes, RoutingResult, SynergisticRouter, TdmAssigner
from repro.core.eco import EcoResult, EcoRouter
from repro.core.timing_reroute import TimingDrivenRefiner

__all__ = [
    "EcoResult",
    "EcoRouter",
    "InitialRouter",
    "TdmIncidence",
    "TimingDrivenRefiner",
    "build_incidence",
    "LagrangianTdmAssigner",
    "LrHistory",
    "PhaseTimes",
    "RouterConfig",
    "RoutingResult",
    "SynergisticRouter",
    "TdmAssigner",
    "TdmLegalizer",
    "WeightMode",
    "WireAssigner",
    "estimate_edge_weights",
    "floyd_warshall",
    "order_connections",
]
