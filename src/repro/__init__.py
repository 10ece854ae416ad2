"""Synergistic die-level router for multi-FPGA systems with TDM optimization.

This package reproduces the DAC 2025 paper *"Synergistic Die-Level Router
for Multi-FPGA System with Time-Division Multiplexing Optimization"* (Wang,
Liu, Lin).  It contains:

* :mod:`repro.arch` -- the multi-FPGA system model (dies, FPGAs, SLL and TDM
  edges, physical wires).
* :mod:`repro.netlist` -- nets and their decomposition into die-to-die
  connections.
* :mod:`repro.route` -- routing graph, routed trees, shortest-path and
  Steiner-tree engines, and the routing solution container.
* :mod:`repro.timing` -- the SLL/TDM delay model and timing analysis.
* :mod:`repro.drc` -- the design-rule checker for every rule of the paper's
  Section II-B.
* :mod:`repro.core` -- the paper's contribution: the two-phase synergistic
  die-level router (delay-demand-balanced initial routing and the
  Lagrangian-relaxation TDM ratio assignment with legalization, margin-aware
  refinement and wire assignment).
* :mod:`repro.baselines` -- proxy reimplementations of the comparison
  routers of Table III.
* :mod:`repro.benchgen` -- the synthetic contest benchmark suite matching
  the published Table II statistics.
* :mod:`repro.io` -- text formats for systems, netlists and solutions.
* :mod:`repro.resilience` -- checkpoint/resume, fault injection and
  wall-clock budgets (docs/resilience.md).
* :mod:`repro.api` -- the stable facade (:class:`~repro.api.RouteRequest`,
  :func:`~repro.api.route_request`, :func:`~repro.api.execute_request`,
  :func:`~repro.api.evaluate`, :func:`~repro.api.load_solution`); prefer
  it over deep submodule imports.
* :mod:`repro.cli` -- the ``repro <command>`` command line.

Quickstart::

    from repro import (
        SystemBuilder, Netlist, Net, DelayModel, SynergisticRouter,
    )

    builder = SystemBuilder()
    fpga_a = builder.add_fpga(num_dies=4, sll_capacity=100)
    fpga_b = builder.add_fpga(num_dies=4, sll_capacity=100)
    builder.add_tdm_edge(fpga_a.die(3), fpga_b.die(0), capacity=16)
    system = builder.build()

    netlist = Netlist([Net("n0", source_die=0, sink_dies=(7,))])
    router = SynergisticRouter(system, netlist, DelayModel())
    result = router.route()
    print(result.critical_delay)
"""

from repro.arch import (
    Die,
    EdgeKind,
    Fpga,
    MultiFpgaSystem,
    SllEdge,
    SystemBuilder,
    TdmEdge,
)
from repro.core import RouterConfig, RoutingResult, SynergisticRouter
from repro.netlist import Connection, Net, Netlist
from repro.route import RoutingSolution
from repro.timing import DelayModel, TimingAnalyzer
from repro.drc import DesignRuleChecker
from repro.api import (
    ArtifactCache,
    CheckpointManager,
    Evaluation,
    FaultInjectingTracer,
    FaultPlan,
    FaultSpec,
    RouteRequest,
    RouteResponse,
    evaluate,
    execute_request,
    load_solution,
    route_request,
    solution_fingerprint,
)

__version__ = "3.0.0"

__all__ = [
    "ArtifactCache",
    "CheckpointManager",
    "Connection",
    "DelayModel",
    "DesignRuleChecker",
    "Die",
    "EdgeKind",
    "Evaluation",
    "FaultInjectingTracer",
    "FaultPlan",
    "FaultSpec",
    "Fpga",
    "MultiFpgaSystem",
    "Net",
    "Netlist",
    "RouteRequest",
    "RouteResponse",
    "RouterConfig",
    "RoutingResult",
    "RoutingSolution",
    "SllEdge",
    "SynergisticRouter",
    "SystemBuilder",
    "TdmEdge",
    "TimingAnalyzer",
    "__version__",
    "evaluate",
    "execute_request",
    "load_solution",
    "route_request",
    "solution_fingerprint",
]
