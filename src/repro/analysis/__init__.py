"""Analyses around the router.

Table II netlist statistics, the Table III comparison harness, the
feasibility precheck, and the exact solver and certified lower bounds
that serve as test oracles.
"""

from repro.analysis.netlist_stats import NetlistStats, netlist_stats
from repro.analysis.exact import ExactResult, ExactSolver, InstanceTooLarge
from repro.analysis.feasibility import (
    DiePressure,
    FeasibilityReport,
    check_feasibility,
)
from repro.analysis.compare import ComparisonTable, run_comparison
from repro.analysis.lower_bound import (
    LowerBound,
    bisection_lower_bound,
    certified_lower_bound,
    distance_lower_bound,
)

__all__ = [
    "ComparisonTable",
    "LowerBound",
    "bisection_lower_bound",
    "certified_lower_bound",
    "distance_lower_bound",
    "DiePressure",
    "run_comparison",
    "ExactResult",
    "FeasibilityReport",
    "check_feasibility",
    "ExactSolver",
    "InstanceTooLarge",
    "NetlistStats",
    "netlist_stats",
]
