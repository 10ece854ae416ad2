"""Machine-readable run reports over routing results.

A run report is a single schema-versioned JSON document capturing one
routing run end to end: the objective and legality, the Fig. 5(b) phase
breakdown, the per-iteration PathFinder and Lagrangian convergence series,
the wire-assignment counters and the tracer's aggregate telemetry.
Benchmarks diff these documents across commits; ``repro route
--metrics-out report.json`` writes one; :func:`validate_run_report` is the
schema check CI runs (``make trace``).

This module deliberately imports nothing from :mod:`repro.core` — it works
over the result object duck-typed, so the observability layer stays a
leaf dependency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump when the report layout changes incompatibly.
#: v2: telemetry histograms became quantile digests (count/sum/min/max/
#: p50/p90/p99 objects instead of raw observation lists) and the
#: telemetry section gained derived cache hit ``rates``.
#: v3: dropped the ``parallel`` worker-pool section.
SCHEMA_VERSION = 3

#: The ``kind`` discriminator of every run report document.
REPORT_KIND = "repro.run_report"


def build_run_report(
    result: Any,
    case: Optional[Dict[str, Any]] = None,
    serve: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the run-report dict for a routing result.

    Args:
        result: a :class:`repro.core.router.RoutingResult` (or any object
            with the same attributes; missing optional attributes are
            reported as ``null``).
        case: optional caller-supplied context (case name, sizes, router
            name, CLI arguments) stored verbatim under ``"case"``.
        serve: optional service-level telemetry
            (:meth:`repro.serve.RoutingService.serve_section`) stored
            under ``"serve"`` when the run went through the service.

    Returns:
        A JSON-ready dict; top-level phase totals always equal the
        result's ``phase_times`` fields.
    """
    times = result.phase_times
    doc: Dict[str, Any] = {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "case": dict(case) if case else None,
        "result": {
            "critical_delay": _number_or_none(getattr(result, "critical_delay", None)),
            "conflict_count": int(result.conflict_count),
            "is_legal": bool(result.conflict_count == 0),
            "timing_reroute_moves": int(getattr(result, "timing_reroute_moves", 0)),
            "degraded": bool(getattr(result, "degraded", False)),
        },
        "phase_times": {
            "initial_routing": float(times.initial_routing),
            "tdm_assignment": float(times.tdm_assignment),
            "legalization_wire_assignment": float(
                times.legalization_wire_assignment
            ),
            "total": float(times.total),
            "fractions": times.fractions(),
        },
        "initial_routing": _initial_section(getattr(result, "initial_stats", None)),
        "lr": _lr_section(getattr(result, "lr_history", None)),
        "wires": _wire_section(getattr(result, "wire_stats", None)),
        "telemetry": _telemetry_section(getattr(result, "telemetry", None)),
    }
    if serve is not None:
        doc["serve"] = dict(serve)
    return doc


def write_run_report(
    path: Union[str, Path],
    result: Any,
    case: Optional[Dict[str, Any]] = None,
    serve: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Serialize :func:`build_run_report` to ``path``; returns the dict."""
    doc = build_run_report(result, case=case, serve=serve)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=False))
    return doc


def validate_run_report(doc: Any) -> List[str]:
    """Schema-check a run report; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("kind") != REPORT_KIND:
        problems.append(f"kind must be {REPORT_KIND!r}, got {doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got {doc.get('schema_version')!r}"
        )
    result = doc.get("result")
    if not isinstance(result, dict):
        problems.append("result section missing")
    else:
        if not isinstance(result.get("conflict_count"), int):
            problems.append("result.conflict_count must be an int")
        delay = result.get("critical_delay")
        if delay is not None and not isinstance(delay, (int, float)):
            problems.append("result.critical_delay must be a number or null")
    times = doc.get("phase_times")
    if not isinstance(times, dict):
        problems.append("phase_times section missing")
    else:
        parts = []
        for key in (
            "initial_routing",
            "tdm_assignment",
            "legalization_wire_assignment",
            "total",
        ):
            value = times.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"phase_times.{key} must be a non-negative number")
            else:
                parts.append(float(value))
        if len(parts) == 4 and abs(sum(parts[:3]) - parts[3]) > 1e-6 + 1e-9 * parts[3]:
            problems.append("phase_times.total does not equal the sum of the phases")
    lr = doc.get("lr")
    if lr is not None:
        if not isinstance(lr, dict) or not isinstance(lr.get("iterations"), list):
            problems.append("lr.iterations must be a list when lr is present")
        else:
            for position, row in enumerate(lr["iterations"]):
                if not isinstance(row, dict) or "gap" not in row:
                    problems.append(f"lr.iterations[{position}] lacks a gap field")
                    break
    telemetry = doc.get("telemetry")
    if telemetry is not None:
        if not isinstance(telemetry, dict):
            problems.append("telemetry must be an object or null")
        else:
            for section in ("counters", "gauges", "timers", "histograms", "rates"):
                if not isinstance(telemetry.get(section), dict):
                    problems.append(f"telemetry.{section} must be an object")
            histograms = telemetry.get("histograms")
            if isinstance(histograms, dict):
                for name, digest in histograms.items():
                    if not isinstance(digest, dict) or "count" not in digest:
                        problems.append(
                            f"telemetry.histograms[{name!r}] must be a "
                            "quantile digest object with a count field"
                        )
                        break
    serve = doc.get("serve")
    if serve is not None:
        if not isinstance(serve, dict):
            problems.append("serve must be an object when present")
        else:
            for key in ("submitted", "completed", "failed", "preemptions"):
                value = serve.get(key)
                if not isinstance(value, int) or value < 0:
                    problems.append(f"serve.{key} must be a non-negative int")
            cache = serve.get("artifact_cache")
            if not isinstance(cache, dict) or not isinstance(
                cache.get("hits"), int
            ):
                problems.append(
                    "serve.artifact_cache must be an object with int hits"
                )
    return problems


def assert_valid_run_report(doc: Any) -> None:
    """Raise ``ValueError`` listing every schema problem of ``doc``."""
    problems = validate_run_report(doc)
    if problems:
        raise ValueError("invalid run report: " + "; ".join(problems))


# ----------------------------------------------------------------------
def _number_or_none(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def _initial_section(stats: Any) -> Optional[Dict[str, Any]]:
    if stats is None:
        return None
    return {
        "negotiation_rounds": int(stats.negotiation_rounds),
        "connections_routed": int(stats.connections_routed),
        "reroutes": int(stats.reroutes),
        "final_overflow": int(stats.final_overflow),
        "weight_mode": str(stats.weight_mode),
        "overflow_history": [int(v) for v in stats.history],
    }


def _lr_section(history: Any) -> Optional[Dict[str, Any]]:
    if history is None:
        return None
    return {
        "converged": bool(history.converged),
        "num_iterations": int(history.num_iterations),
        "final_gap": _finite_or_none(history.final_gap),
        "best_delay": _finite_or_none(history.best_delay),
        "iterations": [
            {
                "iteration": int(it.iteration),
                "critical_delay": float(it.critical_delay),
                "lower_bound": float(it.lower_bound),
                "gap": _finite_or_none(it.gap),
                "acceleration": float(it.acceleration),
            }
            for it in history.iterations
        ],
    }


def _finite_or_none(value: float) -> Optional[float]:
    value = float(value)
    return value if value == value and abs(value) != float("inf") else None


def _wire_section(stats: Any) -> Optional[Dict[str, Any]]:
    if stats is None:
        return None
    return {
        "wires_used": int(stats.wires_used),
        "nets_assigned": int(stats.nets_assigned),
        "overflow_bumps": int(stats.overflow_bumps),
        "critical_moves": int(stats.critical_moves),
    }


def _telemetry_section(snapshot: Any) -> Optional[Dict[str, Any]]:
    if snapshot is None:
        return None
    section = snapshot.to_dict()
    # Benchmarks and the serving layer want rates, not raw hit/miss
    # pairs; derive them once here so every consumer gets them for free.
    from repro.obs.profile import derive_rates

    section["rates"] = derive_rates(section.get("counters", {}))
    return section
