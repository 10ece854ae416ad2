"""The traced run: per-layer metrics, attributed op by op.

The router already emits ``phase.*``/``ir.*``/``timing.*`` spans and
``kernel.*``/``incidence.*``/``lr.*`` counters through its public
``tracer=`` parameter.  This module passes a recording
``Tracer(InMemorySink())`` there and adds benchmark-side spans around
the public calls an op makes: the call the op itself makes
(``route_request``, ``EcoRouter.migrate``) and, while a traced op runs,
the public functions the program calls inside it — ``resolve_case``,
``case_from_dict``, ``solution_fingerprint``, ``build_incidence``,
``TdmAssigner.assign`` (ECO phase II) and ``CheckpointManager.save``
(service checkpoints).  Those are reached by swapping the module
attribute the program looks them up through for a wrapper, and swapping
it back after the op; the program is not edited.

Sequential workloads alternate untraced and traced ops of the same
input.  Each traced op gets its own tracer, and ``repro.obs.profile``
attributes its self time: every span's duration minus its children's.
The rows below plus ``trace.untracked_s`` (time inside the op under no
program span) plus ``trace.other_spans_s`` (spans without a row) sum to
the op's traced time; the run records every op where they do not.  Time
rows are therefore *self* times: ``eco.phase2_s`` is ECO phase II
outside its incidence, LR and LG&WA rows, for instance.  The service
runs two requests at a time on one shared tracer, so its requests are
split into queue, execution and handoff instead (perfbench/NOTES.md).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.api
import repro.core.eco
import repro.core.router
import repro.io.json_format
import repro.serve.service
from repro.obs import InMemorySink, TraceProfile, Tracer

import measure

#: Per-layer metric -> unit.  Time rows are self seconds per op.
LAYER_UNITS: Dict[str, str] = {
    "benchgen.generate_s": "s",
    "api.resolve_case_s": "s",
    "io.case_parse_s": "s",
    "api.fingerprint_s": "s",
    "phase.initial_routing_s": "s",
    "ir.prepare_s": "s",
    "ir.first_pass_s": "s",
    "ir.negotiation_s": "s",
    "dijkstra.pops": "count",
    "ir.negotiation_rounds": "count",
    "kernel.tree_hit_rate": "1",
    "incidence.build_s": "s",
    "phase.tdm_assignment_s": "s",
    "lr.iterations": "count",
    "incidence.cold_builds": "count",
    "incidence.incremental_builds": "count",
    "phase.legalization_wire_assignment_s": "s",
    "parallel.map_s": "s",
    "legalization.refinement_steps": "count",
    "wire_assignment.nets_assigned": "count",
    "timing.analysis_s": "s",
    "timing_reroute.search_s": "s",
    "timing_reroute.moves": "count",
    "timing_reroute.accept_rate": "1",
    "eco.migrate_s": "s",
    "eco.phase2_s": "s",
    "eco.rerouted_connections": "count",
    "eco.disturbed_nets": "count",
    "serve.queue_s_p50": "s",
    "serve.exec_s_p50": "s",
    "serve.handoff_s_p50": "s",
    "serve.preemptions": "count",
    "artifacts.hit_rate": "1",
    "artifacts.evictions": "count",
    "artifacts.build_s": "s",
    "ckpt.saves": "count",
    "ckpt.mb": "MB",
    "ckpt.save_s": "s",
    "drc.evaluate_s": "s",
    "trace.overhead_frac": "1",
    "trace.op_s": "s",
    "trace.untracked_s": "s",
    "trace.other_spans_s": "s",
}

#: Span name -> self-time row.  ``bench.op`` and the span around the
#: op's own public call only wrap the program, so their self time is
#: untracked time.
SPAN_ROWS: Dict[str, str] = {
    "bench.op": "trace.untracked_s",
    "api.route_request": "trace.untracked_s",
    "api.resolve_case": "api.resolve_case_s",
    "io.case_parse": "io.case_parse_s",
    "api.fingerprint": "api.fingerprint_s",
    "phase.initial_routing": "phase.initial_routing_s",
    "ir.prepare": "ir.prepare_s",
    "ir.first_pass": "ir.first_pass_s",
    "ir.negotiation": "ir.negotiation_s",
    "incidence.build": "incidence.build_s",
    "phase.tdm_assignment": "phase.tdm_assignment_s",
    "phase.legalization_wire_assignment": "phase.legalization_wire_assignment_s",
    "parallel.map": "parallel.map_s",
    "timing.analysis": "timing.analysis_s",
    "artifacts.build": "artifacts.build_s",
    "eco.migrate": "eco.migrate_s",
    "eco.phase2": "eco.phase2_s",
}

#: Counters reported per op, under the same names.
COUNTERS = (
    "dijkstra.pops",
    "lr.iterations",
    "incidence.cold_builds",
    "incidence.incremental_builds",
    "legalization.refinement_steps",
    "wire_assignment.nets_assigned",
    "timing_reroute.moves",
    "serve.preemptions",
)

#: Ratios reported as (numerator, denominator) over per-op means.
RATES = {
    "kernel.tree_hit_rate": ("kernel.tree_hits", "kernel.tree_lookups"),
    "timing_reroute.accept_rate": (
        "timing_reroute.accepted",
        "timing_reroute.rounds",
    ),
}

#: Slack allowed between an op's traced time and the sum of its rows.
_SUM_TOLERANCE_S = 1e-6


def _row_of(node) -> str:
    # The timing-driven reroute search reuses phase I's span name.
    if node.name == "phase.initial_routing" and node.record.attrs.get("kind"):
        return "timing_reroute.search_s"
    return SPAN_ROWS.get(node.name, "trace.other_spans_s")


class Hooks:
    """Benchmark-side spans around public calls made inside the program.

    While :meth:`installed` is active, the wrappers open spans on the
    tracer the program passes along (``resolve_case`` takes one) or on
    :attr:`tracer`, and checkpoint saves are logged to :attr:`saves` as
    ``(directory, seconds, bytes)``.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.saves: List[Tuple[str, float, int]] = []

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = kwargs.get("tracer") or self.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _assigner(self, base):
        hooks = self

        class TracedTdmAssigner(base):
            def __init__(
                self, system, netlist, delay_model=None, config=None, tracer=None
            ):
                super().__init__(
                    system, netlist, delay_model, config, tracer=hooks.tracer
                )

            def assign(self, solution, *args, **kwargs):
                with self.tracer.span("eco.phase2"):
                    return super().assign(solution, *args, **kwargs)

        return TracedTdmAssigner

    def _checkpoints(self, base):
        saves = self.saves

        class TimedCheckpointManager(base):
            def save(self, barrier, payload):
                start = time.perf_counter()
                path = super().save(barrier, payload)
                seconds = time.perf_counter() - start
                saves.append((str(self.directory), seconds, path.stat().st_size))
                return path

        return TimedCheckpointManager

    @contextlib.contextmanager
    def installed(self, tracer: Tracer) -> Iterator["Hooks"]:
        spanned = {
            (repro.api, "resolve_case"): "api.resolve_case",
            (repro.io.json_format, "case_from_dict"): "io.case_parse",
            (repro.api, "solution_fingerprint"): "api.fingerprint",
            (repro.core.router, "build_incidence"): "incidence.build",
        }
        targets = [
            (module, attr, functools.partial(self._spanned, name))
            for (module, attr), name in spanned.items()
        ]
        targets.append((repro.core.eco, "TdmAssigner", self._assigner))
        targets.append((repro.serve.service, "CheckpointManager", self._checkpoints))
        originals = [
            (module, attr, getattr(module, attr)) for module, attr, _ in targets
        ]
        self.tracer = tracer
        try:
            for (module, attr, wrap), (_, _, original) in zip(targets, originals):
                setattr(module, attr, wrap(original))
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)
            self.tracer = None


def op_rows(sink: InMemorySink, output: Any) -> Dict[str, float]:
    """Self-time rows, counters and ratios of one traced op."""
    profile = TraceProfile.from_sink(sink)
    rows: Dict[str, float] = {}
    for root in profile.roots:
        for node in root.walk():
            row = _row_of(node)
            rows[row] = rows.get(row, 0.0) + node.self_time
    rows["trace.op_s"] = sum(root.dur for root in profile.roots)
    counters = profile.counter_totals()
    for name in COUNTERS:
        rows[name] = counters.get(name, 0.0)
    rows["kernel.tree_hits"] = counters.get("kernel.tree_hits", 0.0)
    rows["kernel.tree_lookups"] = rows["kernel.tree_hits"] + counters.get(
        "kernel.tree_misses", 0.0
    )
    rounds = [e for e in sink.events if e["name"] == "timing_reroute.round"]
    rows["timing_reroute.rounds"] = len(rounds)
    rows["timing_reroute.accepted"] = sum(bool(e["accepted"]) for e in rounds)
    negotiation = [
        e["value"] for e in sink.events if e["name"] == "ir.negotiation_rounds"
    ]
    rows["ir.negotiation_rounds"] = negotiation[-1] if negotiation else 0.0
    if output is not None and hasattr(output, "rerouted_connections"):
        rows["eco.rerouted_connections"] = output.rerouted_connections
        rows["eco.disturbed_nets"] = len(output.disturbed_nets)
    return rows


def balanced_means(
    per_op: Sequence[Tuple[str, Dict[str, float]]]
) -> Dict[str, float]:
    """Mean over inputs of each input's mean, so every input weighs the same."""
    by_key: Dict[str, List[Dict[str, float]]] = {}
    for key, rows in per_op:
        by_key.setdefault(key, []).append(rows)
    names = sorted({name for _, rows in per_op for name in rows})
    return {
        name: statistics.fmean(
            statistics.fmean(rows.get(name, 0.0) for rows in ops)
            for ops in by_key.values()
        )
        for name in names
    }


#: Per-layer metrics measured by the set-up and reference passes, which
#: the caller fills in.
SETUP_LAYERS = ("benchgen.generate_s", "drc.evaluate_s")


def _finish(means: Dict[str, float]) -> Dict[str, float]:
    """Ratios from their parts, then every traced metric (0 if absent)."""
    for name, (numerator, denominator) in RATES.items():
        bottom = means.get(denominator, 0.0)
        means[name] = means.get(numerator, 0.0) / bottom if bottom else 0.0
    return {
        name: float(means.get(name, 0.0))
        for name in LAYER_UNITS
        if name not in SETUP_LAYERS
    }


def traced_run(workload, references, seconds: float):
    """``(values, record, events)`` of a ``--trace 1`` run."""
    hooks = Hooks()
    if workload.name == "serve_warm":
        return _traced_service(workload, references, seconds, hooks)
    return _traced_sequential(workload, references, seconds, hooks)


def _traced_sequential(workload, references, seconds, hooks):
    untraced: List[measure.OpRecord] = []
    traced: List[measure.OpRecord] = []
    per_op: List[Tuple[str, Dict[str, float]]] = []
    events: List[Dict[str, Any]] = []
    mismatches: List[str] = []
    for position, key in enumerate(measure.whole_passes(workload, seconds)):
        # Alternate which side of each pair runs first.
        for use_tracer in ((False, True) if position % 2 == 0 else (True, False)):
            if not use_tracer:
                untraced.append(measure.run_op(workload, references, key)[0])
                continue
            tracer = Tracer(InMemorySink())
            with hooks.installed(tracer):
                record, output = measure.run_op(workload, references, key, tracer)
            traced.append(record)
            rows = op_rows(tracer.sink, output)
            accounted = sum(
                value for name, value in rows.items()
                if name.endswith("_s") and name != "trace.op_s"
            )
            if abs(accounted - rows["trace.op_s"]) > _SUM_TOLERANCE_S:
                mismatches.append(
                    f"{key}: rows sum to {accounted:.6f}s, "
                    f"op took {rows['trace.op_s']:.6f}s"
                )
            per_op.append((key, rows))
            events.extend(
                dict(event, op=len(per_op) - 1, key=key)
                for event in tracer.sink.events
            )
    normalize = workload.name == "contest_cold"
    untraced_p50 = measure.latency_summary(untraced, normalize)[0]
    traced_p50 = measure.latency_summary(traced, normalize)[0]
    values = _finish(balanced_means(per_op))
    # Each pair ran back to back on one input, so its ratio is free of
    # the host's slower speed drift.
    values["trace.overhead_frac"] = statistics.median(
        t.wall / u.wall for u, t in zip(untraced, traced)
    ) - 1.0
    record = measure.op_counts(untraced + traced)
    record.update({
        "untraced_route_s_p50": untraced_p50,
        "traced_route_s_p50": traced_p50,
        "traced_ops": len(traced),
        "attribution_mismatches": mismatches,
    })
    return values, record, events


def _traced_service(workload, references, seconds, hooks):
    draws = workload.draws()
    half = seconds / 2.0
    untraced, _, _, _ = workload.closed_loop(half, draws)
    tracer = Tracer(InMemorySink())
    with hooks.installed(tracer):
        workload.start_service(tracer=tracer)
        service = workload.service
        builds = [
            e["dur"] for e in tracer.sink.events
            if e["type"] == "span" and e["name"] == "artifacts.build"
        ]
        del hooks.saves[:]
        mark = len(tracer.sink.events)
        counters_before = tracer.snapshot().counters
        cache_before = service.cache.stats.to_dict()
        done, _, _, _ = workload.closed_loop(half, draws)
        counters_after = tracer.snapshot().counters
        cache_after = service.cache.stats.to_dict()
        saves = list(hooks.saves)
    requests = len(done)
    window_events = tracer.sink.events[mark:]

    def span_total(name: str) -> float:
        return sum(
            e["dur"] for e in window_events if e["type"] == "span" and e["name"] == name
        )

    def delta(name: str) -> float:
        return counters_after.get(name, 0) - counters_before.get(name, 0)

    means: Dict[str, float] = {name: delta(name) / requests for name in COUNTERS}
    means["kernel.tree_hits"] = delta("kernel.tree_hits") / requests
    means["kernel.tree_lookups"] = (
        means["kernel.tree_hits"] + delta("kernel.tree_misses") / requests
    )
    values = _finish(means)
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    queue = [response.queue_seconds for _, _, response in done]
    execute = [response.wall_seconds for _, _, response in done]
    latency = [latency for _, latency, _ in done]
    handoff = [l - q - x for l, q, x in zip(latency, queue, execute)]
    values.update(
        {
            "serve.queue_s_p50": statistics.median(queue),
            "serve.exec_s_p50": statistics.median(execute),
            "serve.handoff_s_p50": statistics.median(handoff),
            "artifacts.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "artifacts.evictions": float(
                cache_after["evictions"] - cache_before["evictions"]
            ),
            "artifacts.build_s": statistics.fmean(builds) if builds else 0.0,
            "api.resolve_case_s": span_total("api.resolve_case") / requests,
            "io.case_parse_s": span_total("io.case_parse") / requests,
            "ckpt.saves": len(saves) / requests,
            "ckpt.mb": sum(size for _, _, size in saves) / 1e6 / requests,
            "ckpt.save_s": sum(seconds for _, seconds, _ in saves) / requests,
            "trace.op_s": statistics.fmean(latency),
        }
    )
    untraced_p50 = statistics.median(latency for _, latency, _ in untraced)
    values["trace.overhead_frac"] = statistics.median(latency) / untraced_p50 - 1.0
    all_done = untraced + done
    failed = [
        key
        for key, _, response in all_done
        if not workload.output_ok(response, references[key])
    ]
    record = {
        "attempted": len(all_done),
        "failed": len(failed),
        "failed_ops": sorted(set(failed)),
        "untraced_route_s_p50": untraced_p50,
        "traced_route_s_p50": statistics.median(latency),
        "traced_ops": requests,
        "serve_means_s": {
            "latency": statistics.fmean(latency),
            "queue": statistics.fmean(queue),
            "exec": statistics.fmean(execute),
            "handoff": statistics.fmean(handoff),
        },
    }
    return values, record, tracer.sink.events
