"""The repro rule pack: this repository's invariants as lint rules.

Every rule guards a property the benchmarks or the paper-claims tests
rely on.  The three themes:

* **Determinism** — bit-identical reruns and thread-count-independent
  results (CONTRIBUTING's "determinism is a feature") need seeded RNGs
  (REPRO003), ordered iteration in routing decisions (REPRO005), no
  tie-breaking on float equality (REPRO006), order-independent
  serialization (REPRO007) and no BLAS reductions, whose last bits
  follow the BLAS thread count (REPRO015).
* **Observability discipline** — spans are the sanctioned clock
  (REPRO001), loggers the sanctioned progress channel (REPRO002,
  REPRO009), and metric names a closed, documentable vocabulary
  (REPRO008) so ``docs/observability.md`` can enumerate them.
* **Configuration hygiene** — behaviour flows through ``RouterConfig``
  and CLI flags, never ambient process state (REPRO010), and never
  through shared mutable defaults (REPRO004).

Rule ids are stable and never recycled; retired rules leave a tombstone
comment here.  To add a rule, subclass :class:`~repro.lint.engine.Rule`,
decorate with :func:`~repro.lint.engine.register`, and extend the fixture
matrix in ``tests/test_lint_rules.py`` (every rule must prove it fires
and stays quiet) — see ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set

from repro.lint.engine import (
    FileContext,
    Rule,
    dotted_name,
    iter_scope_nodes,
    register,
)
from repro.lint.finding import Finding

#: Core routing layers whose hot paths must stay deterministic.
_DETERMINISTIC_SCOPES = ("repro.core", "repro.route")

#: Layers allowed to talk to the terminal directly.
_TERMINAL_SCOPES = ("repro.cli",)


@register
class WallClockRule(Rule):
    """REPRO001: no wall-clock reads in the routing layers.

    Spans (``tracer.span``) and ``time.perf_counter`` are the sanctioned
    clocks: they are monotonic, and phase timings derived from them make
    run reports comparable across machines.  ``time.time()`` and the
    ``datetime.now()`` family leak wall-clock values into results and
    break trace relocatability.
    """

    rule_id = "REPRO001"
    title = "no wall-clock in core layers"
    rationale = (
        "wall-clock reads make run reports non-relocatable and leak "
        "nondeterminism into timing-driven decisions"
    )
    remedy = "use a repro.obs span (or time.perf_counter for raw intervals)"
    node_types = (ast.Call,)
    include = ("repro.core", "repro.route", "repro.timing", "repro.drc")

    _FORBIDDEN = frozenset(
        {
            "time.time",
            "time.clock",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "date.today",
            "datetime.date.today",
        }
    )

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag calls whose dotted target is a wall-clock read."""
        name = dotted_name(node.func)
        if name in self._FORBIDDEN:
            yield ctx.finding(self, node, f"wall-clock call {name}()")


@register
class PrintRule(Rule):
    """REPRO002: no ``print()`` outside the CLI layer.

    Progress belongs to ``repro.obs.get_logger`` (filterable, stderr,
    machine-parsable); deliverable text belongs to ``repro.cli``.  A
    stray ``print`` in a library layer corrupts piped stdout (solution
    files, JSON) and cannot be silenced by log level.
    """

    rule_id = "REPRO002"
    title = "no print outside cli"
    rationale = (
        "stray prints corrupt piped solution/JSON output and bypass "
        "log-level control"
    )
    remedy = "use repro.obs.get_logger(...)"
    node_types = (ast.Call,)
    include = ("repro",)
    exclude = _TERMINAL_SCOPES

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag any call to the ``print`` builtin."""
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield ctx.finding(self, node, "print() in a library layer")


@register
class UnseededRandomRule(Rule):
    """REPRO003: no global/unseeded RNG anywhere.

    Reruns must be bit-identical (CONTRIBUTING: "no unseeded randomness
    anywhere").  The module-level ``random.*`` functions share hidden
    global state; ``random.Random()`` / ``numpy.random.default_rng()``
    without a seed draw from the OS.  Generators and tie-breakers must
    construct ``random.Random(seed)`` (benchgen style) and thread it
    down explicitly.
    """

    rule_id = "REPRO003"
    title = "no unseeded or global RNG"
    rationale = (
        "global RNG state and OS-seeded generators break bit-identical "
        "reruns of Table II/III numbers"
    )
    remedy = (
        "construct random.Random(seed) / numpy.random.default_rng(seed) "
        "and pass it down"
    )
    node_types = (ast.Call,)

    _ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})
    _ALLOWED_NUMPY_ATTRS = frozenset({"default_rng", "Generator", "SeedSequence"})

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag global-RNG calls and seedless generator constructions."""
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] in self._ALLOWED_RANDOM_ATTRS:
                if parts[1] == "Random" and not node.args:
                    yield ctx.finding(
                        self, node, "random.Random() constructed without a seed"
                    )
            else:
                yield ctx.finding(
                    self, node, f"global-state RNG call {name}()"
                )
        elif parts[0] in ("numpy", "np") and len(parts) >= 2 and parts[1] == "random":
            attr = parts[-1]
            if attr not in self._ALLOWED_NUMPY_ATTRS:
                yield ctx.finding(
                    self, node, f"legacy global numpy RNG call {name}()"
                )
            elif attr == "default_rng" and not node.args:
                yield ctx.finding(
                    self, node, "numpy default_rng() constructed without a seed"
                )


@register
class MutableDefaultRule(Rule):
    """REPRO004: no mutable argument defaults.

    A ``def f(x, cache={})`` default is evaluated once and shared across
    every call — state leaks between routing runs and between tests.
    """

    rule_id = "REPRO004"
    title = "no mutable argument defaults"
    rationale = "shared default objects leak state between routing runs"
    remedy = (
        "default to None and construct inside, or use "
        "dataclasses.field(default_factory=...)"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    _FACTORY_NAMES = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in self._FACTORY_NAMES
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Flag list/dict/set (display or constructor) defaults."""
        args = node.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults if d]
        for default in defaults:
            if self._is_mutable(default):
                yield ctx.finding(
                    self,
                    default,
                    f"mutable default argument in {node.name}()",
                )


@register
class UnorderedSetIterationRule(Rule):
    """REPRO005: no iteration over sets in the routing hot paths.

    Set iteration order depends on insertion history and hashing; any
    routing decision fed from it (rip-up order, victim selection, edge
    refresh order feeding tie-breaks) can differ between runs.  Core and
    route code must iterate ``sorted(the_set)`` — the ``sorted()`` wrapper
    is also self-documenting at the call site.

    Detection is intentionally syntactic: direct iteration over a set
    display / ``set(...)`` call, or over a local name bound to one in the
    same function scope.  Sets that only serve membership tests are fine.
    """

    rule_id = "REPRO005"
    title = "no unordered set iteration in core/route"
    rationale = (
        "set iteration order is not a stable function of the input and "
        "leaks into rip-up and tie-break decisions"
    )
    remedy = "iterate sorted(the_set) (or keep a parallel ordered list)"
    node_types = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)
    include = _DETERMINISTIC_SCOPES

    _SET_CALLS = frozenset({"set", "frozenset"})

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self._SET_CALLS
        )

    def visit(self, scope: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Flag set-valued iterables in ``for`` loops and comprehensions."""
        set_names: Set[str] = set()
        scope_nodes = list(iter_scope_nodes(scope))
        for node in scope_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and self._is_set_expr(node.value)
            ):
                set_names.add(node.targets[0].id)
        for node in scope_nodes:
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                iterable = node.iter
            else:
                continue
            if self._is_set_expr(iterable):
                yield ctx.finding(
                    self, iterable, "iteration directly over a set expression"
                )
            elif isinstance(iterable, ast.Name) and iterable.id in set_names:
                yield ctx.finding(
                    self,
                    iterable,
                    f"iteration over set-valued local {iterable.id!r}",
                )


@register
class FloatEqualityRule(Rule):
    """REPRO006: no exact float-literal comparisons in timing math.

    Delay and Lagrangian-multiplier arithmetic accumulates rounding
    error; ``x == 0.5`` style guards flip on the last ulp and change
    which connection is "critical" between otherwise identical runs.
    """

    rule_id = "REPRO006"
    title = "no float-literal ==/!= in timing math"
    rationale = (
        "exact float comparison flips on rounding noise and changes "
        "critical-path selection between runs"
    )
    remedy = "compare with math.isclose(...) or an explicit tolerance"
    node_types = (ast.Compare,)
    include = ("repro.timing", "repro.core.lagrangian", "repro.core.cost")

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def visit(self, node: ast.Compare, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``==``/``!=`` where either side is a float literal."""
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if self._is_float_literal(left) or self._is_float_literal(right):
                yield ctx.finding(
                    self, node, "exact ==/!= against a float literal"
                )
                return


@register
class JsonSortKeysRule(Rule):
    """REPRO007: ``repro.io`` JSON writers must sort keys.

    The JSON mirror formats exist for interop; their byte output must not
    depend on dict insertion order, or re-serializing an untouched case
    produces spurious diffs.  Every ``json.dump(s)`` call in ``repro.io``
    passes ``sort_keys=True``.
    """

    rule_id = "REPRO007"
    title = "repro.io JSON writers sort keys"
    rationale = (
        "insertion-ordered output makes byte-level diffs depend on code "
        "paths rather than content"
    )
    remedy = "pass sort_keys=True to json.dump/json.dumps"
    node_types = (ast.Call,)
    include = ("repro.io",)

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``json.dump(s)`` calls without ``sort_keys=True``."""
        name = dotted_name(node.func)
        if name not in ("json.dump", "json.dumps"):
            return
        for keyword in node.keywords:
            if keyword.arg == "sort_keys":
                value = keyword.value
                if isinstance(value, ast.Constant) and value.value is True:
                    return
                yield ctx.finding(
                    self, node, f"{name}() with sort_keys not literally True"
                )
                return
        yield ctx.finding(self, node, f"{name}() without sort_keys=True")


@register
class MetricNameLiteralRule(Rule):
    """REPRO008: obs span/counter/gauge names must be static strings.

    ``docs/observability.md`` enumerates the full metric vocabulary and
    the run-report schema checks lean on it; a name interpolated at
    runtime (f-string, ``+``, ``.format``) creates an open-ended
    namespace no document or dashboard can enumerate.  Allowed forms:
    a string literal, a module-level string constant (``PHASE_IR``
    style), or a conditional expression choosing between such values.
    """

    rule_id = "REPRO008"
    title = "obs metric names are static strings"
    rationale = (
        "runtime-built metric names create an unenumerable vocabulary "
        "that docs and dashboards cannot track"
    )
    remedy = (
        "use a string literal or module-level constant (split per-variant "
        "names into explicit literals)"
    )
    node_types = (ast.Call,)

    _EMITTERS = frozenset({"span", "add", "gauge", "observe", "event"})

    def _is_static(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return True
        if isinstance(node, ast.Name) and node.id in ctx.module_constants:
            return True
        if isinstance(node, ast.IfExp):
            return self._is_static(node.body, ctx) and self._is_static(
                node.orelse, ctx
            )
        return False

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag tracer emission calls whose name argument is dynamic."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._EMITTERS:
            return
        receiver = dotted_name(func.value)
        if receiver is None or "tracer" not in receiver.lower():
            return
        if not node.args:
            return
        if not self._is_static(node.args[0], ctx):
            yield ctx.finding(
                self,
                node.args[0],
                f"dynamic metric name passed to {receiver}.{func.attr}()",
            )


@register
class StdStreamRule(Rule):
    """REPRO009: no direct ``sys.stdout``/``sys.stderr`` use in libraries.

    Companion to REPRO002: writing to the process streams from a library
    layer bypasses the logging configuration.  Only ``repro.cli`` and
    the obs logging setup may touch them.
    """

    rule_id = "REPRO009"
    title = "no sys.stdout/stderr outside cli/obs"
    rationale = (
        "direct stream writes bypass log-level control and corrupt "
        "piped output, same failure mode as print()"
    )
    remedy = "use repro.obs.get_logger(...) or return text to the caller"
    node_types = (ast.Attribute,)
    exclude = _TERMINAL_SCOPES + ("repro.obs",)

    def visit(self, node: ast.Attribute, ctx: FileContext) -> Iterator[Finding]:
        """Flag any ``sys.stdout`` / ``sys.stderr`` attribute access."""
        if dotted_name(node) in ("sys.stdout", "sys.stderr"):
            yield ctx.finding(self, node, f"direct use of {dotted_name(node)}")


@register
class EnvAccessRule(Rule):
    """REPRO010: no environment-variable reads outside the CLI layer.

    Router behaviour flows through :class:`repro.core.config.RouterConfig`
    and explicit CLI flags so a run report fully describes its run.  An
    ``os.environ`` read in a library layer is invisible configuration
    that reproductions cannot see.
    """

    rule_id = "REPRO010"
    title = "no os.environ outside cli"
    rationale = (
        "ambient environment reads are configuration the run report "
        "cannot capture, breaking reproducibility of results"
    )
    remedy = "plumb the value through RouterConfig or a CLI flag"
    node_types = (ast.Call, ast.Attribute)
    exclude = ("repro.cli",)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``os.environ`` access and ``os.getenv`` calls."""
        if isinstance(node, ast.Attribute):
            if dotted_name(node) == "os.environ":
                yield ctx.finding(self, node, "os.environ access")
        elif isinstance(node, ast.Call):
            if dotted_name(node.func) == "os.getenv":
                yield ctx.finding(self, node, "os.getenv() call")


@register
class DeepCoreImportRule(Rule):
    """REPRO011: no ``repro.core.*`` imports from the CLI, serve or examples.

    :mod:`repro.api` is the stable facade (docs/api.md); the submodule
    layout under :mod:`repro.core` is free to move between releases.
    User-facing layers — the CLI, the :mod:`repro.serve` service layer
    and the runnable examples, which double as downstream-usage
    documentation — must demonstrate the supported import path, not the
    internal one.

    Examples are not importable as ``repro.*`` modules (their dotted
    name degrades to the file stem), so scoping is by path here rather
    than by the ``include`` prefix mechanism.
    """

    rule_id = "REPRO011"
    title = "no repro.core imports in cli/serve/examples"
    rationale = (
        "deep imports freeze the internal submodule layout into "
        "user-facing code; the repro.api facade is the stable surface"
    )
    remedy = "import from repro or repro.api instead of repro.core.*"
    node_types = (ast.Import, ast.ImportFrom)

    @staticmethod
    def _user_facing(ctx: FileContext) -> bool:
        if Rule._matches(ctx.module, ("repro.cli", "repro.serve")):
            return True
        return "examples" in Path(ctx.path).parts

    @staticmethod
    def _banned(name: str) -> bool:
        return name == "repro.core" or name.startswith("repro.core.")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``import repro.core...`` / ``from repro.core... import``."""
        if not self._user_facing(ctx):
            return
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and self._banned(module):
                yield ctx.finding(self, node, f"from {module} import ...")
        else:
            for alias in node.names:
                if self._banned(alias.name):
                    yield ctx.finding(self, node, f"import {alias.name}")


@register
class SpanEventNameLiteralRule(Rule):
    """REPRO012: span/event names in the routing layers are static strings.

    Companion to REPRO008, for the trace schema rather than the metric
    registry: the span-tree profiler (:mod:`repro.obs.profile`) matches
    parents by *name*, the run-report differ keys timers by name, and
    ``docs/observability.md`` enumerates the span vocabulary.  REPRO008
    only inspects receivers that look like a tracer; in the core layers
    a renamed handle (``t.span(...)``, ``obs.event(...)``) must obey the
    same discipline, so here every ``.span(...)``/``.event(...)`` call
    is held to a static first argument.
    """

    rule_id = "REPRO012"
    title = "span/event names are static strings in core layers"
    rationale = (
        "the trace profiler reconstructs span trees by name and the docs "
        "enumerate the span vocabulary; runtime-built names break both"
    )
    remedy = (
        "use a string literal or module-level constant for the span/event "
        "name (attach variability as span attributes instead)"
    )
    node_types = (ast.Call,)
    include = _DETERMINISTIC_SCOPES

    _EMITTERS = frozenset({"span", "event"})

    def _is_static(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return True
        if isinstance(node, ast.Name) and node.id in ctx.module_constants:
            return True
        if isinstance(node, ast.IfExp):
            return self._is_static(node.body, ctx) and self._is_static(
                node.orelse, ctx
            )
        return False

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``.span(...)``/``.event(...)`` calls with a dynamic name."""
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._EMITTERS:
            return
        if not node.args:
            return
        if not self._is_static(node.args[0], ctx):
            receiver = dotted_name(func.value) or "<expr>"
            yield ctx.finding(
                self,
                node.args[0],
                f"dynamic span/event name passed to {receiver}.{func.attr}()",
            )


# REPRO013 (retired in 3.0.0): no module-level mutable state in the task
# modules of the phase II thread pool, deleted with ``repro.parallel``.


@register
class ConfigConstructionRule(Rule):
    """REPRO014: ``RouterConfig`` is built by the facade, not by callers.

    The request/response surface (docs/api.md) normalizes plain mappings
    into :class:`repro.core.RouterConfig` inside ``repro.api`` — that is
    the one place field validation, defaulting and future migrations
    live.  A user-facing layer that calls ``RouterConfig(...)`` or
    ``RouterConfig.from_dict(...)`` directly re-freezes the config
    schema into its own code and silently skips whatever normalization
    the facade adds next.  The CLI, the service layer and the runnable
    examples pass ``config={...}`` to :class:`repro.api.RouteRequest`
    instead and read the normalized instance back off the request.

    Scoped like REPRO011: by module prefix for ``repro.cli`` and
    ``repro.serve``, by path for ``examples/``.
    """

    rule_id = "REPRO014"
    title = "no RouterConfig construction outside the facade"
    rationale = (
        "direct RouterConfig construction in user-facing layers bypasses "
        "the facade's normalization and freezes the config schema into "
        "caller code"
    )
    remedy = (
        "pass a plain mapping as RouteRequest(config={...}) and read the "
        "normalized RouterConfig back from request.config"
    )
    node_types = (ast.Call,)

    @staticmethod
    def _user_facing(ctx: FileContext) -> bool:
        if Rule._matches(ctx.module, ("repro.cli", "repro.serve")):
            return True
        return "examples" in Path(ctx.path).parts

    @staticmethod
    def _is_banned(name: str) -> bool:
        if name.endswith(".from_dict"):
            name = name[: -len(".from_dict")]
        return name == "RouterConfig" or name.endswith(".RouterConfig")

    def visit(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``RouterConfig(...)`` / ``RouterConfig.from_dict(...)``."""
        if not self._user_facing(ctx):
            return
        name = dotted_name(node.func)
        if name is not None and self._is_banned(name):
            yield ctx.finding(self, node, f"{name}() outside the facade")


@register
class BlasCallRule(Rule):
    """REPRO015: no BLAS-backed numpy calls in the bit-identity layers.

    numpy hands ``dot``, ``vdot``, ``inner``, ``matmul`` (the ``@``
    operator) and ``numpy.linalg`` to the host's BLAS library, which may
    split a long reduction across its threads.  The summation order, and
    so the last bits of the result, then depend on the host's BLAS thread
    count.  Core, route and timing values feed fingerprints and delays
    that must be bit-identical on every host, so those layers reduce with
    ``ndarray.sum`` (numpy's own pairwise sum) or ``np.bincount``.

    Detection is syntactic: ``@``/``@=``, any ``.dot(...)`` call, the
    four functions and ``linalg`` reached through ``np``/``numpy``, and
    imports of them from numpy.
    """

    rule_id = "REPRO015"
    title = "no BLAS-backed numpy calls in core/route/timing"
    rationale = (
        "BLAS splits long reductions across its threads, so the last bits "
        "of a dot product or norm depend on the host's BLAS thread count"
    )
    remedy = (
        "np.multiply(a, b).sum() for a dot product, "
        "math.sqrt(np.square(x).sum()) for a norm"
    )
    node_types = (ast.Call, ast.BinOp, ast.AugAssign, ast.Import, ast.ImportFrom)
    include = ("repro.core", "repro.route", "repro.timing")

    _NUMPY = ("np", "numpy")
    _BLAS_NAMES = frozenset({"dot", "vdot", "inner", "matmul", "linalg"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Flag ``@``, ``.dot(...)``, numpy BLAS functions and imports."""
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.MatMult):
                yield ctx.finding(self, node, "matrix product operator @")
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            parts = name.split(".") if name is not None else []
            if isinstance(node.func, ast.Attribute) and node.func.attr == "dot":
                yield ctx.finding(self, node, f"{name or '.dot'}() goes to BLAS")
            elif (
                len(parts) >= 2
                and parts[0] in self._NUMPY
                and parts[1] in self._BLAS_NAMES
            ):
                yield ctx.finding(self, node, f"{name}() goes to BLAS")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("numpy.linalg"):
                    yield ctx.finding(self, node, f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("numpy.linalg"):
                yield ctx.finding(self, node, f"import from {module}")
            elif module == "numpy":
                for alias in node.names:
                    if alias.name in self._BLAS_NAMES:
                        yield ctx.finding(
                            self, node, f"import of numpy.{alias.name}"
                        )
