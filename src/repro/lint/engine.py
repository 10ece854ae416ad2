"""AST lint engine: rule registry, file walker, suppression handling.

The engine parses each file once, builds a :class:`FileContext`, and
dispatches AST nodes to every selected rule that registered interest in
that node type (``Rule.node_types``) and whose scope covers the file's
dotted module name (``Rule.applies_to``).  One tree walk serves the whole
rule pack.

Suppressions are comment-driven, mirroring the DRC's philosophy that
every waiver must be visible in the artifact it waives:

* ``# lint: disable=REPRO001`` on the offending line silences the named
  rule(s) for that line only;
* ``# lint: disable-file=REPRO001`` anywhere in the file silences the
  rule(s) for the whole file.

Silenced findings are still reported, marked ``suppressed`` (the JSON
output keeps the audit trail).  A disable comment naming a rule id the
registry does not know is itself a finding (:data:`META_RULE_ID`) — a
typo in a waiver must not silently waive nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type, Union

from repro.lint.finding import Finding, LintReport

#: Rule id used for engine-level findings about malformed suppressions.
META_RULE_ID = "REPRO000"

_DISABLE_RE = re.compile(r"#\s*lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<ids>[A-Za-z0-9_,\s]+)")

_SCOPE_BOUNDARIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted source text of a ``Name``/``Attribute`` chain, else ``None``.

    ``ast.Attribute(value=Name('time'), attr='time')`` -> ``"time.time"``.
    Chains that pass through calls or subscripts (``x().y``) resolve to
    ``None`` — the static identity is unknown.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Yield the nodes belonging to ``scope`` itself, not nested scopes.

    Descends the tree but stops at function/lambda/class boundaries, so a
    rule analysing local bindings (e.g. :class:`~repro.lint.rules
    .UnorderedSetIterationRule`) sees exactly one function's statements.
    The boundary nodes themselves are yielded (their decorators and
    defaults evaluate in the enclosing scope) but not entered.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPE_BOUNDARIES):
            stack.extend(ast.iter_child_nodes(node))


def module_name_for(path: Union[str, Path]) -> str:
    """Dotted module name for a file path, anchored at the ``repro`` package.

    ``src/repro/core/eco.py`` -> ``repro.core.eco``;
    ``src/repro/lint/__init__.py`` -> ``repro.lint``.  Files outside a
    ``repro`` tree fall back to their stem so scoped rules (which match on
    ``repro.``-prefixes) simply do not apply.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts)
    return parts[-1] if parts else ""


class FileContext:
    """Everything rules may inspect about the file being linted.

    Attributes:
        path: the path findings are reported under.
        module: dotted module name used for rule scoping.
        source: full source text.
        tree: the parsed ``ast.Module``.
        module_constants: top-level ``NAME = "literal"`` string constants
            (the sanctioned indirection for metric names, REPRO008).
    """

    def __init__(self, path: str, module: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        self.module_constants: Dict[str, str] = {}
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                self.module_constants[stmt.targets[0].id] = stmt.value.value

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        return Finding(
            rule_id=rule.rule_id,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            remedy=rule.remedy,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`visit`.

    Attributes:
        rule_id: stable identifier (``REPRO001``...); never recycle one.
        title: short name for ``--list-rules`` and the docs rule table.
        rationale: why the invariant matters (one sentence).
        remedy: what the offender should use instead.
        node_types: AST node classes the engine dispatches to the rule.
        include: dotted module prefixes the rule applies to (empty =
            everywhere).
        exclude: dotted module prefixes exempt from the rule.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    remedy: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()
    include: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()

    @staticmethod
    def _matches(module: str, prefixes: Tuple[str, ...]) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def applies_to(self, module: str) -> bool:
        """Whether the file's dotted module name is in the rule's scope."""
        if self.include and not self._matches(module, self.include):
            return False
        return not self._matches(module, self.exclude)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one dispatched node."""
        raise NotImplementedError


#: Registry of every known rule, id -> instance.  Populated by
#: :func:`register` at import of :mod:`repro.lint.rules`.
RULE_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the registry."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule.rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    RULE_REGISTRY[rule.rule_id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    import repro.lint.rules  # noqa: F401  (populates the registry)

    return [RULE_REGISTRY[rule_id] for rule_id in sorted(RULE_REGISTRY)]


def resolve_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Map ids to rule instances (all rules when ``rule_ids`` is None).

    Raises:
        KeyError: on an unknown rule id.
    """
    rules = all_rules()
    if rule_ids is None:
        return rules
    by_id = {rule.rule_id: rule for rule in rules}
    selected = []
    for rule_id in rule_ids:
        rule_id = rule_id.strip()
        if rule_id not in by_id:
            raise KeyError(f"unknown lint rule {rule_id!r}")
        selected.append(by_id[rule_id])
    return selected


def _parse_suppressions(
    source: str, path: str
) -> Tuple[Dict[int, Set[str]], Set[str], List[Finding]]:
    """Extract disable comments: (line -> ids, file-wide ids, meta findings)."""
    import repro.lint.rules  # noqa: F401  (registry must know every id)

    line_ids: Dict[int, Set[str]] = {}
    file_ids: Set[str] = set()
    meta: List[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.search(token.string)
        if match is None:
            continue
        lineno, col = token.start
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        known = {rule_id for rule_id in ids if rule_id in RULE_REGISTRY}
        for unknown in sorted(ids - known):
            meta.append(
                Finding(
                    rule_id=META_RULE_ID,
                    path=path,
                    line=lineno,
                    col=col,
                    message=f"disable comment names unknown rule {unknown!r}",
                    remedy="fix the rule id (see repro lint --list-rules)",
                )
            )
        if match.group("scope"):
            file_ids |= known
        else:
            line_ids.setdefault(lineno, set()).update(known)
    return line_ids, file_ids, meta


def lint_source(
    source: str,
    *,
    module: str = "",
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string; the core entry point tests drive directly.

    Args:
        source: Python source text.
        module: dotted module name used for rule scoping (e.g.
            ``"repro.core.eco"``); empty means only unscoped rules apply.
        path: path label used in findings.
        rules: rule instances to run (default: the full registry).

    Returns:
        Findings in stable order, suppressed ones included and marked.

    Raises:
        SyntaxError: when ``source`` does not parse.
    """
    selected = list(rules) if rules is not None else all_rules()
    tree = ast.parse(source)
    ctx = FileContext(path=path, module=module, source=source, tree=tree)
    active = [rule for rule in selected if rule.applies_to(module)]
    findings: List[Finding] = []
    if active:
        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in active:
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
    line_ids, file_ids, meta = _parse_suppressions(source, path)
    for finding in findings:
        if finding.rule_id in file_ids or finding.rule_id in line_ids.get(
            finding.line, ()
        ):
            finding.suppressed = True
    findings.extend(meta)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: Union[str, Path], *, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint one file (module name derived from the path)."""
    path = Path(path)
    return lint_source(
        path.read_text(),
        module=module_name_for(path),
        path=str(path),
        rules=rules,
    )


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            seen.update(path.rglob("*.py"))
        else:
            seen.add(path)
    return sorted(seen)


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint files and/or directory trees into one :class:`LintReport`."""
    report = LintReport()
    for path in iter_python_files(paths):
        report.findings.extend(lint_file(path, rules=rules))
        report.files_scanned += 1
    report.findings.sort(key=Finding.sort_key)
    return report
