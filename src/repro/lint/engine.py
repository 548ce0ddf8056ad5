"""Lint engine: file loading, rule dispatch, suppression and budget audit."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint import suppressions as suppression_mod
from repro.lint.classdb import ClassDb
from repro.lint.context import ProjectContext
from repro.lint.suppressions import Suppression, match_suppression
from repro.lint.violations import Violation


@dataclass(slots=True)
class SourceModule:
    """One parsed source file plus its suppression directives."""

    path: str
    relpath: str
    source: str
    tree: Optional[ast.Module]
    lines: List[str]
    suppressions: List[Suppression]
    #: Parse/scan findings (syntax errors, malformed directives).
    intrinsic_violations: List[Violation]


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``/``symbol``/``description``, optionally narrow
    ``applies`` and implement :meth:`check` (per file) and/or
    :meth:`finalize` (once per run, with every in-scope module parsed).
    """

    code: str = "X000"
    symbol: str = "abstract-rule"
    description: str = ""

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        return []

    def finalize(
        self,
        modules: Sequence[SourceModule],
        ctx: ProjectContext,
        classdb: ClassDb,
    ) -> List[Violation]:
        return []

    def violation(self, module: SourceModule, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            symbol=self.symbol,
            message=message,
        )


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    #: Findings that survived suppression (sorted; includes X-codes).
    violations: List[Violation]
    #: Findings waived by an inline suppression.
    suppressed: List[Violation]
    #: Every suppression directive found, with usage marked.
    suppressions: List[Tuple[str, Suppression]]
    #: Files examined (project-relative paths).
    files: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def used_suppression_counts(self) -> Dict[Tuple[str, str], int]:
        """(path, code-or-symbol-key resolved to code) -> count of *used*
        suppressions, the quantity the budget file audits."""
        counts: Dict[Tuple[str, str], int] = {}
        for path, suppression in self.suppressions:
            if suppression.used:
                key = (path, suppression.resolved_code or suppression.key)
                counts[key] = counts.get(key, 0) + 1
        return counts


def load_source_module(path: str, relpath: Optional[str] = None) -> SourceModule:
    """Read and parse one file; syntax errors become X104 findings."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    rel = relpath if relpath is not None else path.replace(os.sep, "/")
    intrinsic: List[Violation] = []
    tree: Optional[ast.Module] = None
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        intrinsic.append(
            Violation(
                path=rel,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="X104",
                symbol="syntax-error",
                message=f"file does not parse: {exc.msg}",
            )
        )
    found, malformed = suppression_mod.scan(source, rel)
    intrinsic.extend(malformed)
    return SourceModule(
        path=path,
        relpath=rel,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        suppressions=found,
        intrinsic_violations=intrinsic,
    )


def discover_files(paths: Sequence[str], ctx: ProjectContext) -> List[Tuple[str, str]]:
    """Expand files/directories into (abspath, relpath) pairs, sorted."""
    found: List[Tuple[str, str]] = []
    for path in paths:
        absolute = os.path.abspath(path)
        if os.path.isdir(absolute):
            for dirpath, dirnames, filenames in os.walk(absolute):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(dirpath, filename)
                        found.append((full, ctx.relpath(full)))
        elif absolute.endswith(".py"):
            found.append((absolute, ctx.relpath(absolute)))
    # De-duplicate while preserving sorted order by relpath.
    seen = set()
    unique: List[Tuple[str, str]] = []
    for full, rel in sorted(found, key=lambda pair: pair[1]):
        if rel not in seen:
            seen.add(rel)
            unique.append((full, rel))
    return unique


def run_rules(
    modules: Sequence[SourceModule],
    rules: Sequence[Rule],
    ctx: ProjectContext,
) -> Tuple[List[Violation], ClassDb]:
    """Raw findings from every rule over every module (pre-suppression)."""
    classdb = ClassDb()
    for module in modules:
        if module.tree is not None:
            classdb.add_module(module.relpath, module.tree)
    raw: List[Violation] = []
    for module in modules:
        raw.extend(module.intrinsic_violations)
        if module.tree is None:
            continue
        for rule in rules:
            if rule.applies(module.relpath):
                raw.extend(rule.check(module, ctx))
    for rule in rules:
        raw.extend(rule.finalize(modules, ctx, classdb))
    return raw, classdb


def apply_suppressions(
    modules: Sequence[SourceModule],
    raw: List[Violation],
    rules: Sequence[Rule],
) -> LintReport:
    """Waive suppressed findings; report unused/unknown suppressions."""
    symbol_of_code = {rule.code: rule.symbol for rule in rules}
    code_of_symbol = {rule.symbol: rule.code for rule in rules}
    known_keys = (
        set(symbol_of_code)
        | set(code_of_symbol)
        | {"X100", "X101", "X102", "X103", "X104"}
    )
    by_path: Dict[str, List[Suppression]] = {
        module.relpath: module.suppressions for module in modules
    }
    kept: List[Violation] = []
    waived: List[Violation] = []
    for violation in raw:
        # Engine meta-findings are never suppressible: the audit trail must
        # not be able to waive itself.
        if violation.code.startswith("X"):
            kept.append(violation)
            continue
        suppression = match_suppression(
            by_path.get(violation.path, []), violation, symbol_of_code, code_of_symbol
        )
        if suppression is not None:
            suppression.used = True
            suppression.resolved_code = violation.code
            waived.append(violation)
        else:
            kept.append(violation)
    all_suppressions: List[Tuple[str, Suppression]] = []
    for module in modules:
        for suppression in module.suppressions:
            all_suppressions.append((module.relpath, suppression))
            if suppression.key not in known_keys:
                kept.append(
                    Violation(
                        path=module.relpath,
                        line=suppression.comment_line,
                        col=0,
                        code="X100",
                        symbol="unknown-rule",
                        message=f"suppression names unknown rule {suppression.key!r}",
                    )
                )
            elif not suppression.used:
                kept.append(
                    Violation(
                        path=module.relpath,
                        line=suppression.comment_line,
                        col=0,
                        code="X102",
                        symbol="unused-suppression",
                        message=(
                            f"suppression of {suppression.key} waives nothing — "
                            "delete it (and update lint-budget.json)"
                        ),
                    )
                )
    kept.sort(key=Violation.sort_key)
    waived.sort(key=Violation.sort_key)
    return LintReport(
        violations=kept,
        suppressed=waived,
        suppressions=all_suppressions,
        files=[module.relpath for module in modules],
    )


def lint_paths(
    paths: Sequence[str],
    *,
    root: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    budget_path: Optional[str] = None,
) -> LintReport:
    """Lint files/directories; the one-call public API.

    ``budget_path`` (when given and existing) audits the suppression budget
    — see :mod:`repro.lint.budget`.
    """
    from repro.lint import budget as budget_mod
    from repro.lint.rules import all_rules

    ctx = ProjectContext(root)
    active_rules = list(rules) if rules is not None else all_rules()
    modules = [load_source_module(full, rel) for full, rel in discover_files(paths, ctx)]
    raw, _classdb = run_rules(modules, active_rules, ctx)
    report = apply_suppressions(modules, raw, active_rules)
    if budget_path is not None and os.path.exists(budget_path):
        report.violations.extend(
            budget_mod.audit(budget_path, report, root=ctx.root)
        )
        report.violations.sort(key=Violation.sort_key)
    return report
