"""Protocol-contract rules (P2xx).

These cross-check the three stable-state engines against the state enums
in :mod:`repro.core.states` and the columnar type-code table, so the
ROADMAP's aggressive protocol refactors cannot silently drift from the
contracts the batched kernel and the verification model rely on.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence

from repro.lint.classdb import ClassDb
from repro.lint.context import (
    ENGINE_STATE_ALPHABET,
    HOT_COMMUTATIVE_VALUES,
    ProjectContext,
)
from repro.lint.engine import Rule, SourceModule
from repro.lint.violations import Violation

#: Base classes known to provide a valid generic ``hot_mask`` (the MESI
#: family shares :meth:`CoherenceProtocol.hot_mask`).
_HOT_MASK_PROVIDERS = frozenset(
    {"CoherenceProtocol", "MesiProtocol", "MeusiProtocol", "RmoProtocol"}
)


class UnknownEnumMemberRule(Rule):
    """P201: references to nonexistent state-enum members.

    ``StableState.OWNED`` parses, imports, and only explodes at runtime on
    the exact path that exercises it; this catches the typo at lint time by
    checking every ``Enum.X`` attribute access against the live enum.
    """

    code = "P201"
    symbol = "unknown-enum-member"
    description = (
        "attribute access on the protocol enums (StableState, LineMode, "
        "RequestType, AccessType, CommutativeOp) must name a real member"
    )

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        members = ctx.enum_members
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.value, ast.Name):
                continue
            enum_name = node.value.id
            allowed = members.get(enum_name)
            if allowed is None or node.attr.startswith("_"):
                continue
            if node.attr not in allowed:
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"{enum_name}.{node.attr} does not exist — members are "
                        f"{', '.join(sorted(allowed))}",
                    )
                )
        return findings


class BatchContractRule(Rule):
    """P202: the batched-kernel contract on protocol classes.

    A class opting into ``SUPPORTS_BATCH_KERNEL = True`` must satisfy the
    contract :mod:`repro.sim.kernel` assumes: a ``hot_mask`` (own or
    inherited from the MESI family), a legal
    ``HOT_COMMUTATIVE`` folding mode, and — for ``"local"`` folding —
    a ``batch_uop_code`` hook so U-line buffering can be classified per
    chunk.  A run-level check additionally verifies the 104-entry columnar
    type-code table still covers every code the kernel classifies, and
    that every live batch engine exposes those hooks.
    """

    code = "P202"
    symbol = "batch-contract"
    description = (
        "SUPPORTS_BATCH_KERNEL protocols must declare the full batch "
        "contract (hot_mask, legal HOT_COMMUTATIVE, "
        "batch_uop_code for local folding)"
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/core/")

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: SourceModule, node: ast.ClassDef) -> List[Violation]:
        flags: Dict[str, object] = {}
        methods = set()
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and isinstance(
                        statement.value, ast.Constant
                    ):
                        flags[target.id] = statement.value.value
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                if isinstance(statement.value, ast.Constant):
                    flags[statement.target.id] = statement.value.value
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(statement.name)
        base_names = {
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        }
        findings: List[Violation] = []

        hot_commutative = flags.get("HOT_COMMUTATIVE")
        if hot_commutative is not None and hot_commutative not in HOT_COMMUTATIVE_VALUES:
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: HOT_COMMUTATIVE={hot_commutative!r} is not one "
                    f"of {sorted(HOT_COMMUTATIVE_VALUES)}",
                )
            )
        if hot_commutative == "local" and "batch_uop_code" not in methods:
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: HOT_COMMUTATIVE='local' requires a "
                    "batch_uop_code(core_id, line_addr) hook so the kernel can "
                    "classify U-line buffering per chunk",
                )
            )

        if flags.get("SUPPORTS_BATCH_KERNEL") is not True:
            return findings
        inherits_mask = bool(base_names & _HOT_MASK_PROVIDERS)
        if "hot_mask" not in methods and not inherits_mask:
            findings.append(
                self.violation(
                    module,
                    node,
                    f"{node.name}: SUPPORTS_BATCH_KERNEL=True but no hot_mask "
                    "is defined or inherited from the MESI family",
                )
            )
        return findings

    def finalize(
        self,
        modules: Sequence[SourceModule],
        ctx: ProjectContext,
        classdb: ClassDb,
    ) -> List[Violation]:
        # Semantic cross-check against the live package: only meaningful
        # when the real engines are part of the run.
        linted = {module.relpath for module in modules}
        if "src/repro/sim/columnar.py" not in linted:
            return []
        findings: List[Violation] = []
        from repro.sim import columnar
        from repro.sim.simulator import PROTOCOLS

        n_codes = len(columnar.CODE_KIND)
        if n_codes != 104:
            findings.append(
                Violation(
                    path="src/repro/sim/columnar.py",
                    line=1,
                    col=0,
                    code=self.code,
                    symbol=self.symbol,
                    message=(
                        f"type-code table has {n_codes} entries, expected 104 — "
                        "update the documented layout and every consumer together"
                    ),
                )
            )
        known_kinds = {
            columnar.KIND_LOAD,
            columnar.KIND_STORE,
            columnar.KIND_ATOMIC,
            columnar.KIND_COMMUTATIVE,
            columnar.KIND_REMOTE,
        }
        bad_codes = [
            code
            for code in range(n_codes)
            if int(columnar.CODE_KIND[code]) not in known_kinds
        ]
        if bad_codes:
            findings.append(
                Violation(
                    path="src/repro/sim/columnar.py",
                    line=1,
                    col=0,
                    code=self.code,
                    symbol=self.symbol,
                    message=(
                        f"type codes {bad_codes} map to no known access kind — "
                        "hot_mask could misclassify them"
                    ),
                )
            )
        for name, protocol_cls in sorted(PROTOCOLS.items()):
            if not getattr(protocol_cls, "SUPPORTS_BATCH_KERNEL", False):
                continue
            problems = []
            if not callable(getattr(protocol_cls, "hot_mask", None)):
                problems.append("lacks a callable hot_mask")
            folding = getattr(protocol_cls, "HOT_COMMUTATIVE", None)
            if folding not in HOT_COMMUTATIVE_VALUES:
                problems.append(f"illegal HOT_COMMUTATIVE={folding!r}")
            if folding == "local" and not callable(
                getattr(protocol_cls, "batch_uop_code", None)
            ):
                problems.append("local folding without batch_uop_code")
            if problems:
                findings.append(
                    Violation(
                        path=_module_relpath(protocol_cls),
                        line=1,
                        col=0,
                        code=self.code,
                        symbol=self.symbol,
                        message=(
                            f"protocol {name} ({protocol_cls.__name__}) violates "
                            f"the batch contract: {'; '.join(problems)}"
                        ),
                    )
                )
        return findings


def _module_relpath(cls: type) -> str:
    return "src/" + cls.__module__.replace(".", "/") + ".py"


class StateAlphabetRule(Rule):
    """P203: engines may only name states in their declared alphabet.

    ``rmo.py`` and ``mesi.py`` implement MESI-family semantics and must not
    grow references to COUP's ``UPDATE`` state (the private-hit rules that
    serve MEUSI's U lines live in ``CoherenceProtocol.make_step``);
    ``meusi.py`` may use the full alphabet.
    """

    code = "P203"
    symbol = "state-alphabet"
    description = (
        "each protocol engine module may only reference StableState members "
        "in its declared alphabet"
    )

    def applies(self, relpath: str) -> bool:
        return relpath in ENGINE_STATE_ALPHABET

    def check(self, module: SourceModule, ctx: ProjectContext) -> List[Violation]:
        alphabet = ENGINE_STATE_ALPHABET[module.relpath]
        members = ctx.enum_members.get("StableState", frozenset())
        findings: List[Violation] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "StableState"
                and node.attr in members
                and node.attr.isupper()
                and node.attr not in alphabet
            ):
                findings.append(
                    self.violation(
                        module,
                        node,
                        f"StableState.{node.attr} is outside this engine's "
                        f"alphabet {{{', '.join(sorted(alphabet))}}}",
                    )
                )
        return findings
