"""Cross-module class database for the hot-path hygiene rules.

``H302`` (no attribute creation outside ``__init__``) must know every
attribute a class *declares* — including attributes declared by base
classes in other modules (``MesiProtocol`` extends ``CoherenceProtocol``
across files).  This module builds a small symbol table from the parsed
ASTs of every file in the lint run: per class, its declared attribute
names, base-class references (resolved through the module's imports), and
slots/dataclass facts for ``H301``.

Bases that cannot be resolved inside the run are split into two groups:
*opaque-but-known* bases (``object``, ``abc.ABC``, ``Exception``, enums,
``Protocol`` …) contribute no attributes and keep the class checkable;
anything else unresolvable makes the class exempt from H302 (we cannot
prove an assignment creates a new attribute).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

#: Base names that are well-known attribute-free (for our purposes) roots.
OPAQUE_BASES: frozenset = frozenset(
    {
        "object",
        "ABC",
        "abc.ABC",
        "Exception",
        "ValueError",
        "RuntimeError",
        "KeyError",
        "TypeError",
        "Enum",
        "enum.Enum",
        "IntEnum",
        "enum.IntEnum",
        "Protocol",
        "typing.Protocol",
        "Generic",
        "typing.Generic",
        "NamedTuple",
        "typing.NamedTuple",
    }
)


@dataclass(slots=True)
class ClassInfo:
    """Statically-derived facts about one class definition."""

    module: str
    name: str
    lineno: int
    #: Base references as written (dotted where attribute access is used).
    bases: List[str] = field(default_factory=list)
    #: Attribute names declared by this class alone (slots, class-level
    #: assignments / annotations, and ``self.X`` in ``__init__`` family).
    declared: Set[str] = field(default_factory=set)
    #: ``self.X = ...`` assignments outside the init family: (attr, line).
    late_assignments: List[Tuple[str, int]] = field(default_factory=list)
    has_slots: bool = False
    is_dataclass: bool = False
    dataclass_slots: bool = False
    is_enum: bool = False
    is_exception: bool = False
    is_protocol_or_abc: bool = False
    is_namedtuple: bool = False


#: Methods whose ``self.X = ...`` assignments count as declarations.
INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__init_subclass__"})


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr_targets(node: ast.stmt, self_name: str) -> List[Tuple[str, int]]:
    """``self.X`` attribute names assigned by one statement."""
    found: List[Tuple[str, int]] = []
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    for target in targets:
        for leaf in _flatten_targets(target):
            if (
                isinstance(leaf, ast.Attribute)
                and isinstance(leaf.value, ast.Name)
                and leaf.value.id == self_name
            ):
                found.append((leaf.attr, leaf.lineno))
    return found


def _flatten_targets(target: ast.expr) -> List[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        flat: List[ast.expr] = []
        for element in target.elts:
            flat.extend(_flatten_targets(element))
        return flat
    if isinstance(target, ast.Starred):
        return _flatten_targets(target.value)
    return [target]


def _slot_names(value: ast.expr) -> Set[str]:
    names: Set[str] = set()
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.add(element.value)
    elif isinstance(value, ast.Constant) and isinstance(value.value, str):
        names.add(value.value)
    return names


def class_info(node: ast.ClassDef, module: str) -> ClassInfo:
    """Extract :class:`ClassInfo` from one ``ClassDef``."""
    info = ClassInfo(module=module, name=node.name, lineno=node.lineno)
    for base in node.bases:
        ref = _dotted(base)
        if ref is not None:
            info.bases.append(ref)
            tail = ref.rsplit(".", 1)[-1]
            if tail.endswith(("Enum", "Flag")):
                info.is_enum = True
            if tail.endswith(("Exception", "Error", "Warning")) or tail in (
                "BaseException",
            ):
                info.is_exception = True
            if tail in ("Protocol", "ABC"):
                info.is_protocol_or_abc = True
            if tail == "NamedTuple":
                info.is_namedtuple = True
        else:
            info.bases.append("<expr>")
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        ref = _dotted(target) or ""
        if ref.rsplit(".", 1)[-1] == "dataclass":
            info.is_dataclass = True
            if isinstance(decorator, ast.Call):
                for keyword in decorator.keywords:
                    if (
                        keyword.arg == "slots"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        info.dataclass_slots = True

    for statement in node.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    info.declared.add(target.id)
                    if target.id == "__slots__":
                        info.has_slots = True
                        info.declared |= _slot_names(statement.value)
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            info.declared.add(statement.target.id)
            if statement.target.id == "__slots__":
                info.has_slots = True
                if statement.value is not None:
                    info.declared |= _slot_names(statement.value)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.declared.add(statement.name)
            if not statement.args.args:
                continue
            self_name = statement.args.args[0].arg
            in_init = statement.name in INIT_METHODS
            for child in ast.walk(statement):
                if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    for attr, line in _self_attr_targets(child, self_name):
                        if in_init:
                            info.declared.add(attr)
                        else:
                            info.late_assignments.append((attr, line))
    return info


class ClassDb:
    """All classes in a lint run, indexed for base-chain resolution."""

    def __init__(self) -> None:
        #: (module_dotted_name, class_name) -> ClassInfo
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        #: module_dotted_name -> {local_name: imported_dotted_target}
        self.imports: Dict[str, Dict[str, str]] = {}

    @staticmethod
    def module_name(relpath: str) -> str:
        """Dotted module name for a repo-relative path (best effort)."""
        path = relpath
        if path.endswith(".py"):
            path = path[: -len(".py")]
        if path.endswith("/__init__"):
            path = path[: -len("/__init__")]
        if path.startswith("src/"):
            path = path[len("src/") :]
        return path.replace("/", ".")

    def add_module(self, relpath: str, tree: ast.AST) -> None:
        module = self.module_name(relpath)
        imports: Dict[str, str] = self.imports.setdefault(module, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    imports[local] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                info = class_info(node, module)
                self.classes[(module, node.name)] = info

    def resolve_base(self, module: str, base_ref: str) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` a base reference points at, if in the run."""
        # Same-module class?
        info = self.classes.get((module, base_ref))
        if info is not None:
            return info
        head, _, tail = base_ref.partition(".")
        imported = self.imports.get(module, {}).get(head)
        if imported is None:
            return None
        dotted = imported if not tail else f"{imported}.{tail}"
        owner, _, cls = dotted.rpartition(".")
        return self.classes.get((owner, cls))

    def declared_attrs(self, info: ClassInfo) -> Optional[Set[str]]:
        """Attributes declared by ``info`` and its resolvable base chain.

        Returns ``None`` when a base cannot be resolved (and is not a
        well-known opaque root) — the caller must skip the class.
        """
        declared: Set[str] = set()
        seen: Set[Tuple[str, str]] = set()
        stack: List[ClassInfo] = [info]
        while stack:
            current = stack.pop()
            key = (current.module, current.name)
            if key in seen:
                continue
            seen.add(key)
            declared |= current.declared
            for base_ref in current.bases:
                if base_ref in OPAQUE_BASES or base_ref.rsplit(".", 1)[-1] in (
                    "ABC",
                    "object",
                ):
                    continue
                resolved = self.resolve_base(current.module, base_ref)
                if resolved is None:
                    return None
                stack.append(resolved)
        return declared
