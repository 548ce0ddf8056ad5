"""Shared AST helpers for the rule implementations."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(slots=True)
class ImportMap:
    """Which local names are bound to which modules/objects in one file."""

    #: Local names bound to whole modules: ``{"np": "numpy", "time": "time"}``.
    modules: Dict[str, str] = field(default_factory=dict)
    #: Local names bound via ``from m import x [as y]``: ``{"y": ("m", "x")}``.
    objects: Dict[str, tuple] = field(default_factory=dict)

    def object_origin(self, local: str) -> Optional[tuple]:
        """``(module, original_name)`` if ``local`` was from-imported."""
        return self.objects.get(local)


def build_import_map(tree: ast.AST) -> ImportMap:
    imports = ImportMap()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                # ``import numpy.random`` binds ``numpy``; record the root.
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                imports.modules[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                imports.objects[local] = (node.module, alias.name)
    return imports


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call, imports: ImportMap) -> Optional[str]:
    """Fully-qualified dotted name of a call target, resolved via imports.

    ``np.random.default_rng(...)`` -> ``numpy.random.default_rng`` when
    ``np`` is bound to numpy; ``perf_counter()`` -> ``time.perf_counter``
    when from-imported.  ``None`` when the target is not a plain chain.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    return resolve_dotted(dotted, imports)


def resolve_dotted(dotted: str, imports: ImportMap) -> str:
    """Expand the leading segment of a dotted chain through the imports."""
    head, _, tail = dotted.partition(".")
    origin = imports.object_origin(head)
    if origin is not None:
        module, original = origin
        base = f"{module}.{original}"
        return f"{base}.{tail}" if tail else base
    module_target = imports.modules.get(head)
    if module_target is not None:
        return f"{module_target}.{tail}" if tail else module_target
    return dotted


def iteration_targets(tree: ast.AST):
    """Yield every expression that is directly iterated (for / comprehension)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter
