"""Shared AST helpers: name resolution, import aliases, assignments.

Small, rule-agnostic queries over :mod:`ast` trees that more than one
rule family needs: rendering dotted attribute chains, resolving the
names a module is imported under, and reading assignment targets and
literal ``__slots__`` tuples.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains as a string; None for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names by which ``module`` is importable in this file.

    Covers ``import random``, ``import random as rnd`` and — for
    submodule imports like ``import time as _wallclock`` — the bound
    alias.  ``from x import y`` bindings are *not* module aliases; use
    :func:`imported_names` for those.
    """
    aliases: Set[str] = set()
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for item in stmt.names:
                if item.name == module or item.name.startswith(module + "."):
                    if item.asname is not None:
                        aliases.add(item.asname)
                    else:
                        aliases.add(item.name.split(".")[0])
    return aliases


def imported_names(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local-name -> original-name map of ``from module import ...`` bindings."""
    bound: Dict[str, str] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == module:
            for item in stmt.names:
                bound[item.asname or item.name] = item.name
    return bound


def assign_targets(stmt: ast.stmt) -> List[ast.expr]:
    """Assignment targets of Assign/AugAssign/AnnAssign (empty otherwise)."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def is_self_attr_store(target: ast.expr, owner: str = "self") -> Optional[str]:
    """Attribute name when ``target`` is ``<owner>.<attr>``, else None."""
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == owner):
        return target.attr
    return None


def literal_str_tuple(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """Evaluate a tuple/list of string literals (``__slots__`` values).

    Returns None when the expression is anything else (dynamic slots are
    out of scope for static checking).  A single string is one slot.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if isinstance(node, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.append(elt.value)
            else:
                return None
        return tuple(names)
    return None
