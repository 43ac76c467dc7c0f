"""Module-level symbol table over the linted file set.

The whole-program pool checker (REPRO501) needs to answer "which
function does this call expression refer to?".  This module builds the
index it uses: every module in the linted
:class:`~repro.analysis.context.Project` is reduced to its top-level
functions, classes (with methods and base classes), and import
bindings, keyed by a dotted module name derived
from the file path — ``repro/net/link.py`` becomes ``repro.net.link``
both in the real tree and in the mirrored fixture trees the tests use.

Resolution is deliberately *static and partial*: a call that cannot be
resolved to a single definition in the file set resolves to ``None``,
so a rule never follows an edge it is not sure of.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleSymbols",
    "SymbolTable",
    "module_name_for_path",
]


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


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    Anchored at the last path component named ``repro`` so fixture
    mirrors under ``tmp/.../repro/<pkg>/`` resolve identically to the
    real tree.  Paths outside any ``repro`` directory fall back to the
    file stem, which keeps single-file lints functional.
    """
    parts = [p for p in path.replace("\\", "/").split("/") if p]
    anchor = -1
    for i, part in enumerate(parts[:-1]):
        if part == "repro":
            anchor = i
    if anchor < 0:
        anchor = len(parts) - 1
    dotted = list(parts[anchor:])
    last = dotted[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        dotted.pop()
    else:
        dotted[-1] = last
    return ".".join(dotted) if dotted else last


class FunctionInfo:
    """One function or method definition in the file set."""

    __slots__ = ("qualname", "module", "cls_name", "name", "node", "ctx",
                 "params", "nested")

    def __init__(self, qualname: str, module: str, cls_name: Optional[str],
                 name: str, node: ast.FunctionDef, ctx) -> None:
        self.qualname = qualname
        self.module = module
        self.cls_name = cls_name
        self.name = name
        self.node = node
        self.ctx = ctx
        args = node.args
        self.params: Tuple[str, ...] = tuple(
            a.arg for a in
            (list(args.posonlyargs) + list(args.args)))
        #: Functions defined inside this one, by name.
        self.nested: Dict[str, "FunctionInfo"] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname})"


class ClassInfo:
    """One top-level class definition: methods plus base-class names."""

    __slots__ = ("name", "module", "node", "bases", "methods")

    def __init__(self, name: str, module: str, node: ast.ClassDef) -> None:
        self.name = name
        self.module = module
        self.node = node
        #: Dotted base expressions as written (``Queue``, ``base.Queue``).
        self.bases: Tuple[str, ...] = tuple(
            b for b in (dotted_name(base) for base in node.bases)
            if b is not None)
        self.methods: Dict[str, FunctionInfo] = {}


class ModuleSymbols:
    """Symbols of one parsed module."""

    __slots__ = ("name", "ctx", "functions", "classes", "import_aliases",
                 "from_imports")

    def __init__(self, name: str, ctx) -> None:
        self.name = name
        self.ctx = ctx
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: local alias -> module dotted path (``import x.y as z``).
        self.import_aliases: Dict[str, str] = {}
        #: local name -> (module, original name) for ``from m import n``.
        self.from_imports: Dict[str, Tuple[str, str]] = {}


def _collect_nested(owner: FunctionInfo, table: "SymbolTable") -> None:
    for stmt in ast.walk(owner.node):
        if stmt is owner.node or not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(stmt, ast.FunctionDef):
            continue
        qual = f"{owner.qualname}.{stmt.name}"
        info = FunctionInfo(qual, owner.module, owner.cls_name, stmt.name,
                            stmt, owner.ctx)
        owner.nested[stmt.name] = info
        table.by_qualname.setdefault(qual, info)


class SymbolTable:
    """Index of every module in the linted file set."""

    def __init__(self, files: List) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        self.by_qualname: Dict[str, FunctionInfo] = {}
        for ctx in files:
            if ctx.tree is None:
                continue
            self._index_module(ctx)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_module(self, ctx) -> None:
        name = module_name_for_path(ctx.path)
        mod = ModuleSymbols(name, ctx)
        self.modules[name] = mod
        assert ctx.tree is not None
        for stmt in ast.walk(ctx.tree):
            if isinstance(stmt, ast.Import):
                for item in stmt.names:
                    local = item.asname or item.name.split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    mod.import_aliases[local] = target
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for item in stmt.names:
                    mod.from_imports[item.asname or item.name] = (
                        stmt.module, item.name)
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef):
                info = FunctionInfo(f"{name}.{node.name}", name, None,
                                    node.name, node, ctx)
                mod.functions[node.name] = info
                self.by_qualname[info.qualname] = info
                _collect_nested(info, self)
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(node.name, name, node)
                mod.classes[node.name] = cls
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        info = FunctionInfo(
                            f"{name}.{node.name}.{sub.name}", name,
                            node.name, sub.name, sub, ctx)
                        cls.methods[sub.name] = info
                        self.by_qualname[info.qualname] = info
                        _collect_nested(info, self)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def module_for(self, ctx) -> Optional[ModuleSymbols]:
        """Symbols of the module backing ``ctx`` (by derived name)."""
        return self.modules.get(module_name_for_path(ctx.path))

    def functions(self) -> Iterator[FunctionInfo]:
        """Every indexed function/method (stable order)."""
        for qual in sorted(self.by_qualname):
            yield self.by_qualname[qual]

    def find_class(self, module: str, name: str) -> Optional[ClassInfo]:
        mod = self.modules.get(module)
        return mod.classes.get(name) if mod else None

    def class_method(self, cls: ClassInfo,
                     name: str) -> Optional[FunctionInfo]:
        """Resolve a method on ``cls`` or its statically-known bases."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self._resolve_class_name(
                    self.modules.get(current.module), base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def _resolve_class_name(self, mod: Optional[ModuleSymbols],
                            dotted: str) -> Optional[ClassInfo]:
        if mod is None:
            return None
        parts = dotted.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in mod.classes:
                return mod.classes[name]
            if name in mod.from_imports:
                src_mod, orig = mod.from_imports[name]
                return self.find_class(src_mod, orig)
            return None
        head, rest = parts[0], parts[1:]
        if head in mod.import_aliases and len(rest) == 1:
            return self.find_class(mod.import_aliases[head], rest[0])
        return None

    def resolve_call(self, func_expr: ast.expr, mod: ModuleSymbols,
                     enclosing: Optional[FunctionInfo] = None
                     ) -> Optional[FunctionInfo]:
        """Strict resolution of a call target; None when unknown.

        Handles: local and imported functions, nested functions of the
        enclosing def, ``self.method`` (including inherited methods),
        ``module.function`` through import aliases, and class
        constructors (resolved to ``__init__``).
        """
        if isinstance(func_expr, ast.Name):
            name = func_expr.id
            if enclosing is not None and name in enclosing.nested:
                return enclosing.nested[name]
            if name in mod.functions:
                return mod.functions[name]
            if name in mod.classes:
                return mod.classes[name].methods.get("__init__")
            if name in mod.from_imports:
                src_mod, orig = mod.from_imports[name]
                target = self.modules.get(src_mod)
                if target is not None:
                    if orig in target.functions:
                        return target.functions[orig]
                    if orig in target.classes:
                        return target.classes[orig].methods.get("__init__")
            return None
        if isinstance(func_expr, ast.Attribute):
            base = func_expr.value
            attr = func_expr.attr
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and enclosing is not None \
                        and enclosing.cls_name is not None:
                    cls = self.find_class(enclosing.module,
                                          enclosing.cls_name)
                    if cls is not None:
                        return self.class_method(cls, attr)
                    return None
                if base.id in mod.import_aliases:
                    target = self.modules.get(mod.import_aliases[base.id])
                    if target is not None:
                        if attr in target.functions:
                            return target.functions[attr]
                        if attr in target.classes:
                            return target.classes[attr].methods.get(
                                "__init__")
                    return None
                if base.id in mod.classes:
                    # ClassName.method(...) — unbound call.
                    return self.class_method(mod.classes[base.id], attr)
                if base.id in mod.from_imports:
                    src_mod, orig = mod.from_imports[base.id]
                    cls = self.find_class(src_mod, orig)
                    if cls is not None:
                        return self.class_method(cls, attr)
            dotted = dotted_name(func_expr)
            if dotted is not None:
                parts = dotted.split(".")
                # module.sub.attr through a dotted import alias.
                for split in range(len(parts) - 1, 0, -1):
                    alias = ".".join(parts[:split])
                    target_name = mod.import_aliases.get(alias)
                    if target_name is None:
                        continue
                    target = self.modules.get(target_name)
                    if target is None:
                        continue
                    rest = parts[split:]
                    if len(rest) == 1 and rest[0] in target.functions:
                        return target.functions[rest[0]]
            return None
        return None
