"""Unit-safety rules (REPRO6xx): dimensional analysis over the dataflow
framework.

The paper's formula ``B = RTT·C/sqrt(n)`` mixes seconds, bits/second,
and packet counts, and the reproduction threads all of them as bare
floats.  These rules taint values at the well-known unit sources in
:mod:`repro.units` —

====================  =========================
``parse_time``        seconds
``parse_bandwidth``   bits · second⁻¹
``parse_size``        bytes
``bits``              bits
``bytes_``            bytes
====================  =========================

— then run a forward dataflow over each function's CFG, propagating a
dimension-exponent vector per local variable (and, class-locally, per
``self.`` attribute assigned a consistent dimension).  Return
dimensions are summarised per function and iterated to a fixpoint over
the call graph, so taint crosses call boundaries: a helper returning
``parse_bandwidth(...)`` taints its callers' locals.

Checked hazards:

* **REPRO601** — ``+``/``-`` between different dimensions
  (``rtt + capacity``).
* **REPRO602** — comparison between different dimensions.
* **REPRO603** — converter applied to the wrong dimension:
  ``bits(x)`` expects bytes, ``bytes_(x)`` expects bits, and the
  ``parse_*`` sources expect un-dimensioned input (re-parsing an
  already-converted value is the classic double-conversion bug).

Numeric literals are dimensionless scale factors (``x * 1e6`` keeps
``x``'s dimension; ``x + 1`` is always allowed), with one idiom
special-cased: multiplying by a literal ``8`` converts bytes→bits and
dividing by ``8`` converts bits→bytes, which keeps the canonical
``rtt_s * cap / 8.0`` sizing expression clean.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.cfg import build_cfg
from repro.analysis.context import FileContext, Project
from repro.analysis.dataflow import ForwardAnalysis, solve
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, register

# Dimension = exponents over (bit, byte, second, packet).
Dim = Tuple[int, int, int, int]

BIT: Dim = (1, 0, 0, 0)
BYTE: Dim = (0, 1, 0, 0)
SECOND: Dim = (0, 0, 1, 0)
PACKET: Dim = (0, 0, 0, 1)
BITS_PER_SECOND: Dim = (1, 0, -1, 0)

#: Dimensionless numeric literal — compatible with everything.
LITERAL = "literal"

_BASE_NAMES = ("bit", "byte", "s", "pkt")

#: Return dimension of each unit source in :mod:`repro.units`.
SOURCE_DIMS: Dict[str, Dim] = {
    "parse_time": SECOND,
    "parse_bandwidth": BITS_PER_SECOND,
    "parse_size": BYTE,
    "bits": BIT,
    "bytes_": BYTE,
}

#: Expected *input* dimension of each converter (None = expects an
#: un-dimensioned value, e.g. a spec string).
CONVERTER_INPUT: Dict[str, Optional[Dim]] = {
    "parse_time": None,
    "parse_bandwidth": None,
    "parse_size": None,
    "bits": BYTE,
    "bytes_": BIT,
}


def fmt_dim(dim: Dim) -> str:
    """Human-readable dimension, e.g. ``bit*s^-1`` or ``byte``."""
    parts = []
    for name, exp in zip(_BASE_NAMES, dim):
        if exp == 0:
            continue
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def _is_lit8(node: ast.expr) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value in (8, 8.0))


def _mul(a: Dim, b: Dim) -> Dim:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _div(a: Dim, b: Dim) -> Dim:
    return tuple(x - y for x, y in zip(a, b))  # type: ignore[return-value]


def _byte_to_bit(dim: Dim) -> Dim:
    bit, byte, sec, pkt = dim
    return (bit + byte, 0, sec, pkt)


def _bit_to_byte(dim: Dim) -> Dim:
    bit, byte, sec, pkt = dim
    return (0, byte + bit, sec, pkt)


def _source_name(func: ast.expr) -> Optional[str]:
    """Unit-source name when the call target is one, however spelled."""
    if isinstance(func, ast.Name) and func.id in SOURCE_DIMS:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in SOURCE_DIMS:
        return func.attr
    return None


# A violation report: (line, col, rule_id, message).
Report = Tuple[int, int, str, str]


class _Evaluator:
    """Evaluates expression dimensions and collects violations."""

    def __init__(self, table, mod, enclosing, summaries: Dict[str, object],
                 attr_dims: Dict[str, object],
                 report: Optional[Callable[[Report], None]]) -> None:
        self.table = table
        self.mod = mod
        self.enclosing = enclosing
        self.summaries = summaries
        self.attr_dims = attr_dims
        self.report = report

    def _emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        if self.report is not None:
            self.report((node.lineno, node.col_offset, rule_id, message))

    def eval(self, node: ast.expr, state: Dict[str, Dim]):
        """Dimension of ``node``: a Dim tuple, LITERAL, or None."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                    node.value, (int, float)):
                return None
            return LITERAL
        if isinstance(node, ast.Name):
            return state.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.attr_dims.get(node.attr)
            self.eval(node.value, state)
            return None
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, state)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, state)
        if isinstance(node, ast.Compare):
            self._eval_compare(node, state)
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value, state)
            return None
        if isinstance(node, ast.IfExp):
            self.eval(node.test, state)
            a = self.eval(node.body, state)
            b = self.eval(node.orelse, state)
            return a if a == b else None
        if isinstance(node, ast.NamedExpr):
            return self.eval(node.value, state)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, state)
        return None

    def _eval_binop(self, node: ast.BinOp, state: Dict[str, Dim]):
        left = self.eval(node.left, state)
        right = self.eval(node.right, state)
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            if (isinstance(left, tuple) and isinstance(right, tuple)
                    and left != right):
                self._emit(
                    node, "REPRO601",
                    f"arithmetic mixes incompatible dimensions: "
                    f"{fmt_dim(left)} {'+'if isinstance(op, ast.Add) else '-'}"
                    f" {fmt_dim(right)} — insert an explicit converter "
                    f"(bits()/bytes_()) or document with a noqa")
                return None
            if isinstance(left, tuple):
                return left
            if isinstance(right, tuple):
                return right
            if left is LITERAL and right is LITERAL:
                return LITERAL
            return None
        if isinstance(op, ast.Mult):
            if _is_lit8(node.right) and isinstance(left, tuple):
                return _byte_to_bit(left)
            if _is_lit8(node.left) and isinstance(right, tuple):
                return _byte_to_bit(right)
            if isinstance(left, tuple) and isinstance(right, tuple):
                return _mul(left, right)
            if isinstance(left, tuple) and right is LITERAL:
                return left
            if isinstance(right, tuple) and left is LITERAL:
                return right
            if left is LITERAL and right is LITERAL:
                return LITERAL
            return None
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if _is_lit8(node.right) and isinstance(left, tuple):
                return _bit_to_byte(left)
            if isinstance(left, tuple) and isinstance(right, tuple):
                return _div(left, right)
            if isinstance(left, tuple) and right is LITERAL:
                return left
            if left is LITERAL and isinstance(right, tuple):
                return _div((0, 0, 0, 0), right)
            if left is LITERAL and right is LITERAL:
                return LITERAL
            return None
        return None

    def _eval_compare(self, node: ast.Compare,
                      state: Dict[str, Dim]) -> None:
        dims = [self.eval(node.left, state)]
        dims.extend(self.eval(c, state) for c in node.comparators)
        for a, b in zip(dims, dims[1:]):
            if isinstance(a, tuple) and isinstance(b, tuple) and a != b:
                self._emit(
                    node, "REPRO602",
                    f"comparison mixes incompatible dimensions: "
                    f"{fmt_dim(a)} vs {fmt_dim(b)} — convert both sides "
                    f"to one unit first")

    def _eval_call(self, node: ast.Call, state: Dict[str, Dim]):
        for arg in node.args:
            self.eval(arg, state)
        for kw in node.keywords:
            self.eval(kw.value, state)
        source = _source_name(node.func)
        if source is not None:
            expected = CONVERTER_INPUT[source]
            if node.args:
                actual = self.eval(node.args[0], state)
                if isinstance(actual, tuple):
                    if expected is None:
                        self._emit(
                            node, "REPRO603",
                            f"{source}() applied to a value already "
                            f"carrying dimension {fmt_dim(actual)} — "
                            f"double conversion")
                    elif actual != expected:
                        self._emit(
                            node, "REPRO603",
                            f"{source}() expects {fmt_dim(expected)} but "
                            f"its argument carries {fmt_dim(actual)}")
            return SOURCE_DIMS[source]
        if self.table is not None and self.mod is not None:
            callee = self.table.resolve_call(node.func, self.mod,
                                             self.enclosing)
            if callee is not None:
                dim = self.summaries.get(callee.qualname)
                if isinstance(dim, tuple):
                    return dim
        return None


def _header_killed(stmt: ast.stmt) -> List[str]:
    """Names (re)bound by a compound header (For target, walrus in test)."""
    names: List[str] = []
    targets: List[ast.expr] = []
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets.append(stmt.target)
        scan: List[ast.expr] = [stmt.iter]
    elif isinstance(stmt, (ast.If, ast.While)):
        scan = [stmt.test]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        scan = [item.context_expr for item in stmt.items]
        for item in stmt.items:
            if item.optional_vars is not None:
                targets.append(item.optional_vars)
    else:
        scan = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
    for expr in scan:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.NamedExpr) and isinstance(
                    sub.target, ast.Name):
                names.append(sub.target.id)
    return names


class _UnitAnalysis(ForwardAnalysis):
    """var -> Dim forward taint; join keeps agreeing entries only."""

    def __init__(self, evaluator: _Evaluator) -> None:
        self.ev = evaluator

    def initial_state(self) -> Dict[str, Dim]:
        return {}

    def join(self, states):
        first = states[0]
        merged = {}
        for name, dim in first.items():
            if all(s.get(name) == dim for s in states[1:]):
                merged[name] = dim
        return merged

    def transfer(self, stmt: ast.stmt, state):
        new = dict(state)
        ev = self.ev
        if isinstance(stmt, ast.Assign):
            dim = ev.eval(stmt.value, new)
            for target in stmt.targets:
                self._bind(target, stmt.value, dim, new)
            return new
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                dim = ev.eval(stmt.value, new)
                self._bind(stmt.target, stmt.value, dim, new)
            return new
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                synth = ast.BinOp(left=ast.Name(id=stmt.target.id,
                                                ctx=ast.Load()),
                                  op=stmt.op, right=stmt.value)
                ast.copy_location(synth, stmt)
                ast.fix_missing_locations(synth)
                dim = ev.eval(synth, new)
                if isinstance(dim, tuple):
                    new[stmt.target.id] = dim
                else:
                    new.pop(stmt.target.id, None)
            else:
                ev.eval(stmt.value, new)
            return new
        if isinstance(stmt, (ast.If, ast.While, ast.For, ast.AsyncFor,
                             ast.With, ast.AsyncWith)):
            for expr in _header_exprs(stmt):
                ev.eval(expr, new)
            for name in _header_killed(stmt):
                new.pop(name, None)
            return new
        if isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                ev.eval(stmt.value, new)
            return new
        if isinstance(stmt, ast.Expr):
            ev.eval(stmt.value, new)
            return new
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new.pop(target.id, None)
            return new
        return new

    def _bind(self, target: ast.expr, value: ast.expr, dim, state) -> None:
        if isinstance(target, ast.Name):
            if isinstance(dim, tuple):
                state[target.id] = dim
            else:
                state.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            elems = list(target.elts)
            values = (list(value.elts) if isinstance(
                value, (ast.Tuple, ast.List))
                and len(value.elts) == len(elems) else None)
            for i, elem in enumerate(elems):
                if values is not None:
                    self._bind(elem, values[i],
                               self.ev.eval(values[i], state), state)
                else:
                    for sub in ast.walk(elem):
                        if isinstance(sub, ast.Name):
                            state.pop(sub.id, None)


def _header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    return []


class _ProjectUnits:
    """Whole-project unit context: summaries + per-class attr dims."""

    def __init__(self, project: Project) -> None:
        self.table = project.symbols
        #: qualname -> Dim | None (return dimension when consistent).
        self.summaries: Dict[str, object] = {}
        #: "module.Class.attr" -> Dim for self-attrs with a consistent
        #: source-derived dimension across the whole class.
        self.class_attr_dims: Dict[str, Dict[str, Dim]] = {}
        # Two fixpoint passes: pass 1 seeds return dims from direct
        # sources; pass 2 propagates through one level of helpers (deep
        # chains converge because summaries only grow).
        for _ in range(3):
            changed = self._pass()
            if not changed:
                break
        self._collect_attr_dims()

    def _function_dims(self, info) -> object:
        mod = self.table.modules.get(info.module)
        ev = _Evaluator(self.table, mod, info, self.summaries,
                        self._attr_dims_for(info), None)
        analysis = _UnitAnalysis(ev)
        cfg = build_cfg(info.node)
        in_states, _ = solve(cfg, analysis)
        dims = set()
        for node in cfg.statement_nodes():
            if not isinstance(node.stmt, ast.Return):
                continue
            state = in_states[node.index]
            if state is None:
                continue
            if node.stmt.value is None:
                return None
            dims.add(ev.eval(node.stmt.value, state))
        if len(dims) == 1:
            only = dims.pop()
            return only if isinstance(only, tuple) else None
        return None

    def _pass(self) -> bool:
        changed = False
        for info in self.table.functions():
            dim = self._function_dims(info)
            if isinstance(dim, tuple) and self.summaries.get(
                    info.qualname) != dim:
                self.summaries[info.qualname] = dim
                changed = True
        return changed

    def _attr_dims_for(self, info) -> Dict[str, Dim]:
        if info.cls_name is None:
            return {}
        return self.class_attr_dims.get(
            f"{info.module}.{info.cls_name}", {})

    def _collect_attr_dims(self) -> None:
        for mod in self.table.modules.values():
            for cls in mod.classes.values():
                dims: Dict[str, object] = {}
                for method in cls.methods.values():
                    ev = _Evaluator(self.table, mod, method,
                                    self.summaries, {}, None)
                    for stmt in ast.walk(method.node):
                        if not isinstance(stmt, ast.Assign):
                            continue
                        for target in stmt.targets:
                            if (isinstance(target, ast.Attribute)
                                    and isinstance(target.value, ast.Name)
                                    and target.value.id == "self"):
                                dim = ev.eval(stmt.value, {})
                                prev = dims.get(target.attr, "unset")
                                if prev == "unset":
                                    dims[target.attr] = dim
                                elif prev != dim:
                                    dims[target.attr] = None
                consistent = {attr: dim for attr, dim in dims.items()
                              if isinstance(dim, tuple)}
                if consistent:
                    self.class_attr_dims[
                        f"{mod.name}.{cls.name}"] = consistent


def get_project_units(project: Project) -> _ProjectUnits:
    """Shared per-project unit analysis (built once, cached on it)."""
    cached = getattr(project, "_units_cache", None)
    if cached is None:
        cached = _ProjectUnits(project)
        project._units_cache = cached  # type: ignore[attr-defined]
    return cached


def _file_reports(project: Project, ctx: FileContext) -> List[Report]:
    """All REPRO6xx violations in ``ctx`` (computed once per file)."""
    cache = getattr(project, "_units_reports", None)
    if cache is None:
        cache = {}
        project._units_reports = cache  # type: ignore[attr-defined]
    if ctx.path in cache:
        return cache[ctx.path]
    units = get_project_units(project)
    table = units.table
    mod = table.module_for(ctx)
    reports: List[Report] = []
    seen = set()

    def report(item: Report) -> None:
        key = item[:3]
        if key not in seen:
            seen.add(key)
            reports.append(item)

    if mod is not None:
        for info in table.functions():
            if info.module != mod.name or info.ctx is not ctx:
                continue
            ev = _Evaluator(table, mod, info, units.summaries,
                            units._attr_dims_for(info), report)
            analysis = _UnitAnalysis(ev)
            cfg = build_cfg(info.node)
            in_states, _ = solve(cfg, analysis)
            for node in cfg.statement_nodes():
                state = in_states[node.index]
                if state is None:
                    continue
                analysis.transfer(node.stmt, state)
    reports.sort(key=lambda r: (r[0], r[1], r[2]))
    cache[ctx.path] = reports
    return reports


class _UnitRuleBase(Rule):
    """Shared plumbing: pick this rule's id out of the family reports."""

    severity = Severity.ERROR

    def check_file(self, ctx: FileContext,
                   project: Project) -> Iterable[Diagnostic]:
        return [self.diag(ctx, line, col, message)
                for line, col, rule_id, message
                in _file_reports(project, ctx)
                if rule_id == self.id]


@register
class DimensionArithmeticRule(_UnitRuleBase):
    id = "REPRO601"
    summary = ("addition/subtraction mixes values of different physical "
               "dimensions (bits/bytes/seconds/packets) without a "
               "converter")


@register
class DimensionComparisonRule(_UnitRuleBase):
    id = "REPRO602"
    summary = ("comparison between values of different physical "
               "dimensions — convert both sides to one unit first")


@register
class DoubleConversionRule(_UnitRuleBase):
    id = "REPRO603"
    summary = ("unit converter applied to a value of the wrong dimension "
               "(bits() expects bytes, bytes_() expects bits, parse_* "
               "expect un-dimensioned specs)")
