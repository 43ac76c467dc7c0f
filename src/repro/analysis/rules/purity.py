"""Callback-purity rules (REPRO7xx) for the burst-mode drain engine.

PR 8's burst engine has one hand-audited soundness argument: inside
``_drain_burst``, the *no-re-read* fast path — ``if head is not None
and queue.__class__ is DropTailQueue: continue`` — skips re-reading the
real backend's bound on the claim that the inline drop-tail refill runs
**no callbacks**: it cannot push real events, call ``stop()``, or
change the backend size, so the bound computed before the skip is still
valid.  That audit lives in a comment; these rules make it mechanical:

* **REPRO701** — every call reachable from a purity region (the inline
  ``__class__ is <Queue>`` fast path and the ``<head> is not None``
  refill block of a loop that contains a no-re-read skip) must be
  vetted pure: builtin/virtual-heap/container operations, or functions
  whose duck-typed call-graph closure never pushes events
  (``_push``/``schedule``/``stop``) or mutates backend state
  (``._size``/``._stopped``).  A seeded ``iface.enqueue(...)`` or
  ``sim._push(...)`` in the fast path is flagged at the call site.
* **REPRO702** — the no-re-read skip's protocol shape: the skip test
  must keep its ``is not None`` guard (deliveries run real callbacks
  and must rebound), and the loop must actually contain the
  ``rebound = True`` re-read trigger on the non-skip path.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.context import FileContext, Project
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, register

#: Trailing call names that push real events / stop the engine.
_IMPURE_CALLS = {"_push", "schedule", "stop"}
#: Attribute stores that mutate backend/engine control state.
_IMPURE_STORES = {"_stopped", "_size"}

#: Name calls always allowed in a purity region.
_PURE_NAME_CALLS = {
    "next", "len", "iter", "abs", "min", "max", "int", "float", "bool",
    "isinstance", "id", "repr",
    "_heappush", "_heappop", "_heapreplace", "_heapify",
    "heappush", "heappop", "heapreplace", "heapify",
}
#: Attribute calls (method names) always allowed: plain container ops.
_PURE_ATTR_CALLS = {
    "popleft", "pop", "append", "appendleft", "extend", "add",
    "discard", "get",
}


def _skip_conjuncts(test: ast.expr) -> Optional[Tuple[str, str, str]]:
    """Decompose a no-re-read skip test.

    Returns ``(head_name, receiver_name, class_name)`` for the full
    ``head is not None and recv.__class__ is Cls`` shape; the class
    comparison alone (guard dropped) is handled by the caller.
    """
    if not (isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)):
        return None
    head = cls = recv = None
    for value in test.values:
        got = _class_is(value)
        if got is not None:
            recv, cls = got
            continue
        if (isinstance(value, ast.Compare) and len(value.ops) == 1
                and isinstance(value.ops[0], ast.IsNot)
                and isinstance(value.left, ast.Name)
                and isinstance(value.comparators[0], ast.Constant)
                and value.comparators[0].value is None):
            head = value.left.id
    if head is not None and cls is not None and recv is not None:
        return head, recv, cls
    return None


def _class_is(expr: ast.expr) -> Optional[Tuple[str, str]]:
    """``(receiver, class_name)`` for ``recv.__class__ is Cls``."""
    if (isinstance(expr, ast.Compare) and len(expr.ops) == 1
            and isinstance(expr.ops[0], ast.Is)
            and isinstance(expr.left, ast.Attribute)
            and expr.left.attr == "__class__"
            and isinstance(expr.left.value, ast.Name)
            and isinstance(expr.comparators[0], ast.Name)):
        return expr.left.value.id, expr.comparators[0].id
    return None


def _is_skip(stmt: ast.stmt) -> bool:
    """An ``if`` that ends in ``continue`` and tests ``__class__ is``."""
    if not isinstance(stmt, ast.If) or not stmt.body:
        return False
    if not isinstance(stmt.body[-1], ast.Continue):
        return False
    for sub in ast.walk(stmt.test):
        if _class_is(sub) is not None:
            return True
    return False


def _raise_calls(root: ast.AST) -> Set[int]:
    """ids of Call nodes that are exception constructors in a raise."""
    out: Set[int] = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            out.add(id(node.exc))
    return out


def _has_impure_primitive(func_node: ast.AST) -> bool:
    """Direct event-push / backend-state mutation inside a body."""
    for node in ast.walk(func_node):
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name in _IMPURE_CALLS:
                return True
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr in _IMPURE_STORES:
                    return True
    return False


class _PurityChecker:
    """Shared scan: find drain loops, their skips, and purity regions."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._impure_cache = {}

    # -- transitive impurity over the duck call graph ------------------
    def callee_impure(self, qualname: str) -> bool:
        cached = self._impure_cache.get(qualname)
        if cached is not None:
            return cached
        graph = self.project.callgraph
        table = self.project.symbols
        self._impure_cache[qualname] = False  # break recursion cycles
        impure = False
        for reached in graph.reachable([qualname], duck=True):
            info = table.by_qualname.get(reached)
            if info is not None and _has_impure_primitive(info.node):
                impure = True
                break
        self._impure_cache[qualname] = impure
        return impure

    def loops_with_skips(self, func: ast.FunctionDef):
        """(loop, skips) pairs for loops containing a no-re-read skip."""
        for node in ast.walk(func):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            skips = [s for s in ast.walk(node) if _is_skip(s)]
            if skips:
                yield node, skips

    def purity_regions(self, loop: ast.AST,
                       skips: List[ast.If]):
        """Statement lists whose calls the skip's audit claims are pure."""
        cls_names: Set[str] = set()
        head_names: Set[str] = set()
        for skip in skips:
            for sub in ast.walk(skip.test):
                got = _class_is(sub)
                if got is not None:
                    cls_names.add(got[1])
            conj = _skip_conjuncts(skip.test)
            if conj is not None:
                head_names.add(conj[0])
        for node in ast.walk(loop):
            if not isinstance(node, ast.If) or node in skips:
                continue
            got = _class_is(node.test)
            if got is not None and got[1] in cls_names:
                yield node.body
                continue
            test = node.test
            if (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.IsNot)
                    and isinstance(test.left, ast.Name)
                    and test.left.id in head_names
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None):
                yield node.body


@register
class FastPathPurityRule(Rule):
    """REPRO701: unvetted/impure call inside a no-re-read fast path."""

    id = "REPRO701"
    summary = ("call inside a burst-drain no-re-read fast path is not "
               "vetted pure — it may push events or mutate backend "
               "state behind a stale bound")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext,
                   project: Project) -> Iterable[Diagnostic]:
        if not ctx.in_sim_scope:
            return []
        assert ctx.tree is not None
        checker = _PurityChecker(project)
        table = project.symbols
        mod = table.module_for(ctx)
        by_node = {id(info.node): info
                   for info in table.functions() if info.ctx is ctx}
        out: List[Diagnostic] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            info = by_node.get(id(func))
            for loop, skips in checker.loops_with_skips(func):
                for region in checker.purity_regions(loop, skips):
                    self._check_region(ctx, region, checker, table, mod,
                                       info, out)
        return out

    def _check_region(self, ctx, region, checker, table, mod, info,
                      out: List[Diagnostic]) -> None:
        exempt: Set[int] = set()
        for stmt in region:
            exempt |= _raise_calls(stmt)
        for stmt in region:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call) or id(node) in exempt:
                    continue
                verdict = self._vet_call(node, checker, table, mod, info)
                if verdict is not None:
                    out.append(self.diag(
                        ctx, node.lineno, node.col_offset, verdict))

    def _vet_call(self, call: ast.Call, checker, table, mod,
                  info) -> Optional[str]:
        func = call.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else "<dynamic>")
        if name in _IMPURE_CALLS:
            return (f"{name}() inside the no-re-read fast path pushes "
                    f"events or stops the engine behind a stale bound; "
                    f"move it to the rebound path")
        if isinstance(func, ast.Name):
            if name in _PURE_NAME_CALLS:
                return None
            if table is not None and mod is not None:
                callee = table.resolve_call(func, mod, info)
                if callee is not None:
                    if checker.callee_impure(callee.qualname):
                        return (f"{name}() is reachable-impure: its call "
                                f"closure pushes events or mutates "
                                f"backend state — not allowed in the "
                                f"no-re-read fast path")
                    return None
            return (f"{name}() in the no-re-read fast path cannot be "
                    f"vetted pure (unresolved callee); add it to the "
                    f"purity allowlist or rebound after it")
        if isinstance(func, ast.Attribute):
            if name in _PURE_ATTR_CALLS:
                return None
            targets = []
            if table is not None and mod is not None:
                callee = table.resolve_call(func, mod, info)
                if callee is not None:
                    targets = [callee]
                else:
                    targets = table.methods_named(name)
            for target in targets:
                if checker.callee_impure(target.qualname):
                    return (f".{name}() may dispatch to "
                            f"{target.qualname}, whose call closure "
                            f"pushes events or mutates backend state — "
                            f"not allowed in the no-re-read fast path")
            return None
        return ("dynamic call in the no-re-read fast path cannot be "
                "vetted pure")


@register
class RebindProtocolRule(Rule):
    """REPRO702: no-re-read skip without the rebound protocol around it."""

    id = "REPRO702"
    summary = ("burst-drain no-re-read skip is missing its protocol: the "
               "'is not None' guard on the skip test and a 'rebound = "
               "True' re-read trigger in the loop")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext,
                   project: Project) -> Iterable[Diagnostic]:
        if not ctx.in_sim_scope:
            return []
        assert ctx.tree is not None
        checker = _PurityChecker(project)
        out: List[Diagnostic] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for loop, skips in checker.loops_with_skips(func):
                rebinds = [
                    stmt for stmt in ast.walk(loop)
                    if isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "rebound"
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is True]
                for skip in skips:
                    if _skip_conjuncts(skip.test) is None:
                        out.append(self.diag(
                            ctx, skip.lineno, skip.col_offset,
                            "no-re-read skip tests __class__ without an "
                            "'is not None' head guard — delivery steps "
                            "run real callbacks and must re-read the "
                            "bound"))
                if not rebinds and skips:
                    skip = skips[0]
                    out.append(self.diag(
                        ctx, skip.lineno, skip.col_offset,
                        "loop contains a no-re-read skip but never sets "
                        "'rebound = True' — the bound is never re-read "
                        "after callback-running steps"))
        return out
