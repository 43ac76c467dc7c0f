"""Packet-pool safety rule (REPRO5xx).

``Packet.release()`` returns the object to a process-wide free list;
any later read through the same variable observes recycled (or, in
debug mode, poisoned) state.  The runtime only catches this with
``configure_pool(debug=True)`` — this rule catches it statically.

Since PR 9 the check runs on the shared CFG + forward-dataflow engine
(a *must*-released analysis: a name counts as released only when every
path that reaches the read released it), and it is interprocedural:
per-function summaries record which parameters are released on all
fall-through paths, so ``_recycle(pkt)`` followed by ``pkt.size`` is
flagged just like an inline ``pkt.release()`` — the helper-call false
negative the old branch-intersection walker had.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.analysis.cfg import EXIT, build_cfg
from repro.analysis.context import FileContext, Project
from repro.analysis.dataflow import ForwardAnalysis, solve
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, register


def _direct_release(stmt: ast.stmt) -> Optional[str]:
    """Variable name when ``stmt`` is exactly ``<name>.release()``."""
    if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "release"
            and isinstance(stmt.value.func.value, ast.Name)
            and not stmt.value.args and not stmt.value.keywords):
        return stmt.value.func.value.id
    return None


def _assigned_names(stmt: ast.stmt) -> Set[str]:
    """Plain names (re)bound by this statement (resets 'released' state).

    For compound statements only the *header* binds here (the ``for``
    target, walrus in the test); bodies are separate CFG nodes.
    """
    names: Set[str] = set()
    targets: List[ast.expr] = []
    scan: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
        scan = [stmt]
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
        scan = [stmt]
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
        scan = [stmt.iter]
    elif isinstance(stmt, (ast.If, ast.While)):
        scan = [stmt.test]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            scan.append(item.context_expr)
            if item.optional_vars is not None:
                targets.append(item.optional_vars)
    else:
        scan = [stmt]
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                names.add(node.id)
    for root in scan:
        for node in ast.walk(root):
            if isinstance(node, ast.NamedExpr) and isinstance(
                    node.target, ast.Name):
                names.add(node.target.id)
    return names


def _immediate_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """Expressions evaluated by ``stmt`` itself (not nested bodies)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]


def _loads(expr: ast.AST) -> Iterable[ast.Name]:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node


class _ReleaseAnalysis(ForwardAnalysis):
    """Must-released locals: frozenset of names, intersection join."""

    def __init__(self, releases_of) -> None:
        # releases_of(stmt) -> set of names this statement releases
        # (directly or through a summarised helper call).
        self._releases_of = releases_of

    def initial_state(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, states):
        merged = states[0]
        for state in states[1:]:
            merged = merged & state
        return merged

    def transfer(self, stmt: ast.stmt, state: FrozenSet[str]):
        new = set(state)
        new |= self._releases_of(stmt)
        new -= _assigned_names(stmt)
        return frozenset(new)


@register
class UseAfterReleaseRule(Rule):
    """REPRO501: read of a packet variable after ``release()``."""

    id = "REPRO501"
    summary = ("use of a packet variable after .release() returned it to "
               "the pool — recycled state, poisoned under debug")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        tree = ctx.tree
        assert tree is not None
        summaries = self._summaries(project)
        table = project.symbols
        mod = table.module_for(ctx)
        by_node = {id(info.node): info
                   for info in table.functions() if info.ctx is ctx}
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                info = by_node.get(id(node))
                self._check_function(ctx, node, table, mod, info,
                                     summaries, out)
        return out

    # ------------------------------------------------------------------
    # Interprocedural summaries
    # ------------------------------------------------------------------
    def _summaries(self, project: Project) -> Dict[str, FrozenSet[str]]:
        """qualname -> parameter names must-released at function exit.

        Iterated to a fixpoint over the call graph, so chains of
        helpers (``a`` calls ``b`` calls ``pkt.release()``) summarise
        correctly; recursion converges because summaries only grow.
        """
        cached = getattr(project, "_pool_summaries", None)
        if cached is not None:
            return cached
        table = project.symbols
        summaries: Dict[str, FrozenSet[str]] = {}
        for _ in range(4):
            changed = False
            for info in table.functions():
                released = self._exit_released(info, table, summaries)
                must_params = frozenset(p for p in info.params
                                        if p in released)
                if summaries.get(info.qualname, frozenset()) != must_params:
                    summaries[info.qualname] = must_params
                    changed = True
            if not changed:
                break
        project._pool_summaries = summaries  # type: ignore[attr-defined]
        return summaries

    def _exit_released(self, info, table, summaries) -> FrozenSet[str]:
        mod = table.modules.get(info.module)
        cfg = build_cfg(info.node)
        analysis = _ReleaseAnalysis(
            lambda stmt: self._stmt_releases(stmt, table, mod, info,
                                             summaries))
        _, out_states = solve(cfg, analysis)
        # Join over fall-through and return exits; raise exits do not
        # count (the caller's next statement never runs).
        exits = []
        for pred in cfg.pred[EXIT]:
            node = cfg.nodes[pred]
            if isinstance(node.stmt, ast.Raise):
                continue
            state = out_states[pred]
            if state is not None:
                exits.append(state)
        if not exits:
            return frozenset()
        merged = exits[0]
        for state in exits[1:]:
            merged = merged & state
        return merged

    def _stmt_releases(self, stmt: ast.stmt, table, mod, info,
                       summaries: Dict[str, FrozenSet[str]]) -> Set[str]:
        name = _direct_release(stmt)
        if name is not None:
            return {name}
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            return set()
        call = stmt.value
        if table is None or mod is None:
            return set()
        callee = table.resolve_call(call.func, mod, info)
        if callee is None:
            return set()
        must = summaries.get(callee.qualname)
        if not must:
            return set()
        offset = 0
        if callee.cls_name is not None and isinstance(call.func,
                                                      ast.Attribute):
            # Bound call: args map to params after ``self``.
            offset = 1
        released: Set[str] = set()
        for i, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name):
                continue
            pi = i + offset
            if pi < len(callee.params) and callee.params[pi] in must:
                released.add(arg.id)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in must and isinstance(
                    kw.value, ast.Name):
                released.add(kw.value.id)
        return released

    # ------------------------------------------------------------------
    # Per-function check
    # ------------------------------------------------------------------
    def _check_function(self, ctx: FileContext, func: ast.FunctionDef,
                        table, mod, info, summaries,
                        out: List[Diagnostic]) -> None:
        cfg = build_cfg(func)
        analysis = _ReleaseAnalysis(
            lambda stmt: self._stmt_releases(stmt, table, mod, info,
                                             summaries))
        in_states, _ = solve(cfg, analysis)
        reported: Set[str] = set()
        for node in cfg.statement_nodes():
            state = in_states[node.index]
            if not state:
                continue
            stmt = node.stmt
            assert stmt is not None
            # Names this very statement releases are allowed to appear
            # in it (the release call itself reads the name).
            own = self._stmt_releases(stmt, table, mod, info, summaries)
            for expr in _immediate_exprs(stmt):
                for load in _loads(expr):
                    if load.id in state and load.id not in own \
                            and load.id not in reported:
                        reported.add(load.id)  # one report per name
                        out.append(self.diag(
                            ctx, load.lineno, load.col_offset,
                            f"{load.id!r} is read after {load.id}.release() "
                            f"returned it to the packet pool; the object "
                            f"may already be recycled (poisoned under "
                            f"debug pooling)"))
