"""Determinism rules (REPRO1xx).

Reproducibility discipline (see :mod:`repro.sim.random`): every
stochastic component draws from its own named, seeded
``random.Random`` stream.  These rules flag the constructs that break
that discipline — the process-global RNG, entropy-seeded generators,
wall-clock reads inside the event loop, and event scheduling driven by
unordered-set iteration.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.astutils import (
    dotted_name,
    imported_names,
    module_aliases,
)
from repro.analysis.context import FileContext, Project
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, register

#: ``random`` module functions that mutate/read the hidden global RNG.
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

#: Wall-clock reads that leak host time into results.
_WALL_CLOCK_TIME_FNS = {"time", "time_ns", "localtime", "ctime", "gmtime"}
_WALL_CLOCK_DATETIME_FNS = {"now", "utcnow", "today"}

#: Calls that put work on the event heap.
_SCHEDULING_METHODS = {"schedule", "call_at", "arm", "arm_at"}


@register
class GlobalRandomRule(Rule):
    """REPRO101: call into the process-global ``random`` module RNG."""

    id = "REPRO101"
    summary = ("call to the process-global random.* RNG — draw from an "
               "injected seeded random.Random stream (repro.sim.random)")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        tree = ctx.tree
        assert tree is not None
        aliases = module_aliases(tree, "random")
        from_bound = {
            local for local, orig in imported_names(tree, "random").items()
            if orig in _GLOBAL_RANDOM_FNS
        }
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr in _GLOBAL_RANDOM_FNS):
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"random.{func.attr}() uses the hidden process-global "
                    f"RNG; draw from an injected random.Random stream "
                    f"instead (see repro.sim.random.RngStreams)"))
            elif isinstance(func, ast.Name) and func.id in from_bound:
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"{func.id}() (imported from random) uses the hidden "
                    f"process-global RNG; draw from an injected "
                    f"random.Random stream instead"))
        return out


@register
class UnseededRandomRule(Rule):
    """REPRO102: unseeded or module-level ``random.Random`` construction."""

    id = "REPRO102"
    summary = ("unseeded random.Random() (entropy-seeded, irreproducible) "
               "or module-level RNG instance shared across the process")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        tree = ctx.tree
        assert tree is not None
        aliases = module_aliases(tree, "random")
        from_map = imported_names(tree, "random")
        random_ctor_names = {
            local for local, orig in from_map.items()
            if orig in ("Random", "SystemRandom")
        }
        out: List[Diagnostic] = []

        def is_random_ctor(func: ast.expr) -> bool:
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr in ("Random", "SystemRandom")):
                return True
            return isinstance(func, ast.Name) and func.id in random_ctor_names

        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_random_ctor(node.func):
                if not node.args and not node.keywords:
                    out.append(self.diag(
                        ctx, node.lineno, node.col_offset,
                        "unseeded random.Random() seeds from OS entropy — "
                        "results become irreproducible; pass an explicit "
                        "seed or accept an injected stream"))

        # Module-level RNG instances (even seeded) are shared, hidden
        # state: two call sites interleaving draws perturb each other.
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if (isinstance(value, ast.Call) and is_random_ctor(value.func)
                        and (value.args or value.keywords)):
                    out.append(self.diag(
                        ctx, stmt.lineno, stmt.col_offset,
                        "module-level random.Random(...) is shared hidden "
                        "state — every new caller perturbs existing draw "
                        "sequences; inject a per-component stream instead"))
        return out


@register
class WallClockRule(Rule):
    """REPRO103: wall-clock read inside the simulation packages."""

    id = "REPRO103"
    summary = ("wall-clock read (time.time/datetime.now) inside the "
               "simulation packages — use the virtual clock (sim.now)")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        if not ctx.in_sim_scope:
            return ()
        tree = ctx.tree
        assert tree is not None
        time_aliases = module_aliases(tree, "time")
        datetime_aliases = module_aliases(tree, "datetime")
        from_time = {
            local for local, orig in imported_names(tree, "time").items()
            if orig in _WALL_CLOCK_TIME_FNS
        }
        datetime_classes = set(imported_names(tree, "datetime")) | {"datetime", "date"}
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_time:
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"{func.id}() reads the wall clock inside the simulator; "
                    f"simulation logic must use the virtual clock (sim.now)"))
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            # time.time(), _wallclock.time(), ...
            if (isinstance(base, ast.Name) and base.id in time_aliases
                    and func.attr in _WALL_CLOCK_TIME_FNS):
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"time.{func.attr}() reads the wall clock inside the "
                    f"simulator; use the virtual clock (sim.now) — "
                    f"monotonic() is allowed only for watchdog budgets"))
                continue
            # datetime.now(), datetime.datetime.now(), date.today(), ...
            if func.attr in _WALL_CLOCK_DATETIME_FNS:
                chain = dotted_name(base)
                if chain is not None:
                    head = chain.split(".")[0]
                    tail = chain.split(".")[-1]
                    if (head in datetime_aliases or head in datetime_classes
                            or tail in ("datetime", "date")):
                        out.append(self.diag(
                            ctx, node.lineno, node.col_offset,
                            f"{chain}.{func.attr}() reads the wall clock "
                            f"inside the simulator; use the virtual clock"))
        return out


@register
class FabricWallClockRule(Rule):
    """REPRO105: non-monotonic wall-clock read in the sweep fabric."""

    id = "REPRO105"
    summary = ("wall-clock read (time.time/datetime.now) inside the sweep "
               "fabric — lease expiry and record identity must use "
               "time.monotonic()")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        if not ctx.in_fabric_scope:
            return ()
        tree = ctx.tree
        assert tree is not None
        time_aliases = module_aliases(tree, "time")
        datetime_aliases = module_aliases(tree, "datetime")
        from_time = {
            local for local, orig in imported_names(tree, "time").items()
            if orig in _WALL_CLOCK_TIME_FNS
        }
        datetime_classes = set(imported_names(tree, "datetime")) | {"datetime", "date"}
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in from_time:
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"{func.id}() reads the wall clock inside the sweep "
                    f"fabric; an NTP step would expire every lease at once "
                    f"— use time.monotonic()"))
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if (isinstance(base, ast.Name) and base.id in time_aliases
                    and func.attr in _WALL_CLOCK_TIME_FNS):
                out.append(self.diag(
                    ctx, node.lineno, node.col_offset,
                    f"time.{func.attr}() reads the wall clock inside the "
                    f"sweep fabric; lease expiry and record framing must "
                    f"compare time.monotonic() readings, which all "
                    f"processes on one host share and NTP cannot step"))
                continue
            if func.attr in _WALL_CLOCK_DATETIME_FNS:
                chain = dotted_name(base)
                if chain is not None:
                    head = chain.split(".")[0]
                    tail = chain.split(".")[-1]
                    if (head in datetime_aliases or head in datetime_classes
                            or tail in ("datetime", "date")):
                        out.append(self.diag(
                            ctx, node.lineno, node.col_offset,
                            f"{chain}.{func.attr}() reads the wall clock "
                            f"inside the sweep fabric; use time.monotonic() "
                            f"for expiry and content hashes for identity"))
        return out


@register
class SetIterationSchedulingRule(Rule):
    """REPRO104: event scheduling driven by unordered-set iteration."""

    id = "REPRO104"
    summary = ("event scheduling inside iteration over an unordered set — "
               "iteration order feeds the heap tie-break, sort first")
    severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        if not ctx.in_sim_scope:
            return ()
        tree = ctx.tree
        assert tree is not None
        out: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not self._is_unordered(node.iter):
                continue
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _SCHEDULING_METHODS):
                    out.append(self.diag(
                        ctx, sub.lineno, sub.col_offset,
                        f".{sub.func.attr}() inside iteration over an "
                        f"unordered set: set order is hash-randomized, so "
                        f"heap insertion order — and FIFO tie-breaks — "
                        f"change run to run; iterate a sorted() view"))
                    break
        return out

    @staticmethod
    def _is_unordered(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            # .intersection()/.union()/.difference() produce sets; the
            # common false positive (dict.keys/values/items, ordered by
            # insertion since 3.7) is deliberately not matched.
            return expr.func.attr in ("intersection", "union", "difference",
                                      "symmetric_difference")
        return False
