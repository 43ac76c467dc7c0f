"""Fast-path drift rule (REPRO202).

One hand-inlined copy of a canonical routine remains on the fast path:
``Queue.enqueue``'s admitted path, copied into ``Interface.enqueue``.

The copy is correct *today* because it was derived from the canonical
code and verified by the bit-identical equivalence tests.  It stays
correct only if every future edit touches both sides.  REPRO202
enforces that mechanically: the two regions are compared by
**normalized AST dump** (alpha-renamed owner via
:func:`~repro.analysis.astutils.normalized_dump`), because the copy
must be statement-identical.

(The burst drain in ``repro/net/link.py`` has no such rule: it is a
single implementation, shared by ``Simulator.run()`` and
``Simulator.step()``, whose oracle is the ``burst=False`` engine.)

The rule runs only when the participating modules are in the linted
file set (so ``repro lint tests/`` stays quiet); ``repro lint
src/repro`` always covers both sides.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.astutils import find_class, find_method, normalized_dump
from repro.analysis.context import Project
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import Rule, register

_IFACE_PY = "repro/net/interface.py"
_QUEUES_PY = "repro/net/queues.py"
_ANCHOR_MISSING = ("drift anchor missing: could not locate the enqueue "
                   "method in {} — update the drift checker if it moved")


def _admitted_region(func: ast.FunctionDef,
                     owner: str) -> Optional[Tuple[int, List[ast.stmt]]]:
    """Body of ``if <owner>._admit(packet):`` minus the trailing return."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        if (isinstance(test, ast.Call)
                and isinstance(test.func, ast.Attribute)
                and test.func.attr == "_admit"
                and isinstance(test.func.value, ast.Name)
                and test.func.value.id == owner):
            body = list(node.body)
            while body and isinstance(body[-1], ast.Return):
                body.pop()
            return node.lineno, body
    return None


def _enqueue_method(tree: ast.Module, cls: str) -> Optional[ast.FunctionDef]:
    owner = find_class(tree, cls)
    return find_method(owner, "enqueue") if owner else None


def _enqueue_prefix_matches(inline_body: object, canonical_body: object) -> bool:
    # The inline copy appends the link pump after the copied
    # statements, so the canonical body must be a *prefix* of it —
    # compared alpha-renamed so `self` and `queue` both become $OWNER.
    assert isinstance(inline_body, list) and isinstance(canonical_body, list)
    canonical_dump = normalized_dump(canonical_body, {"self": "$OWNER"})
    inline_prefix = inline_body[:len(canonical_body)]
    inline_dump = normalized_dump(inline_prefix, {"queue": "$OWNER"})
    return canonical_dump == inline_dump


@register
class EnqueueCopyDrift(Rule):
    id = "REPRO202"
    summary = ("the Queue.enqueue admitted-path copy inside "
               "Interface.enqueue no longer matches the canonical code")

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        canonical_ctx = project.find(_QUEUES_PY)
        inline_ctx = project.find(_IFACE_PY)
        if canonical_ctx is None:
            # Without the canonical side there is nothing to compare
            # against; say so at the inline site (a partial scan set
            # silently skipping the check would hide drift), stay silent
            # when neither participant is in the scan set.
            if inline_ctx is not None:
                yield self.diag(inline_ctx, 1, 0, (
                    f"cannot verify the inline Queue.enqueue copy: "
                    f"canonical module {_QUEUES_PY} is not in the linted "
                    f"file set"))
            return
        assert canonical_ctx.tree is not None
        canonical_fn = _enqueue_method(canonical_ctx.tree, "Queue")
        if canonical_fn is None:
            yield self.diag(canonical_ctx, 1, 0,
                            _ANCHOR_MISSING.format(_QUEUES_PY))
            return
        canonical = _admitted_region(canonical_fn, "self")
        if canonical is None:
            yield self.diag(canonical_ctx, canonical_fn.lineno, 0, (
                "cannot extract the canonical admitted-path region from "
                "Queue.enqueue (no `if self._admit(packet):` block)"))
            return
        if inline_ctx is None:
            return
        assert inline_ctx.tree is not None
        inline_fn = _enqueue_method(inline_ctx.tree, "Interface")
        if inline_fn is None:
            yield self.diag(inline_ctx, 1, 0,
                            _ANCHOR_MISSING.format(_IFACE_PY))
            return
        inline = _admitted_region(inline_fn, "queue")
        if inline is None:
            yield self.diag(inline_ctx, inline_fn.lineno, 0, (
                "cannot find the inlined `if queue._admit(packet):` fast "
                "path in Interface.enqueue — if it was removed, update "
                "the drift checker"))
            return
        line, body = inline
        if not _enqueue_prefix_matches(body, canonical[1]):
            yield self.diag(inline_ctx, line, 0, (
                "the Queue.enqueue admitted-path copy inside "
                "Interface.enqueue differs from the canonical "
                "statements in Queue.enqueue (normalized-AST "
                "mismatch) — apply the same edit to both sides, or "
                "re-derive the inline copy"))
