"""Fast-path drift rules (REPRO2xx), driven by a declarative mirror
registry.

Two hand-inlined copies of canonical routines remain on the fast path:

* ``Queue.enqueue``'s admitted path — copied into ``Interface.enqueue``
  (REPRO202);
* ``_burst_step``'s SER/PROP bodies — copied into ``_drain_burst``
  (REPRO205).

Each copy is correct *today* because it was derived from the canonical
code and verified by the bit-identical equivalence tests.  It stays
correct only if every future edit touches both sides.  These rules
enforce that mechanically.

The per-rule plumbing (module resolution, missing-anchor messaging,
the symmetric compare loop) lives in one generic :class:`MirrorSpec`
driver; each rule *declares* its canonical anchor, its inline sites,
and how the two sides are compared — both by **normalized AST dump**
(alpha-renamed locals via
:func:`~repro.analysis.astutils.normalized_dump`), because the copies
must be statement-identical.

Adding a new mirror means writing an extractor pair and one
``MirrorSpec`` — no new engine plumbing.  The rules run only when the
participating modules are in the linted file set (so ``repro lint
tests/`` stays quiet); ``repro lint src/repro`` always covers both
sides of every pair.
"""

from __future__ import annotations

import ast
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

from repro.analysis.astutils import find_class, find_method, normalized_dump
from repro.analysis.context import FileContext, Project
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, register

_LINK_PY = "repro/net/link.py"
_IFACE_PY = "repro/net/interface.py"
_QUEUES_PY = "repro/net/queues.py"


# ======================================================================
# The declarative mirror registry
# ======================================================================
class Extracted(NamedTuple):
    """One successfully extracted artifact, anchored to a line."""

    line: int
    artifact: object


class ExtractError(NamedTuple):
    """Extraction failure: emitted as a diagnostic at ``line``."""

    line: int
    message: str


#: Canonical side: one artifact or a failure.
CanonicalExtractor = Callable[[FileContext],
                              Union[Extracted, ExtractError]]
#: Inline side: every artifact at this site, or a failure.
SiteExtractor = Callable[[FileContext],
                         Union[List[Extracted], ExtractError]]


class MirrorSite(NamedTuple):
    """One inline-copy location participating in a mirror channel."""

    module: str
    extract: SiteExtractor


class Channel(NamedTuple):
    """One canonical-definition-vs-inline-copies comparison stream."""

    canonical: CanonicalExtractor
    sites: Tuple[MirrorSite, ...]
    #: Message emitted at each site whose artifact does not match.
    mismatch: str
    #: Equality predicate between site and canonical artifacts.
    matches: Callable[[object, object], bool] = (
        lambda mine, theirs: mine == theirs)


class MirrorSpec(NamedTuple):
    """Everything one drift rule declares about its mirrored code."""

    rule_id: str
    summary: str
    #: Module suffix holding the canonical definition.
    canonical_module: str
    channels: Tuple[Channel, ...]
    #: Message emitted on each present *site* module when the canonical
    #: module is absent from the scan set (None: stay silent).
    missing_canonical: Optional[str] = None


def _spec_rule(spec: MirrorSpec) -> type:
    """Build and register a Rule subclass executing ``spec``."""

    class _MirrorRule(Rule):
        id = spec.rule_id
        summary = spec.summary
        severity = Severity.ERROR
        SPEC = spec

        def check_project(self, project: Project) -> Iterable[Diagnostic]:
            return _run_spec(self, self.SPEC, project)

    _MirrorRule.__name__ = f"MirrorRule_{spec.rule_id}"
    _MirrorRule.__qualname__ = _MirrorRule.__name__
    return register(_MirrorRule)


def _run_spec(rule: Rule, spec: MirrorSpec,
              project: Project) -> List[Diagnostic]:
    canonical_ctx = project.find(spec.canonical_module)
    out: List[Diagnostic] = []
    if canonical_ctx is None:
        # Without the canonical side there is nothing to compare
        # against; warn at each present inline site (a partial scan set
        # silently skipping the check would hide drift), stay silent
        # when no participant is in the scan set at all.
        if spec.missing_canonical is not None:
            seen: Dict[str, FileContext] = {}
            for channel in spec.channels:
                for site in channel.sites:
                    if site.module == spec.canonical_module:
                        continue
                    ctx = project.find(site.module)
                    if ctx is not None:
                        seen.setdefault(ctx.path, ctx)
            for ctx in seen.values():
                out.append(rule.diag(ctx, 1, 0, spec.missing_canonical))
        return out

    for channel in spec.channels:
        canonical = channel.canonical(canonical_ctx)
        if isinstance(canonical, ExtractError):
            out.append(rule.diag(canonical_ctx, canonical.line, 0,
                                 canonical.message))
            continue
        for site in channel.sites:
            site_ctx = project.find(site.module)
            if site_ctx is None:
                continue
            extracted = site.extract(site_ctx)
            if isinstance(extracted, ExtractError):
                out.append(rule.diag(site_ctx, extracted.line, 0,
                                     extracted.message))
                continue
            for item in extracted:
                if not channel.matches(item.artifact, canonical.artifact):
                    out.append(rule.diag(site_ctx, item.line, 0,
                                         channel.mismatch))
    return out


# ======================================================================
# Queue.enqueue admitted path inlined in Interface.enqueue (REPRO202)
# ======================================================================
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


def _canonical_enqueue(ctx: FileContext) -> Union[Extracted, ExtractError]:
    assert ctx.tree is not None
    queue_cls = find_class(ctx.tree, "Queue")
    canonical_fn = find_method(queue_cls, "enqueue") if queue_cls else None
    if canonical_fn is None:
        return ExtractError(1, (
            f"drift anchor missing: could not locate the enqueue "
            f"method in {_QUEUES_PY} — update the drift checker if it "
            f"moved"))
    canonical = _admitted_region(canonical_fn, "self")
    if canonical is None:
        return ExtractError(canonical_fn.lineno, (
            "cannot extract the canonical admitted-path region from "
            "Queue.enqueue (no `if self._admit(packet):` block)"))
    line, body = canonical
    return Extracted(line, body)


def _inline_enqueue(ctx: FileContext) -> Union[List[Extracted], ExtractError]:
    assert ctx.tree is not None
    iface_cls = find_class(ctx.tree, "Interface")
    inline_fn = find_method(iface_cls, "enqueue") if iface_cls else None
    if inline_fn is None:
        return ExtractError(1, (
            f"drift anchor missing: could not locate the enqueue "
            f"method in {_IFACE_PY} — update the drift checker if it "
            f"moved"))
    inline = _admitted_region(inline_fn, "queue")
    if inline is None:
        return ExtractError(inline_fn.lineno, (
            "cannot find the inlined `if queue._admit(packet):` fast "
            "path in Interface.enqueue — if it was removed, update "
            "the drift checker"))
    line, body = inline
    return [Extracted(line, body)]


def _enqueue_prefix_matches(inline_body: object, canonical_body: object) -> bool:
    # The inline copy appends the link pump after the copied
    # statements, so the canonical body must be a *prefix* of it —
    # compared alpha-renamed so `self` and `queue` both become $OWNER.
    assert isinstance(inline_body, list) and isinstance(canonical_body, list)
    canonical_dump = normalized_dump(canonical_body, {"self": "$OWNER"})
    inline_prefix = inline_body[:len(canonical_body)]
    inline_dump = normalized_dump(inline_prefix, {"queue": "$OWNER"})
    return canonical_dump == inline_dump


# ======================================================================
# Burst drain bodies: _burst_step vs _drain_burst (REPRO205)
# ======================================================================
def _find_function(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _burst_ser_body(func: ast.FunctionDef) -> Optional[Tuple[int, List[ast.stmt]]]:
    """Body of ``if <link>._ser_seq == <s>:`` — the serialization-end branch."""
    for node in ast.walk(func):
        if (isinstance(node, ast.If)
                and isinstance(node.test, ast.Compare)
                and len(node.test.ops) == 1
                and isinstance(node.test.ops[0], ast.Eq)
                and isinstance(node.test.left, ast.Attribute)
                and node.test.left.attr == "_ser_seq"):
            return node.lineno, list(node.body)
    return None


def _burst_prop_body(func: ast.FunctionDef) -> Optional[Tuple[int, List[ast.stmt]]]:
    """Body of ``if <prop> and <prop>[0][1] == <s>:`` — the delivery branch."""
    for node in ast.walk(func):
        if (isinstance(node, ast.If)
                and isinstance(node.test, ast.BoolOp)
                and isinstance(node.test.op, ast.And)
                and len(node.test.values) == 2):
            cmp = node.test.values[1]
            if (isinstance(cmp, ast.Compare)
                    and len(cmp.ops) == 1
                    and isinstance(cmp.ops[0], ast.Eq)
                    and isinstance(cmp.left, ast.Subscript)
                    and isinstance(cmp.left.value, ast.Subscript)):
                return node.lineno, list(node.body)
    return None


_BurstExtractor = Callable[[ast.FunctionDef],
                           Optional[Tuple[int, List[ast.stmt]]]]


def _burst_canonical(extract: _BurstExtractor,
                     label: str) -> CanonicalExtractor:
    def run(ctx: FileContext) -> Union[Extracted, ExtractError]:
        assert ctx.tree is not None
        canonical_fn = _find_function(ctx.tree, "_burst_step")
        if canonical_fn is None or _find_function(
                ctx.tree, "_drain_burst") is None:
            where = ("_burst_step" if canonical_fn is None
                     else "_drain_burst")
            return ExtractError(1, (
                f"drift anchor missing: could not locate {where} in "
                f"{_LINK_PY} — update the drift checker if the burst "
                f"engine moved or was renamed"))
        canonical = extract(canonical_fn)
        if canonical is None:
            return ExtractError(canonical_fn.lineno, (
                f"cannot extract the canonical {label} branch body "
                f"from _burst_step — the drift checker needs updating "
                f"alongside the burst engine"))
        line, body = canonical
        # The two copies deliberately use the same local names, so no
        # alpha-renaming is needed: the bodies must be statement-
        # identical, not merely alpha-equivalent.
        return Extracted(line, normalized_dump(body))
    return run


def _burst_inline(extract: _BurstExtractor, label: str) -> SiteExtractor:
    def run(ctx: FileContext) -> Union[List[Extracted], ExtractError]:
        assert ctx.tree is not None
        inline_fn = _find_function(ctx.tree, "_drain_burst")
        if inline_fn is None or _find_function(
                ctx.tree, "_burst_step") is None:
            # The canonical extractor already reported the missing
            # anchor; stay silent to avoid duplicate diagnostics.
            return []
        inline = extract(inline_fn)
        if inline is None:
            return ExtractError(inline_fn.lineno, (
                f"cannot find the {label} branch in _drain_burst — "
                f"if the inlining was removed, update the drift "
                f"checker"))
        line, body = inline
        return [Extracted(line, normalized_dump(body))]
    return run


# ======================================================================
# The registry itself: two declared mirrors
# ======================================================================
MIRROR_SPECS: Tuple[MirrorSpec, ...] = (
    MirrorSpec(
        rule_id="REPRO202",
        summary=("the Queue.enqueue admitted-path copy inside "
                 "Interface.enqueue no longer matches the canonical code"),
        canonical_module=_QUEUES_PY,
        missing_canonical=(
            f"cannot verify the inline Queue.enqueue copy: "
            f"canonical module {_QUEUES_PY} is not in the linted "
            f"file set"),
        channels=(Channel(
            canonical=_canonical_enqueue,
            sites=(MirrorSite(_IFACE_PY, _inline_enqueue),),
            matches=_enqueue_prefix_matches,
            mismatch=("the Queue.enqueue admitted-path copy inside "
                      "Interface.enqueue differs from the canonical "
                      "statements in Queue.enqueue (normalized-AST "
                      "mismatch) — apply the same edit to both sides, or "
                      "re-derive the inline copy"),
        ),),
    ),
    MirrorSpec(
        rule_id="REPRO205",
        summary=("the SER/PROP branch bodies in _drain_burst no longer "
                 "match the canonical _burst_step in repro/net/link.py"),
        canonical_module=_LINK_PY,
        channels=tuple(Channel(
            canonical=_burst_canonical(extract, label),
            sites=(MirrorSite(_LINK_PY, _burst_inline(extract, label)),),
            mismatch=(f"the {label} branch body in _drain_burst differs "
                      f"from the canonical _burst_step (normalized-AST "
                      f"mismatch) — apply the same edit to both copies "
                      f"and re-run the burst on/off identity tests"),
        ) for extract, label in (
            (_burst_ser_body, "serialization-end (SER)"),
            (_burst_prop_body, "delivery (PROP)"),
        )),
    ),
)

for _spec in MIRROR_SPECS:
    _spec_rule(_spec)
