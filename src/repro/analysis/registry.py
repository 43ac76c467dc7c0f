"""The pluggable rule registry.

A rule is a class with an ``id`` (``REPRO###``), a severity, a one-line
``summary``, and a per-file :meth:`Rule.check_file` that may consult the
whole :class:`~repro.analysis.context.Project` (its symbol table).
Decorate with :func:`register` to make the rule discoverable by the
engine and ``repro lint --list-rules``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.analysis.context import FileContext, Project
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import ConfigurationError


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and override
    :meth:`check_file`, which yields :class:`Diagnostic` objects; the
    engine applies ``# repro: noqa`` filtering afterwards, so rules do
    not need to think about suppressions.
    """

    #: Unique identifier, e.g. ``"REPRO501"``.
    id: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""
    #: Severity attached to this rule's diagnostics.
    severity: Severity = Severity.ERROR

    def check_file(self, ctx: FileContext, project: Project) -> Iterable[Diagnostic]:
        """Analyze one parsed file; default: no findings."""
        return ()

    # Convenience for subclasses.
    def diag(self, ctx: FileContext, line: int, col: int, message: str,
             severity: Optional[Severity] = None) -> Diagnostic:
        """Build a diagnostic for this rule at ``ctx``/``line``/``col``."""
        return Diagnostic(
            path=ctx.path,
            line=line,
            col=col,
            rule_id=self.id,
            severity=self.severity if severity is None else severity,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_cls`` to the global registry."""
    if not rule_cls.id:
        raise ConfigurationError(f"rule {rule_cls.__name__} has no id")
    existing = _REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise ConfigurationError(
            f"duplicate rule id {rule_cls.id}: "
            f"{existing.__name__} vs {rule_cls.__name__}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def _load_builtin_rules() -> None:
    # Importing the rules package executes the @register decorators.
    import repro.analysis.rules  # noqa: F401  (import for side effect)


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (ids or id prefixes), or all.

    ``select=["REPRO5"]`` picks every pool rule; unknown selectors
    raise :class:`~repro.errors.ConfigurationError` so typos fail loudly.
    """
    rules = all_rules()
    if not select:
        return rules
    chosen: List[Rule] = []
    for selector in select:
        token = selector.strip().upper()
        matched = [rule for rule in rules if rule.id.startswith(token)]
        if not matched:
            known = ", ".join(sorted(_REGISTRY))
            raise ConfigurationError(
                f"unknown rule selector {selector!r} (known: {known})")
        chosen.extend(matched)
    # Deduplicate, keep id order.
    unique: Dict[str, Rule] = {rule.id: rule for rule in chosen}
    return [unique[rule_id] for rule_id in sorted(unique)]
