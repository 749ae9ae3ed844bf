"""Rule registry for flocheck.

A rule is a class with a unique ``rule_id`` (``FLCnnn``) and a
``check(module)`` generator yielding
:class:`~tests.check.flocheck.diagnostics.Diagnostic` objects.
Project-wide rules (cross-file consistency) override
``check_project(project)`` instead.

Register new rules with the :func:`register` decorator; the engine
instantiates every registered rule unless a subset is requested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Type

from repro.errors import ConfigError

from ..diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..engine import Project, SourceModule


class Rule:
    """Base class for per-module rules."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    #: Module-name prefixes this rule applies to; empty = everywhere.
    scope: tuple = ()

    def applies_to(self, module: "SourceModule") -> bool:
        if not self.scope:
            return True
        return any(
            module.module == prefix or module.module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, module: "SourceModule") -> Iterator[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - abstract

    def diagnostic(
        self,
        module: "SourceModule",
        line: int,
        col: int,
        message: str,
        hint: str = "",
    ) -> Diagnostic:
        """Build a diagnostic anchored to ``module``'s source."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            hint=hint,
        )


class ProjectRule(Rule):
    """Base class for rules that need the whole project at once."""

    def check(self, module: "SourceModule") -> Iterator[Diagnostic]:
        return iter(())  # project rules run once, not per module

    def check_project(self, project: "Project") -> Iterator[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - abstract


_REGISTRY: Dict[str, Type[Rule]] = {}

#: Rules safe to run on test/benchmark code (the ``extra_roots`` sweep).
#: Test modules legitimately read wall clocks, compare floats, and mutate
#: fixtures, so only the universally-wrong defect classes apply there:
#: mutable default arguments and unpicklable spawn payloads.
RELAXED_RULE_IDS = frozenset({"FLC005", "FLC007"})


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ConfigError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls  # flocheck: disable=FLC007 -- import-time registration, the same in every process
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, id-sorted."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one registered rule by id."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise ConfigError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_rule_ids() -> Iterable[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _load_builtin_rules() -> None:
    """Import the builtin rule modules so their ``@register`` calls run."""
    from . import (  # noqa: F401  (imported for registration side effects)
        config_drift,
        determinism,
        float_equality,
        mutable_defaults,
        pickle_safety,
        process_safety,
        span_hygiene,
        spawn_safety,
        units,
    )
