"""flocheck engine: source loading, suppression, rule driving, reporting.

The engine parses every ``.py`` file under the ``repro`` package root into
a :class:`SourceModule` (text + AST + suppression comments), hands them to
the registered rules, filters findings through same-line
``# flocheck: disable=...`` suppressions, and reports every suppression
that is malformed or silenced nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import repro
from repro.errors import ConfigError

from .astutil import import_aliases
from .diagnostics import Diagnostic, Severity
from .rules import (
    RELAXED_RULE_IDS,
    ProjectRule,
    Rule,
    all_rules,
    known_rule_ids,
)

#: Pseudo rule id for files the engine cannot parse at all.
PARSE_ERROR_RULE = "FLC000"

#: Pseudo rule id for malformed or unused suppression comments
#: (engine-emitted, like FLC000 — not in the registry, never itself
#: suppressible).
SUPPRESSION_RULE = "FLC099"

_SUPPRESS = re.compile(
    r"#\s*flocheck:\s*disable=([A-Za-z0-9_,\s]*?)\s*(?:--\s*(\S.*?))?\s*$"
)


@dataclass(frozen=True)
class SuppressionRecord:
    """One ``# flocheck: disable=`` comment, parsed.

    A suppression must carry a trailing reason (``-- <why>``): the whole
    point of an inline waiver is that the *next* reader learns why the
    rule does not apply here.  A reasonless comment is inert — it
    suppresses nothing and the engine reports it as ``FLC099``.
    """

    line: int
    ids: frozenset  # upper-cased rule ids, or {"ALL"}
    reason: str  # "" when missing (malformed)

    @property
    def well_formed(self) -> bool:
        return bool(self.reason)


class SourceModule:
    """One parsed source file: path, dotted module name, AST, suppressions."""

    def __init__(self, path: Path, relpath: str, module: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.module = module
        self.text = text
        self.tree: ast.AST = ast.parse(text, filename=str(path))
        self.suppressions: List[SuppressionRecord] = self._parse_suppressions()
        self._active: Dict[int, Set[str]] = {
            record.line: set(record.ids)
            for record in self.suppressions
            if record.well_formed
        }

    @classmethod
    def load(cls, path: Path, relpath: str, module: str) -> "SourceModule":
        """Read and parse a file; propagates ``SyntaxError``/``OSError``."""
        return cls(path, relpath, module, path.read_text(encoding="utf-8"))

    @cached_property
    def import_aliases(self) -> Dict[str, str]:
        """The module's
        :func:`~tests.check.flocheck.astutil.import_aliases` map, walked
        once (rules ask per call node); read-only by convention."""
        return import_aliases(self.tree)

    def _parse_suppressions(self) -> List[SuppressionRecord]:
        """Suppressions from comment tokens only: the same text inside a
        string literal (a docstring quoting the syntax, a test fixture)
        is not a comment and waives nothing."""
        if "flocheck" not in self.text:
            return []
        records: List[SuppressionRecord] = []
        for token in tokenize.generate_tokens(io.StringIO(self.text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS.search(token.string)
            if not match:
                continue
            ids = frozenset(
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            )
            if ids:
                records.append(
                    SuppressionRecord(
                        line=token.start[0],
                        ids=ids,
                        reason=(match.group(2) or "").strip(),
                    )
                )
        return records

    def suppressor(self, line: int, rule_id: str) -> Optional[str]:
        """The id (``rule_id`` or ``"ALL"``) under which a well-formed
        (reason-carrying) suppression comment disables ``rule_id`` on
        ``line``; None when it is not disabled there."""
        ids = self._active.get(line, ())
        if rule_id.upper() in ids:
            return rule_id.upper()
        return "ALL" if "ALL" in ids else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceModule({self.module!r})"


class Project:
    """View over the whole package for cross-file rules.

    ``get_module`` serves the parsed modules of the current run by
    dotted name.  ``read_text`` reaches *outside* the package (docs, config
    files) relative to the repository root; it returns ``None`` when the
    file does not exist — e.g. an installed package without a docs tree.
    """

    def __init__(
        self, package_root: Path, modules: Iterable[SourceModule] = ()
    ) -> None:
        self.package_root = package_root
        self._cache: Dict[str, Optional[SourceModule]] = {
            m.module: m for m in modules
        }

    @property
    def repo_root(self) -> Path:
        """Best-effort repository root (``src/repro`` -> repo)."""
        return self.package_root.parent.parent

    def get_module(self, name: str) -> Optional[SourceModule]:
        """The parsed module for a dotted name, or None if absent/broken."""
        return self._cache.get(name)

    def module_for_path(self, relpath: str) -> Optional[SourceModule]:
        """Reverse lookup used when applying suppressions to findings."""
        for module in self._cache.values():
            if module is not None and module.relpath == relpath:
                return module
        return None

    def read_text(self, relpath: str) -> Optional[str]:
        """Text of a repo-root-relative file, or None if it is absent."""
        path = self.repo_root / relpath
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None


def _dotted(base: Path, path: Path) -> str:
    """Dotted module name of ``path`` relative to ``base``."""
    rel = path.relative_to(base).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class CheckReport:
    """Outcome of one checker run."""

    #: non-suppressed findings, sorted by location
    findings: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    #: every parsed suppression comment, as ``(relpath, record)`` pairs —
    #: the audit surface the waiver-lock test reads
    suppression_records: List[tuple] = field(default_factory=list)
    modules_checked: int = 0


class Checker:
    """Drives the rule registry over a package tree."""

    def __init__(
        self,
        package_root: Path,
        rules: Optional[Sequence[Rule]] = None,
        extra_roots: Sequence[Path] = (),
    ) -> None:
        self.package_root = Path(package_root)
        if not self.package_root.is_dir():
            raise ConfigError(f"package root {self.package_root} is not a directory")
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        #: Directories outside the package (tests/, benchmarks/) also
        #: swept by this run; their modules get the relaxed rule subset.
        self.extra_roots: List[Path] = [Path(r).resolve() for r in extra_roots]
        for root in self.extra_roots:
            if not root.is_dir():
                raise ConfigError(f"extra root {root} is not a directory")

    @classmethod
    def for_package(
        cls,
        package_root: Optional[Path] = None,
        rules: Optional[Sequence[Rule]] = None,
        extra_roots: Sequence[Path] = (),
    ) -> "Checker":
        """Checker for the installed ``repro`` package."""
        root = (
            Path(package_root)
            if package_root is not None
            else Path(repro.__file__).resolve().parent
        )
        return cls(root, rules=rules, extra_roots=extra_roots)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def _load_selected(self) -> tuple:
        """Parse the selected files once, splitting successes from
        ``FLC000`` parse-failure diagnostics."""
        modules: List[SourceModule] = []
        failures: List[Diagnostic] = []
        for path in self._select_files():
            base = self._base_for(path)
            relpath = path.relative_to(base).as_posix()
            try:
                modules.append(
                    SourceModule.load(path, relpath, _dotted(base, path))
                )
            except SyntaxError as exc:
                failures.append(
                    Diagnostic(
                        rule_id=PARSE_ERROR_RULE,
                        severity=Severity.ERROR,
                        path=relpath,
                        line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"file does not parse: {exc.msg}",
                        hint="flocheck analyses the AST; fix the syntax error",
                    )
                )
            except OSError as exc:
                failures.append(
                    Diagnostic(
                        rule_id=PARSE_ERROR_RULE,
                        severity=Severity.ERROR,
                        path=relpath,
                        line=1,
                        col=0,
                        message=f"file is unreadable: {exc}",
                    )
                )
        return modules, failures

    def _select_files(self) -> List[Path]:
        selected = sorted(self.package_root.rglob("*.py"))
        for root in self.extra_roots:
            # the seeded-defect corpus is test *data*, not code under
            # check: sweeping it would report its mutants as findings
            selected.extend(
                p
                for p in sorted(root.rglob("*.py"))
                if "corpus" not in p.relative_to(root).parts
            )
        return selected

    def _base_for(self, path: Path) -> Path:
        """The directory relpaths/module names are computed against.

        Package files anchor at the package *parent* (``repro/...`` —
        stable across checkouts); files under an extra root anchor at
        that root's parent (``tests/...``).  :meth:`_select_files` takes
        every file from under one of these roots.
        """
        if path.is_relative_to(self.package_root):
            return self.package_root.parent
        return next(
            root.parent for root in self.extra_roots
            if path.is_relative_to(root)
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> CheckReport:
        modules, raw = self._load_selected()
        project = Project(self.package_root, modules)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(project))
        ran: Dict[str, Set[str]] = {}
        for module in modules:
            rules = self._rules_on(module)
            ran[module.relpath] = {rule.rule_id for rule in rules}
            for rule in rules:
                raw.extend(rule.check(module))  # project rules yield nothing

        report = CheckReport(modules_checked=len(modules))
        for module in modules:
            for record in module.suppressions:
                report.suppression_records.append((module.relpath, record))
        report.suppression_records.sort(key=lambda item: (item[0], item[1].line))
        used: Set[Tuple[str, int, str]] = set()
        for diag in raw:
            # unparseable files (FLC000) have no module to carry a waiver
            module = project.module_for_path(diag.path)
            by = module.suppressor(diag.line, diag.rule_id) if module else None
            if by is None:
                report.findings.append(diag)
            else:
                report.suppressed.append(diag)
                used.add((diag.path, diag.line, by))
        # `disable=all` is judged only when every registered rule ran
        complete = set(known_rule_ids()) <= {r.rule_id for r in self.rules}
        for module in modules:
            report.findings.extend(
                _suppression_hygiene(module, ran[module.relpath], used, complete)
            )
        report.findings.sort(key=lambda d: (d.path, d.line, d.col, d.rule_id))
        return report

    def _rules_on(self, module: SourceModule) -> List[Rule]:
        """The rules that check ``module``: tests/benchmarks get the
        relaxed subset, ignoring each rule's package-prefixed scope."""
        package_name = self.package_root.name
        if module.module == package_name or module.module.startswith(
            package_name + "."
        ):
            return [rule for rule in self.rules if rule.applies_to(module)]
        return [rule for rule in self.rules if rule.rule_id in RELAXED_RULE_IDS]


def _suppression_hygiene(
    module: SourceModule,
    ran: Set[str],
    used: Set[Tuple[str, int, str]],
    complete: bool,
) -> List[Diagnostic]:
    """``FLC099`` findings for malformed and unused suppression comments.

    A suppression without a trailing ``-- <reason>`` is inert (it does
    not suppress anything) *and* reported, so a stray waiver can neither
    silently mask findings nor linger unexplained.  A well-formed one is
    reported when it names a rule no checker has, or a rule that ran on
    this module without a finding on its line: a waiver whose finding is
    gone would hide the next real one there.  Rules that did not run
    (a ``rules=`` subset, the relaxed subset for tests) are not judged.
    """
    if not module.suppressions:
        return []
    known = set(known_rule_ids())
    out: List[Diagnostic] = []
    for record in module.suppressions:
        if not record.well_formed:
            message = (
                f"suppression of {','.join(sorted(record.ids))} has no "
                "reason; it is ignored"
            )
            hint = "append ' -- <why this rule does not apply here>'"
        else:
            dead = sorted(
                rule_id
                for rule_id in record.ids
                if (module.relpath, record.line, rule_id) not in used
                and (
                    complete
                    if rule_id == "ALL"
                    else rule_id not in known or rule_id in ran
                )
            )
            if not dead:
                continue
            message = f"suppression of {','.join(dead)} silenced no finding"
            hint = "delete the stale waiver (or the stale rule id from it)"
        out.append(
            Diagnostic(
                rule_id=SUPPRESSION_RULE,
                severity=Severity.ERROR,
                path=module.relpath,
                line=record.line,
                col=0,
                message=message,
                hint=hint,
            )
        )
    return out
