"""flocheck engine: source loading, suppression, rule driving, reporting.

The engine parses every ``.py`` file under the ``repro`` package root into
a :class:`SourceModule` (text + AST + suppression comments), hands them to
the registered rules, filters findings through same-line
``# flocheck: disable=...`` suppressions, and splits the survivors against
the baseline into *new* vs *grandfathered*.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..errors import ConfigError
from .astutil import import_aliases
from .baseline import Baseline, BaselineEntry
from .diagnostics import Diagnostic, Severity
from .rules import RELAXED_RULE_IDS, ProjectRule, Rule, all_rules

#: Pseudo rule id for files the engine cannot parse at all.
PARSE_ERROR_RULE = "FLC000"

#: Pseudo rule id for malformed suppression comments (engine-emitted,
#: like FLC000 — not in the registry, never itself suppressible).
SUPPRESSION_RULE = "FLC099"

_SUPPRESS = re.compile(
    r"#\s*flocheck:\s*disable=([A-Za-z0-9_,\s]*?)\s*(?:--\s*(\S.*?))?\s*$"
)

#: Default baseline location: shipped next to this package.
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


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
    line_content: str = ""

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
        self.lines: List[str] = text.splitlines()
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
        """The module's :func:`~repro.check.astutil.import_aliases` map,
        walked once (rules ask per call node); read-only by convention."""
        return import_aliases(self.tree)

    def line_text(self, line: int) -> str:
        """Stripped source text of a 1-based line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def _parse_suppressions(self) -> List[SuppressionRecord]:
        records: List[SuppressionRecord] = []
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS.search(text)
            if not match:
                continue
            ids = frozenset(
                token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            )
            if ids:
                records.append(
                    SuppressionRecord(
                        line=lineno,
                        ids=ids,
                        reason=(match.group(2) or "").strip(),
                        line_content=text.strip(),
                    )
                )
        return records

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is disabled on ``line`` by a well-formed
        (reason-carrying) suppression comment."""
        ids = self._active.get(line)
        if ids is None:
            return False
        return "ALL" in ids or rule_id.upper() in ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SourceModule({self.module!r})"


class Project:
    """Lazy view over the whole package for cross-file rules.

    ``get_module`` serves the already-parsed modules of the current run
    and lazily loads any other module of the package by dotted name, so
    project rules see the full tree even when the user checked a subset
    of paths.  ``read_text`` reaches *outside* the package (docs, config
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
    def package_name(self) -> str:
        return self.package_root.name

    @property
    def repo_root(self) -> Path:
        """Best-effort repository root (``src/repro`` -> repo)."""
        return self.package_root.parent.parent

    def get_module(self, name: str) -> Optional[SourceModule]:
        """The parsed module for a dotted name, or None if absent/broken."""
        if name in self._cache:
            return self._cache[name]
        module = self._load_module(name)
        self._cache[name] = module
        return module

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

    def iter_modules(self) -> List[SourceModule]:
        """The loaded *package* modules of this run, name-sorted.

        Cross-file rules (call graph, interprocedural taint) analyze the
        package tree only — external roots pulled in by
        ``--include-tests`` are excluded so test helpers never become
        phantom call-graph nodes.
        """
        return sorted(
            (
                m
                for m in self._cache.values()
                if m is not None
                and (
                    m.module == self.package_name
                    or m.module.startswith(self.package_name + ".")
                )
            ),
            key=lambda m: m.module,
        )

    def _load_module(self, name: str) -> Optional[SourceModule]:
        parts = name.split(".")
        if parts[0] != self.package_name:
            return None
        below = parts[1:]
        stem = self.package_root.joinpath(*below) if below else self.package_root
        candidates = [
            stem.with_suffix(".py") if below else None,
            stem / "__init__.py",
        ]
        for path in candidates:
            if path is not None and path.is_file():
                try:
                    return SourceModule.load(
                        path, module_relpath(self.package_root, path), name
                    )
                except (SyntaxError, OSError):
                    return None
        return None


def module_relpath(package_root: Path, path: Path) -> str:
    """Path of a module file relative to the package *parent* directory.

    ``src/repro/core/router.py`` -> ``repro/core/router.py`` — stable
    across checkouts and install locations, which keeps baseline entries
    portable.
    """
    return path.relative_to(package_root.parent).as_posix()


def module_name(package_root: Path, path: Path) -> str:
    """Dotted module name of a file under the package root."""
    return _dotted(package_root.parent, path)


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

    new_findings: List[Diagnostic] = field(default_factory=list)
    baselined: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    #: every parsed suppression comment, as ``(relpath, record)`` pairs —
    #: the audit surface behind ``repro check --show-suppressed``
    suppression_records: List[tuple] = field(default_factory=list)
    modules_checked: int = 0
    partial: bool = False  # True when a paths subset was checked

    @property
    def findings(self) -> List[Diagnostic]:
        """All non-suppressed findings (new + grandfathered)."""
        return sorted(
            self.new_findings + self.baselined,
            key=lambda d: (d.path, d.line, d.col, d.rule_id),
        )

    @property
    def ok(self) -> bool:
        """No new findings (baselined and suppressed ones are tolerated)."""
        return not self.new_findings

    def strict_ok(self) -> bool:
        """``ok`` plus a non-drifting baseline."""
        return self.ok and not self.stale_baseline

    def summary(self) -> str:
        parts = [
            f"{self.modules_checked} modules checked",
            f"{len(self.new_findings)} new finding(s)",
            f"{len(self.baselined)} baselined",
            f"{len(self.suppressed)} suppressed",
        ]
        if self.stale_baseline:
            parts.append(f"{len(self.stale_baseline)} stale baseline entr(ies)")
        return ", ".join(parts)


class Checker:
    """Drives the rule registry over a package tree."""

    def __init__(
        self,
        package_root: Path,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
        extra_roots: Sequence[Path] = (),
    ) -> None:
        self.package_root = Path(package_root)
        if not self.package_root.is_dir():
            raise ConfigError(f"package root {self.package_root} is not a directory")
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.baseline = baseline if baseline is not None else Baseline()
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
        baseline: Optional[Baseline] = None,
        use_default_baseline: bool = True,
        extra_roots: Sequence[Path] = (),
    ) -> "Checker":
        """Checker for the installed ``repro`` package with its shipped
        baseline (unless ``use_default_baseline`` is off)."""
        root = (
            Path(package_root)
            if package_root is not None
            else Path(__file__).resolve().parent.parent
        )
        if baseline is None and use_default_baseline:
            baseline = Baseline.load(str(DEFAULT_BASELINE))
        return cls(root, rules=rules, baseline=baseline, extra_roots=extra_roots)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(
        self, paths: Optional[Sequence[str]] = None
    ) -> List[SourceModule]:
        """Parse the selected source files (whole package by default).

        Unparseable files are skipped here; :meth:`run` surfaces them as
        ``FLC000`` diagnostics so they still fail the build.
        """
        modules, _failures = self._load_selected(paths)
        return modules

    def _load_selected(
        self, paths: Optional[Sequence[str]]
    ) -> tuple:
        """Parse the selected files once, splitting successes from
        ``FLC000`` parse-failure diagnostics."""
        modules: List[SourceModule] = []
        failures: List[Diagnostic] = []
        for path in self._select_files(paths):
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

    def _select_files(self, paths: Optional[Sequence[str]]) -> List[Path]:
        if not paths:
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
        selected = []
        for raw in paths:
            path = Path(raw).resolve()
            if path.is_dir():
                selected.extend(sorted(path.rglob("*.py")))
            elif path.is_file():
                selected.append(path)
            else:
                raise ConfigError(f"no such file or directory: {raw}")
        for path in selected:
            if self._base_for(path) is None:
                roots = [self.package_root, *self.extra_roots]
                raise ConfigError(
                    f"{path} is outside the checked roots {roots}"
                )
        return selected

    def _base_for(self, path: Path) -> Optional[Path]:
        """The directory relpaths/module names are computed against.

        Package files anchor at the package *parent* (``repro/...`` —
        stable across checkouts, keeps baseline entries portable); files
        under an extra root anchor at that root's parent (``tests/...``).
        """
        candidates = [self.package_root.parent] + [
            r.parent for r in self.extra_roots
        ]
        roots = [self.package_root, *self.extra_roots]
        for root, base in zip(roots, candidates):
            try:
                path.relative_to(root)
            except ValueError:
                continue
            return base
        return None

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, paths: Optional[Sequence[str]] = None) -> CheckReport:
        partial = bool(paths)
        modules, raw = self._load_selected(paths)
        project = Project(self.package_root, modules)
        package_name = self.package_root.name
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check_project(project))
                continue
            for module in modules:
                external = not (
                    module.module == package_name
                    or module.module.startswith(package_name + ".")
                )
                if external:
                    # tests/benchmarks get the relaxed subset, ignoring
                    # the rule's package-prefixed scope
                    if rule.rule_id in RELAXED_RULE_IDS:
                        raw.extend(rule.check(module))
                elif rule.applies_to(module):
                    raw.extend(rule.check(module))
        for module in modules:
            raw.extend(_suppression_hygiene(module))
        raw.sort(key=lambda d: (d.path, d.line, d.col, d.rule_id))

        report = CheckReport(modules_checked=len(modules), partial=partial)
        for module in modules:
            for record in module.suppressions:
                report.suppression_records.append((module.relpath, record))
        report.suppression_records.sort(key=lambda item: (item[0], item[1].line))
        unsuppressed: List[Diagnostic] = []
        for diag in raw:
            module = project.module_for_path(diag.path)
            if (
                diag.rule_id not in (PARSE_ERROR_RULE, SUPPRESSION_RULE)
                and module is not None
                and module.suppressed(diag.line, diag.rule_id)
            ):
                report.suppressed.append(diag)
            else:
                unsuppressed.append(diag)

        match = self.baseline.match(unsuppressed)
        report.new_findings = match.new
        report.baselined = match.baselined
        # A subset run sees only a slice of the tree; baseline entries for
        # unchecked files are not stale, so skip the drift check entirely.
        report.stale_baseline = [] if partial else match.stale
        return report


def _suppression_hygiene(module: SourceModule) -> List[Diagnostic]:
    """``FLC099`` findings for malformed suppression comments.

    A suppression without a trailing ``-- <reason>`` is inert (it does
    not suppress anything) *and* reported, so a stray waiver can neither
    silently mask findings nor linger unexplained.
    """
    out: List[Diagnostic] = []
    for record in module.suppressions:
        if record.well_formed:
            continue
        ids = ",".join(sorted(record.ids))
        out.append(
            Diagnostic(
                rule_id=SUPPRESSION_RULE,
                severity=Severity.ERROR,
                path=module.relpath,
                line=record.line,
                col=0,
                message=(
                    f"suppression of {ids} has no reason; it is ignored"
                ),
                hint="append ' -- <why this rule does not apply here>'",
                line_content=record.line_content,
            )
        )
    return out
