"""FLC006 — config drift between dataclasses, the CLI, and the docs.

Three places describe the same knobs and historically drift apart:

* ``FunctionalSettings`` (``repro.experiments.common``) — the run-size
  dataclass every functional figure consumes;
* the ``repro run`` CLI flags (``repro.cli``) that populate it;
* the ``FLoc configuration reference`` table in
  ``docs/architecture.md`` that documents every ``FLocConfig`` field.

The rule cross-checks all three:

1. every ``FunctionalSettings`` field must be wired to a CLI flag (via
   the ``CLI_FIELD_FLAGS`` map below) or explicitly listed as
   programmatic-only in ``NON_CLI_FIELDS``;
2. every mapped CLI flag must actually exist in ``repro.cli``;
3. every ``FLocConfig`` field must have a row in the docs table, and
   every row must name a live field (no stale docs).

Adding a settings field therefore fails the build until the flag and the
mapping are added — which is the point.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional

from ..diagnostics import Diagnostic
from . import ProjectRule, register

#: FunctionalSettings field -> CLI flag that populates it.
CLI_FIELD_FLAGS: Dict[str, str] = {
    "scale": "--scale",
    "warmup_seconds": "--warmup",
    "measure_seconds": "--seconds",
    "seed": "--seed",
    "sanitize": "--sanitize",
}

#: FunctionalSettings fields set programmatically (per figure), not by flag.
NON_CLI_FIELDS = frozenset({"s_max"})

#: Docs section heading whose table must cover every FLocConfig field.
DOCS_SECTION = "FLoc configuration reference"
DOCS_PATH = "docs/architecture.md"

_TABLE_ROW = re.compile(r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`\s*\|")
_ADD_ARGUMENT_FLAG = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")


def dataclass_fields(tree: ast.AST, class_name: str) -> List[ast.AnnAssign]:
    """Annotated field statements of a (data)class, in source order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
    return []


def cli_flags(tree: ast.AST) -> List[str]:
    """Every ``--flag`` string passed to an ``add_argument`` call."""
    flags: List[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "add_argument"):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if _ADD_ARGUMENT_FLAG.fullmatch(arg.value):
                    flags.append(arg.value)
    return flags


def docs_table_fields(markdown: str, section: str) -> Optional[List[str]]:
    """Backticked first-column entries of the table under ``section``.

    Returns ``None`` when the section heading is absent (the docs check
    then reports the missing section rather than per-field noise).
    """
    in_section = False
    fields: List[str] = []
    for line in markdown.splitlines():
        if line.lstrip().startswith("#"):
            in_section = section.lower() in line.lower()
            continue
        if not in_section:
            continue
        match = _TABLE_ROW.match(line.strip())
        if match:
            fields.append(match.group(1))
    return fields if (in_section or fields) else None


@register
class ConfigDriftRule(ProjectRule):
    rule_id = "FLC006"

    def check_project(self, project) -> Iterator[Diagnostic]:
        yield from self._check_settings_vs_cli(project)
        yield from self._check_config_vs_docs(project)

    # ------------------------------------------------------------------
    # FunctionalSettings <-> repro.cli
    # ------------------------------------------------------------------
    def _check_settings_vs_cli(self, project) -> Iterator[Diagnostic]:
        settings_mod = project.get_module("repro.experiments.common")
        cli_mod = project.get_module("repro.cli")
        if settings_mod is None or cli_mod is None:
            return
        fields = dataclass_fields(settings_mod.tree, "FunctionalSettings")
        flags = set(cli_flags(cli_mod.tree))
        field_names = {f.target.id for f in fields}  # type: ignore[union-attr]
        for field in fields:
            name = field.target.id  # type: ignore[union-attr]
            if name in NON_CLI_FIELDS:
                continue
            flag = CLI_FIELD_FLAGS.get(name)
            if flag is None:
                yield self.diagnostic(
                    settings_mod,
                    field.lineno,
                    field.col_offset,
                    f"FunctionalSettings.{name} has no CLI flag mapping",
                    hint="add the --flag in repro/cli.py and register it "
                    "in CLI_FIELD_FLAGS (repro/check/rules/config_drift.py), "
                    "or list the field in NON_CLI_FIELDS",
                )
            elif flag not in flags:
                yield self.diagnostic(
                    settings_mod,
                    field.lineno,
                    field.col_offset,
                    f"FunctionalSettings.{name} maps to {flag}, which "
                    f"repro.cli no longer defines",
                    hint=f"restore the {flag} argument in repro/cli.py or "
                    "update CLI_FIELD_FLAGS",
                )
        for name in sorted(set(CLI_FIELD_FLAGS) - field_names):
            yield self.diagnostic(
                cli_mod,
                1,
                0,
                f"CLI_FIELD_FLAGS maps vanished field "
                f"FunctionalSettings.{name}",
                hint="remove the stale entry from CLI_FIELD_FLAGS",
            )

    # ------------------------------------------------------------------
    # FLocConfig <-> docs/architecture.md
    # ------------------------------------------------------------------
    def _check_config_vs_docs(self, project) -> Iterator[Diagnostic]:
        config_mod = project.get_module("repro.core.config")
        if config_mod is None:
            return
        markdown = project.read_text(DOCS_PATH)
        if markdown is None:
            return  # installed package without a docs tree: nothing to check
        fields = dataclass_fields(config_mod.tree, "FLocConfig")
        documented = docs_table_fields(markdown, DOCS_SECTION)
        if documented is None:
            yield self.diagnostic(
                config_mod,
                1,
                0,
                f"docs/architecture.md has no '{DOCS_SECTION}' section "
                f"documenting FLocConfig",
                hint=f"add a '## {DOCS_SECTION}' table with one "
                "`field` row per FLocConfig field",
            )
            return
        documented_set = set(documented)
        field_names = {f.target.id for f in fields}  # type: ignore[union-attr]
        for field in fields:
            name = field.target.id  # type: ignore[union-attr]
            if name not in documented_set:
                yield self.diagnostic(
                    config_mod,
                    field.lineno,
                    field.col_offset,
                    f"FLocConfig.{name} is missing from the "
                    f"'{DOCS_SECTION}' table in {DOCS_PATH}",
                    hint="document the field (one table row) so operators "
                    "can discover it",
                )
        for name in sorted(documented_set - field_names):
            yield self.diagnostic(
                config_mod,
                1,
                0,
                f"docs table documents `{name}`, which FLocConfig no "
                f"longer defines",
                hint=f"delete the stale row from {DOCS_PATH}",
            )
