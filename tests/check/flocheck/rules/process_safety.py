"""FLC009 — cross-process write atomicity.

Heartbeats, quarantine reproducers, and checkpoint manifests are read by
*another* process (the supervisor's monitor, a human re-running a
reproducer, a resuming run).  A plain ``open(path, "w")`` exposes a
half-written file to those readers; the blessed idiom is write-to-temp +
``os.replace`` (crash-safe and atomic on POSIX).  The first finding this
rule caught was the quarantine reproducer write in
``repro/fleet/pool.py`` (fixed in the same change that introduced the
rule): a supervisor crash mid-``json.dump`` left a truncated reproducer
that silently re-ran with the wrong payload.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutil import dotted_name, resolve_call_name
from ..diagnostics import Diagnostic
from . import Rule, register


def _open_write_mode(call: ast.Call) -> Optional[str]:
    if dotted_name(call.func) != "open":
        return None
    mode: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(ch in mode.value for ch in "wax"):
            return mode.value
    return None


def _uses_os_replace(fn: ast.AST, aliases) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if resolve_call_name(node.func, aliases) == "os.replace":
                return True
    return False


@register
class ProcessSafetyRule(Rule):
    rule_id = "FLC009"
    #: subtrees whose files another process reads
    scope = ("repro.fleet", "repro.runner", "repro.inet")

    def check(self, module) -> Iterator[Diagnostic]:
        for fn in _functions(module.tree):
            if _uses_os_replace(fn, module.import_aliases):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                mode = _open_write_mode(node)
                if mode is None:
                    continue
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"open(..., {mode!r}) on a file another process "
                    "may read, with no os.replace in sight; a crash "
                    "mid-write leaves a torn file for the reader",
                    hint="write to a temp name in the same directory "
                    "and os.replace() it into place (see "
                    "fleet.heartbeat._atomic_write_text)",
                )


def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub
