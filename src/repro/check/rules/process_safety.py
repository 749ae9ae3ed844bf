"""FLC009 — cross-process write atomicity and worker-reachable state.

Two hazard classes that only exist because PR 6/7 put multiple
processes behind the same files:

* **Torn writes.**  Heartbeats, quarantine reproducers, and checkpoint
  manifests are read by *another* process (the supervisor's monitor, a
  human re-running a reproducer, a resuming run).  A plain
  ``open(path, "w")`` exposes a half-written file to those readers; the
  blessed idiom is write-to-temp + ``os.replace`` (crash-safe and atomic
  on POSIX).  The first finding this rule caught was the quarantine
  reproducer write in ``repro/fleet/pool.py`` (fixed in the same change
  that introduced the rule): a supervisor crash mid-``json.dump`` left a
  truncated reproducer that silently re-ran with the wrong payload.
* **Worker-reachable global mutation.**  FLC007 flags module-global
  mutation *inside* the fleet layers by lexical position.  That misses
  the interprocedural case: a helper in ``repro.telemetry`` or
  ``repro.net`` that mutates module state is just as wrong the moment a
  spawn worker can call it — the child mutates its own copy and the
  supervisor never sees it.  This rule walks the call graph from the
  spawn entrypoints (:func:`~repro.check.callgraph.spawn_entrypoints`)
  and applies FLC007's mutation detectors to every reachable function
  *outside* FLC007's lexical scope, reporting the call chain that makes
  the function worker-reachable.

The call graph is over-approximate (dynamic attribute calls edge to
every same-named function), so "reachable" may include functions no
worker actually runs — a conservative trade: extra edges can only widen
the checked set, never hide a mutation.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..astutil import dotted_name, resolve_call_name
from ..callgraph import CallGraph, SymbolTable, module_aliases, spawn_entrypoints
from ..diagnostics import Diagnostic
from . import ProjectRule, register
from .spawn_safety import (
    SpawnSafetyRule,
    _globals_declared,
    _local_bindings,
    _mutable_globals,
)

#: package-relative subtrees whose files another process reads
_CROSS_PROCESS_TAILS = ("fleet", "runner", "inet")

#: FLC007 already polices these lexically; don't double-report
_LEXICAL_SCOPE_TAILS = ("fleet", "runner")


def _module_tail(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else ""


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
class ProcessSafetyRule(ProjectRule):
    rule_id = "FLC009"
    description = (
        "cross-process files need atomic tmp+os.replace writes, and "
        "worker-reachable code anywhere must not mutate module globals"
    )

    def check_project(self, project) -> Iterator[Diagnostic]:
        modules = project.iter_modules()
        if not modules:
            return
        table = SymbolTable.build(modules)
        yield from self._check_torn_writes(project, modules)
        yield from self._check_reachable_mutation(project, table)

    # -- (a) torn cross-process writes ---------------------------------
    def _check_torn_writes(self, project, modules) -> Iterator[Diagnostic]:
        for module in modules:
            if _module_tail(module.module) not in _CROSS_PROCESS_TAILS:
                continue
            aliases = module_aliases(module)
            for fn in _functions(module.tree):
                replaces = _uses_os_replace(fn, aliases)
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    mode = _open_write_mode(node)
                    if mode is None or replaces:
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

    # -- (b) worker-reachable global mutation --------------------------
    def _check_reachable_mutation(
        self, project, table: SymbolTable
    ) -> Iterator[Diagnostic]:
        graph = CallGraph(table)
        roots = spawn_entrypoints(table)
        if not roots:
            return
        reachable = graph.reachable(roots)
        reported: Set[Tuple[str, str]] = set()
        for qualname in sorted(reachable):
            info = table.functions[qualname]
            if _module_tail(info.module) in _LEXICAL_SCOPE_TAILS:
                continue  # FLC007 reports these lexically
            module = project.get_module(info.module)
            if module is None:
                continue
            mutable = _mutable_globals(module.tree)
            declared = _globals_declared(info.node)
            candidates = mutable | declared
            if not candidates:
                continue
            local = _local_bindings(info.node) - declared
            reaches = {name for name in candidates if name not in local}
            if not reaches:
                continue
            for node in ast.walk(info.node):
                hit = SpawnSafetyRule._mutation_of(node, reaches, declared)
                if hit is None:
                    continue
                name, why = hit
                if (qualname, name) in reported:
                    continue
                reported.add((qualname, name))
                chain = graph.chain(roots, qualname)
                via = " -> ".join(part.rsplit(".", 1)[-1] for part in chain)
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"module-global {name!r} {why} in a function a spawn "
                    f"worker reaches ({via}); the child mutates its own "
                    "copy and serial-vs-fleet runs diverge",
                    hint="thread the state through the task payload or "
                    "result instead of module globals",
                )


def _functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub
