"""FLC007 — spawn safety: what may cross the fleet's process boundary.

The fleet (:mod:`repro.fleet`) starts workers with the ``spawn`` method:
a child shares *nothing* with the supervisor — tasks travel by pickle
and module globals are re-imported fresh on the other side.  Two bug
classes follow, both invisible until a worker actually runs:

* **Non-picklable payloads.**  A lambda or nested function passed into a
  fleet submission sink (``run_fleet``, a worker ``Process`` target, a
  task queue ``put``) dies in ``ForkingPickler`` at dispatch time — or
  worse, only when that code path is first exercised mid-run.
* **Module-global mutable state.**  A worker-side function mutating a
  module-level list/dict/set silently updates the *child's* copy; the
  supervisor never sees it, and serial-vs-fleet runs diverge.  All fleet
  state must live on instances that are explicitly shipped or reduced.

The rule also rejects ``fork``/``forkserver`` start methods inside the
supervised layers: the repo's determinism story (and macOS/Windows
support) is built on ``spawn``, and a forked child inheriting live
threads (heartbeat pulses, watchdogs) deadlocks unpredictably.

Fix patterns: module-level functions for anything submitted; frozen
dataclass recipes for task payloads; per-run state objects (see
``_FleetRun``) instead of globals; ``get_context("spawn")``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutil import dotted_name
from ..diagnostics import Diagnostic
from . import Rule, register

#: Callee terminal names whose arguments are shipped to spawn workers.
SUBMISSION_SINKS = frozenset({"run_fleet", "Process", "put", "put_nowait"})

#: Method names that mutate a list/dict/set in place.
MUTATORS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert",
        "add", "update", "setdefault", "pop", "popitem", "remove",
        "discard", "clear",
    }
)

#: AST nodes that build a mutable container literal.
MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)

#: Constructor names that build a mutable container.
MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


def _is_mutable_value(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.rsplit(".", 1)[-1] in MUTABLE_CALLS:
            return True
    return False


def _mutable_globals(tree: ast.Module) -> Set[str]:
    """Module-level names bound to mutable container values."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_mutable_value(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and _is_mutable_value(node.value):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _bound_names(target: ast.AST) -> Iterator[str]:
    """Plain names a target expression binds.

    ``x = ...`` binds ``x``; ``x[k] = ...`` and ``x.a = ...`` mutate an
    existing object and bind nothing — walking into them would hide
    exactly the global-mutation pattern this rule exists to catch.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _bound_names(element)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names the function binds itself (params, assignments, loops)."""
    bound: Set[str] = set()
    args = fn.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        bound.add(arg.arg)
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bound.update(_bound_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            bound.update(_bound_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            bound.update(_bound_names(node.optional_vars))
    return bound


def _globals_declared(fn: ast.AST) -> Set[str]:
    return {
        name
        for node in ast.walk(fn)
        if isinstance(node, ast.Global)
        for name in node.names
    }


def _contains_unpicklable(node: ast.AST) -> Optional[ast.AST]:
    """A lambda or nested ``def`` reference anywhere inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            return sub
    return None


@register
class SpawnSafetyRule(Rule):
    rule_id = "FLC007"
    scope = ("repro.fleet", "repro.runner")

    def check(self, module) -> Iterator[Diagnostic]:
        mutable = _mutable_globals(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_submission(module, node)
                yield from self._check_start_method(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_global_mutation(module, node, mutable)

    # -- non-picklable payloads ----------------------------------------
    def _check_submission(self, module, call: ast.Call) -> Iterator[Diagnostic]:
        name = dotted_name(call.func)
        if name is None or name.rsplit(".", 1)[-1] not in SUBMISSION_SINKS:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            bad = _contains_unpicklable(arg)
            if bad is not None:
                yield self.diagnostic(
                    module,
                    bad.lineno,
                    bad.col_offset,
                    "lambda in a payload handed to a spawn submission "
                    f"sink ({name.rsplit('.', 1)[-1]}); spawn workers "
                    "receive arguments by pickle, which rejects it",
                    hint="ship a frozen-dataclass recipe or a module-level "
                    "function instead (picklable by qualified name)",
                )

    # -- start method --------------------------------------------------
    def _check_start_method(self, module, call: ast.Call) -> Iterator[Diagnostic]:
        name = dotted_name(call.func)
        if name is None:
            return
        terminal = name.rsplit(".", 1)[-1]
        if terminal not in ("get_context", "set_start_method"):
            return
        if not call.args:
            return
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and arg.value != "spawn":
            yield self.diagnostic(
                module,
                call.lineno,
                call.col_offset,
                f"{terminal}({arg.value!r}) in the supervised layer; "
                "forked children inherit live threads (heartbeats, "
                "watchdogs) and break the shared-nothing contract",
                hint='use get_context("spawn")',
            )

    # -- module-global mutation ----------------------------------------
    def _check_global_mutation(
        self, module, fn: ast.AST, mutable: Set[str]
    ) -> Iterator[Diagnostic]:
        declared = _globals_declared(fn)
        candidates = (mutable | declared) if mutable or declared else set()
        if not candidates:
            return
        local = _local_bindings(fn) - declared
        reaches = {name for name in candidates if name not in local}
        if not reaches:
            return
        for node in ast.walk(fn):
            hit = self._mutation_of(node, reaches, declared)
            if hit is not None:
                name, why = hit
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"module-global {name!r} {why} inside a fleet-layer "
                    "function; spawn workers mutate their own copy and "
                    "the supervisor never sees it",
                    hint="keep per-run state on an instance that is "
                    "explicitly shipped or reduced (see _FleetRun)",
                )

    @staticmethod
    def _mutation_of(node: ast.AST, names: Set[str], declared: Set[str]):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            if (
                isinstance(target, ast.Name)
                and target.id in names
                and node.func.attr in MUTATORS
            ):
                return target.id, f"mutated via .{node.func.attr}()"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    return target.value.id, "item-assigned"
                if isinstance(target, ast.Name) and target.id in declared:
                    return target.id, "rebound via `global`"
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    return target.value.id, "item-deleted"
        return None
