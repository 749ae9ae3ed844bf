"""Symbol table, call graph, and spawn-entrypoint reachability.

The per-module rules (FLC001–FLC007) see one AST at a time, which is
exactly as far as they can reason: a wall-clock read is wrong wherever
it sits.  The PR-6/7 fabric broke that locality — whether a function may
mutate module-global state now depends on whether a *spawn worker* can
ever reach it, and whether a value may feed a run digest depends on who
called the function that produced it.  This module supplies the shared
whole-project layer those rules need:

* :class:`SymbolTable` — every function and method of the project,
  keyed by dotted qualname (``repro.fleet.worker.worker_main``,
  ``repro.runner.figures.FigureUnitTask.run``), with each module's import
  aliases alongside.
* :class:`CallGraph` — best-effort static call edges between those
  functions.  Resolution is deliberately *over-approximate* where
  Python is dynamic: a call through a bare attribute (``task.run(ctx)``)
  edges to **every** known function of that simple name, because the
  fleet's task dispatch is exactly such a call and missing it would
  blind the reachability analysis.  Over-approximation is conservative
  for the consumers here — they prove the *absence* of hazards on
  reachable code, so extra edges can only widen coverage, never hide a
  defect.
* :func:`spawn_entrypoints` — the roots a spawn worker executes:
  ``*main`` functions of the ``fleet.worker`` module and every ``run``
  method of the task descriptors, which live next to what they
  describe (:data:`TASK_MODULES`).

Known blind spots (documented in ``docs/architecture.md``): calls
through variables holding callables, ``getattr`` dispatch, decorators
that swap the function body, and inheritance (a method call resolves by
name, not by MRO).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set

from .astutil import dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine import SourceModule

__all__ = [
    "CallGraph",
    "FunctionInfo",
    "SymbolTable",
    "module_aliases",
    "spawn_entrypoints",
]


#: Module tails whose classes are the task descriptors the pool
#: dispatches: their ``run`` methods execute inside spawn workers.
TASK_MODULES = ("runner.figures", "chaos.engine")


def module_aliases(module: "SourceModule") -> Dict[str, str]:
    """Import aliases of a module, *including* relative imports.

    :func:`~repro.check.astutil.import_aliases` deliberately ignores
    relative imports (the per-module rules only care about stdlib
    shadowing), but the call graph lives or dies on them — nearly every
    cross-module edge in this package is a ``from .foo import bar``.
    Resolve them against the module's own dotted name:
    ``from ..runner.checkpoint import CheckpointStore`` inside
    ``repro.fleet.worker`` binds ``CheckpointStore`` to
    ``repro.runner.checkpoint.CheckpointStore``.
    """
    aliases = dict(module.import_aliases)
    parts = module.module.split(".")
    # for a package __init__, `.` refers to the package itself
    anchor = parts if module.relpath.endswith("__init__.py") else parts[:-1]
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        up = node.level - 1
        if up > len(anchor):
            continue
        base = anchor[: len(anchor) - up] if up else list(anchor)
        if node.module:
            base = base + node.module.split(".")
        if not base:
            continue
        prefix = ".".join(base)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            aliases[local] = f"{prefix}.{alias.name}"
    return aliases


@dataclass
class FunctionInfo:
    """One function or method of the project."""

    qualname: str  # module-dotted: repro.runner.figures.FigureUnitTask.run
    module: str
    cls: Optional[str]  # enclosing class name, None for top-level
    name: str
    node: ast.AST  # the FunctionDef / AsyncFunctionDef
    lineno: int

    @property
    def is_method(self) -> bool:
        return self.cls is not None


class SymbolTable:
    """Functions, methods, and import aliases of a set of modules."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple name -> qualnames (for attribute-call over-approximation)
        self.by_name: Dict[str, List[str]] = {}
        #: module -> {local binding: imported dotted name}
        self.aliases: Dict[str, Dict[str, str]] = {}
        #: module -> class names defined in it
        self.classes: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, modules: Iterable["SourceModule"]) -> "SymbolTable":
        table = cls()
        for module in modules:
            table._index_module(module)
        return table

    def _index_module(self, module: "SourceModule") -> None:
        self.aliases[module.module] = module_aliases(module)
        self.classes.setdefault(module.module, set())
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(module.module, None, node)
            elif isinstance(node, ast.ClassDef):
                self.classes[module.module].add(node.name)
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add(module.module, node.name, sub)

    def _add(self, module: str, cls: Optional[str], node: ast.AST) -> None:
        parts = [module] + ([cls] if cls else []) + [node.name]
        qualname = ".".join(parts)
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            cls=cls,
            name=node.name,
            node=node,
            lineno=node.lineno,
        )
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(qualname)

    def get(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def in_module(self, module: str) -> List[FunctionInfo]:
        return [f for f in self.functions.values() if f.module == module]


class CallGraph:
    """Static call edges between the symbol table's functions."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.edges: Dict[str, Set[str]] = {q: set() for q in table.functions}
        for info in table.functions.values():
            self.edges[info.qualname] = self._edges_of(info)

    # -- resolution ----------------------------------------------------
    def _edges_of(self, info: FunctionInfo) -> Set[str]:
        aliases = self.table.aliases.get(info.module, {})
        targets: Set[str] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            targets.update(self._resolve_call(info, node, aliases))
        targets.discard(info.qualname)
        return targets

    def _resolve_call(
        self, info: FunctionInfo, call: ast.Call, aliases: Dict[str, str]
    ) -> Set[str]:
        name = dotted_name(call.func)
        if name is None:
            # dynamic callee (subscription, call-of-call): resolve the
            # terminal attribute if there is one, else give up
            if isinstance(call.func, ast.Attribute):
                return self._by_simple_name(call.func.attr)
            return set()
        head, _, rest = name.partition(".")

        # self.meth() / cls.meth(): same-class first, then same-module
        if head in ("self", "cls") and rest and "." not in rest:
            if info.cls is not None:
                qual = f"{info.module}.{info.cls}.{rest}"
                if qual in self.table.functions:
                    return {qual}
            return self._by_simple_name(rest)

        full_head = aliases.get(head, head)
        candidates = []
        if rest:
            # module.func, module.Class.method, Class.method, obj.meth
            candidates.append(f"{full_head}.{rest}")
            candidates.append(f"{info.module}.{full_head}.{rest}")
        else:
            # bare name: from-import target, else module-local
            candidates.append(full_head)
            candidates.append(f"{info.module}.{full_head}")
        for qual in candidates:
            if qual in self.table.functions:
                return {qual}
            # ClassName(...) instantiates: edge to __init__
            init = f"{qual}.__init__"
            if init in self.table.functions:
                return {init}
        # unresolved attribute call: over-approximate by simple name
        terminal = name.rsplit(".", 1)[-1]
        if "." in name:
            return self._by_simple_name(terminal)
        return set()

    def _by_simple_name(self, simple: str) -> Set[str]:
        return set(self.table.by_name.get(simple, ()))

    # -- queries -------------------------------------------------------
    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Transitive closure of the call edges from ``roots``."""
        seen: Set[str] = set()
        frontier = [root for root in roots if root in self.edges]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, ()))
        return seen

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.edges.values())

    def chain(self, roots: Sequence[str], target: str) -> List[str]:
        """Shortest root→target call chain, as qualnames ([] if none).

        Used to explain *why* a function counts as worker-reachable in
        FLC009 messages.
        """
        parents: Dict[str, Optional[str]] = {
            root: None for root in roots if root in self.edges
        }
        frontier = list(parents)
        while frontier:
            next_frontier: List[str] = []
            for current in frontier:
                if current == target:
                    chain: List[str] = []
                    cursor: Optional[str] = current
                    while cursor is not None:
                        chain.append(cursor)
                        cursor = parents[cursor]
                    return list(reversed(chain))
                for callee in sorted(self.edges.get(current, ())):
                    if callee not in parents:
                        parents[callee] = current
                        next_frontier.append(callee)
            frontier = next_frontier
        return []


def spawn_entrypoints(table: SymbolTable) -> List[str]:
    """Roots a spawn worker executes, in deterministic order.

    * every top-level ``*main`` function of a ``*.fleet.worker`` module
      (the process body handed to ``Process(target=...)``), and
    * every ``run`` method of a class in a :data:`TASK_MODULES` module (the
      task descriptors the pool dispatches dynamically).
    """
    roots: List[str] = []
    for info in table.functions.values():
        module_tail = info.module.split(".", 1)[-1]
        if (
            info.cls is None
            and info.name.endswith("main")
            and (
                module_tail.endswith("fleet.worker")
                or module_tail == "fleet.worker"
            )
        ):
            roots.append(info.qualname)
        elif (
            info.cls is not None
            and info.name == "run"
            and info.module.endswith(TASK_MODULES)
        ):
            roots.append(info.qualname)
    return sorted(roots)
