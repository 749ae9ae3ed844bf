"""FLC010 — numpy views aliasing into persisted or shipped state.

The in-process-vs-pool byte-identity guarantee assumes that what a
worker persists (checkpoint payloads, pickles) is a *snapshot*.  A numpy
view — a slice, ``reshape``, ``ravel``, ``transpose`` — is not: it
shares memory with the live simulation arrays, so a sink that holds the
reference past the call (a telemetry registry, a result kept until a
later pickle) records whatever the simulation mutated it into, not what
it was when handed over.  That failure is silent and order-dependent —
the exact bug class that breaks byte-identity only at scale.

The rule runs the forward dataflow pass (:mod:`repro.check.dataflow`)
per function with *view* taint:

* sources: slice subscripts (``vec[a:b]``), view-producing calls
  (``.reshape``, ``.ravel``, ``.view``, ``.transpose``, ``np.asarray``
  — which returns its argument un-copied when it is already an array);
* sanitizers: ``.copy()``, ``np.array`` (copies by default),
  ``.astype``, ``.tolist``, ``.item``, ``np.ascontiguousarray``;
* everything else launders: unlike purity taint, almost every library
  call (``np.sum``, ``np.where``) returns fresh memory, so unknown
  calls do **not** propagate view taint (``calls_propagate=False``);
* sinks: ``CheckpointStore.save`` payloads and ``pickle.dumps``.

A second, order-aware pass flags in-place mutation (``buf[i] = ...``,
``buf += ...``) of a variable *after* it was handed to one of those
sinks in the same function — legal only when the sink got a copy.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..astutil import dotted_name, resolve_call_name
from ..dataflow import SinkSpec, TaintPolicy, analyze_function
from ..diagnostics import Diagnostic
from . import Rule, register

#: method terminals that return a view of their receiver
VIEW_METHODS = {
    "reshape": "reshape() returns a view when strides allow",
    "ravel": "ravel() returns a view when contiguous",
    "view": "view() always aliases",
    "transpose": "transpose() always aliases",
    "swapaxes": "swapaxes() always aliases",
    "squeeze": "squeeze() returns a view",
    "diagonal": "diagonal() returns a read-only view",
    "asarray": "np.asarray() returns its argument un-copied",
    "atleast_1d": "np.atleast_1d() aliases array inputs",
    "frombuffer": "np.frombuffer() aliases the buffer",
}

#: call results that are fresh memory (erase view taint)
SANITIZERS = {
    "copy",
    "array",  # np.array copies by default
    "ascontiguousarray",
    "astype",
    "tolist",
    "item",
    "deepcopy",
}


def _checkpoint_save(
    call: ast.Call, resolved: Optional[str], terminal: Optional[str]
) -> Optional[str]:
    if terminal == "save" and len(call.args) + len(call.keywords) >= 3:
        return "a checkpoint payload"
    return None


def _pickle_dumps(
    call: ast.Call, resolved: Optional[str], terminal: Optional[str]
) -> Optional[str]:
    if terminal == "dumps" and resolved is not None and (
        resolved.startswith("pickle.") or resolved.endswith(".pickle.dumps")
    ):
        return "a pickled payload"
    return None


def _policy() -> TaintPolicy:
    return TaintPolicy(
        source_terminals={
            name: ("view", why) for name, why in VIEW_METHODS.items()
        },
        sanitizers=set(SANITIZERS),
        sinks=[
            SinkSpec(match=_checkpoint_save, args=[2], kwargs=("obj",)),
            SinkSpec(match=_pickle_dumps, args="all"),
        ],
        view_subscripts=True,
        calls_propagate=False,
    )


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub


@register
class ArrayAliasingRule(Rule):
    rule_id = "FLC010"
    description = (
        "numpy views and in-place mutations must not reach persisted "
        "state (checkpoints, pickles)"
    )
    scope = ("repro.inet", "repro.fleet", "repro.runner")

    def check(self, module) -> Iterator[Diagnostic]:
        aliases = module.import_aliases
        policy = _policy()
        for fn in _functions(module.tree):
            summary = analyze_function(fn, aliases, policy)
            for hit in summary.hits:
                if hit.taint.kind != "view":
                    continue
                yield self.diagnostic(
                    module,
                    hit.line,
                    hit.col,
                    f"array view ({hit.taint.detail}, line "
                    f"{hit.taint.line}) flows into {hit.sink}; it shares "
                    "memory with live simulation state, so later "
                    "mutation silently changes what was persisted",
                    hint="hand the sink an explicit .copy()",
                )
            yield from self._check_mutation_after_sink(module, fn, policy)

    # -- in-place mutation after the sink took a reference -------------
    def _check_mutation_after_sink(
        self, module, fn: ast.AST, policy: TaintPolicy
    ) -> Iterator[Diagnostic]:
        sunk: Dict[str, tuple] = {}  # var key -> (label, lineno)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            resolved, terminal = _call_names(node, module)
            for spec in policy.sinks:
                label = spec.match(node, resolved, terminal)
                if label is None:
                    continue
                for expr in spec.argument_exprs(node):
                    key = _plain_key(expr)
                    if key is not None and key not in sunk:
                        sunk[key] = (label, node.lineno)
        if not sunk:
            return
        for node in ast.walk(fn):
            key, how = _in_place_target(node)
            if key is None or key not in sunk:
                continue
            label, sink_line = sunk[key]
            if node.lineno <= sink_line:
                continue
            yield self.diagnostic(
                module,
                node.lineno,
                node.col_offset,
                f"{key!r} is {how} after being handed to {label} on line "
                f"{sink_line}; if the sink kept a reference, the "
                "persisted value just changed under it",
                hint=f"pass {key}.copy() to the sink, or finish mutating "
                "before persisting",
            )


def _call_names(call: ast.Call, module):
    resolved = resolve_call_name(call.func, module.import_aliases)
    terminal = resolved.rsplit(".", 1)[-1] if resolved else None
    if terminal is None and isinstance(call.func, ast.Attribute):
        terminal = call.func.attr
    return resolved, terminal


def _plain_key(expr: ast.AST) -> Optional[str]:
    """A bare variable (not a call/copy) handed to a sink."""
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return dotted_name(expr)
    return None


def _in_place_target(node: ast.AST):
    if isinstance(node, ast.AugAssign):
        key = _subscript_base(node.target) or dotted_name(node.target)
        if key is not None:
            return key, "mutated in place (augmented assignment)"
    if isinstance(node, ast.Assign):
        for target in node.targets:
            key = _subscript_base(target)
            if key is not None:
                return key, "mutated in place (item assignment)"
    return None, ""


def _subscript_base(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        return dotted_name(node.value)
    return None
