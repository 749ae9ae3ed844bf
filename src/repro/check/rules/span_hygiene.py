"""FLC012 — span hygiene: every span closes, trace state never pickles.

The tracing layer (:mod:`repro.trace`) hands out
:class:`~repro.trace.spans.SpanHandle` objects whose ``end()`` writes
the closing record.  A span that is opened and never closed shows up in
the merged timeline as *truncated* — tolerable for a SIGKILLed worker,
a bug everywhere else.  This rule enforces the closure discipline
lexically at every ``*.span(...)`` call site; accepted shapes:

* ``with tracer.span(...)``, or ``with`` over a name the span was
  assigned to — the context manager closes it on any exit;
* assignment to a name that is later ``end()``-ed inside a
  ``try``/``finally`` ``finally`` block (the supervisor's pattern for
  spans whose result arguments are only known at the end);
* assignment (directly or via a local name) into an attribute or a
  subscript — a *stored* span owned by long-lived state, closed in a
  different method (the fleet pool's ``task_spans`` pattern, where open
  and close happen in different supervision sweeps);
* ``return``-ing the handle — ownership moves to the caller.

A bare ``tracer.span(...)`` expression statement, or a local assignment
with none of the above, leaks an open span and is flagged.

The second half guards the digest boundary *inside* ``repro.trace``:
span timestamps are wall-clock readings (the FLC001 carve-out for
``repro.trace.clock``) and must only ever reach per-process JSONL text
files.  Any ``pickle.*`` call in the package, and any ``__getstate__``
that returns a non-empty payload, would let wall-clock state ride into
checkpoints or digests — both are flagged.  Fixed-at-zero on the tree,
like FLC009–FLC011.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..astutil import resolve_call_name
from ..diagnostics import Diagnostic
from . import Rule, register

#: call-site spellings (last dotted segment) that produce a tracer
TRACER_FACTORIES = frozenset({"current_tracer", "Tracer", "NullTracer"})


def _is_span_open(node: ast.Call, aliases: Dict[str, str]) -> bool:
    """Is this call ``<tracer-ish>.span(...)``?

    The receiver must *look like* a tracer — a name or attribute whose
    final segment mentions ``tracer``, or a direct call to one of the
    :data:`TRACER_FACTORIES` — so unrelated ``.span`` attributes in
    other domains never match.
    """
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "span":
        return False
    recv = func.value
    if isinstance(recv, ast.Name):
        return "tracer" in recv.id.lower()
    if isinstance(recv, ast.Attribute):
        return "tracer" in recv.attr.lower()
    if isinstance(recv, ast.Call):
        name = resolve_call_name(recv.func, aliases)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in TRACER_FACTORIES
    return False


def _finally_ended_names(tree: ast.AST) -> Set[str]:
    """Names ``n`` with an ``n.end(...)`` call inside a ``finally`` block."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "end"
                    and isinstance(sub.func.value, ast.Name)
                ):
                    names.add(sub.func.value.id)
    return names


def _with_names(tree: ast.AST) -> Set[str]:
    """Names used directly as a ``with`` context expression."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Name):
                    names.add(item.context_expr.id)
    return names


def _stored_names(tree: ast.AST) -> Set[str]:
    """Names later stored into an attribute or subscript (span escapes
    into long-lived owner state, closed elsewhere)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            )
        ):
            names.add(node.value.id)
    return names


def _owned_call_ids(tree: ast.AST) -> Tuple[Set[int], Dict[int, str]]:
    """(ids of calls in owning positions, call id -> assigned local name).

    Owning positions close the span by construction: a ``with`` item,
    a ``return`` value, or an assignment straight into attribute or
    subscript state.  A plain-name assignment is recorded for the
    second-chance checks (``finally``-end, later ``with``, later store).
    """
    owned: Set[int] = set()
    assigned: Dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                owned.add(id(item.context_expr))
        elif isinstance(node, ast.Return) and node.value is not None:
            owned.add(id(node.value))
        elif isinstance(node, ast.Assign):
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                owned.add(id(node.value))
            elif len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name
            ):
                assigned[id(node.value)] = node.targets[0].id
    return owned, assigned


def _getstate_is_empty(fn: ast.FunctionDef) -> bool:
    """Does every ``return`` in ``__getstate__`` yield an empty payload?"""
    empty = True
    for node in ast.walk(fn):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Dict) and not value.keys:
            continue
        if isinstance(value, ast.Tuple) and not value.elts:
            continue
        if isinstance(value, ast.Constant) and value.value is None:
            continue
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "tuple")
            and not value.args
            and not value.keywords
        ):
            continue
        empty = False
    return empty


@register
class SpanHygieneRule(Rule):
    rule_id = "FLC012"
    description = (
        "spans must close (with / try-finally end / stored handle), and "
        "repro.trace must keep wall-clock state out of pickles"
    )

    def check(self, module) -> Iterator[Diagnostic]:
        aliases = module.import_aliases
        yield from self._check_span_closure(module, aliases)
        if module.module == "repro.trace" or module.module.startswith(
            "repro.trace."
        ):
            yield from self._check_trace_persistence(module, aliases)

    def _check_span_closure(
        self, module, aliases: Dict[str, str]
    ) -> Iterator[Diagnostic]:
        owned, assigned = _owned_call_ids(module.tree)
        ended = _finally_ended_names(module.tree)
        withed = _with_names(module.tree)
        stored = _stored_names(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not _is_span_open(node, aliases):
                continue
            if id(node) in owned:
                continue
            name = assigned.get(id(node))
            if name is not None and (
                name in ended or name in withed or name in stored
            ):
                continue
            detail = (
                f"span assigned to {name!r} is never closed"
                if name is not None
                else "span opened and immediately dropped"
            )
            yield self.diagnostic(
                module,
                node.lineno,
                node.col_offset,
                f"{detail}; it will show up truncated in every merged "
                "timeline",
                hint="close it: `with tracer.span(...)`, end() in a "
                "try/finally, or store the handle on owner state that "
                "ends it later",
            )

    def _check_trace_persistence(
        self, module, aliases: Dict[str, str]
    ) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = resolve_call_name(node.func, aliases)
                if name is not None and name.startswith("pickle."):
                    yield self.diagnostic(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"{name}() inside repro.trace: span state holds "
                        "wall-clock readings and must never be pickled",
                        hint="spans belong in the per-process JSONL "
                        "files; anything picklable must pickle empty "
                        "(see Tracer.__getstate__)",
                    )
            elif (
                isinstance(node, ast.FunctionDef)
                and node.name == "__getstate__"
                and not _getstate_is_empty(node)
            ):
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    "__getstate__ in repro.trace returns a non-empty "
                    "payload; wall-clock span state would ride into "
                    "checkpoints and digests",
                    hint="return {} (and have __setstate__ reinitialise "
                    "as a disabled tracer), the TickProfiler idiom",
                )


# re-exported so tests and docs can reference the accepted shapes
ACCEPTED_CLOSURE_SHAPES: List[str] = [
    "with tracer.span(...)",
    "name = tracer.span(...) + try/finally name.end()",
    "owner.attr = tracer.span(...) / owner[key] = handle (stored)",
    "return tracer.span(...) (ownership moves to the caller)",
]
