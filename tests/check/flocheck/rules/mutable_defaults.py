"""FLC005 — mutable default arguments and aliased shared buffers.

A mutable default (``def f(history=[])``, ``buf=np.zeros(n)``) is
evaluated once at definition time and shared by every call — in policy
and simulator constructors this aliases state *across simulator
instances*, so two runs in one process contaminate each other and a
"fresh" resumed simulator silently shares arrays with the original.
The hazard class includes numpy buffers (``np.zeros``/``ones``/
``empty``/``array``/``full``) where the aliasing additionally defeats
checkpoint isolation: the pickled copy diverges from the live shared one.

Fix pattern: default to ``None`` and materialise inside the function, or
use ``dataclasses.field(default_factory=...)`` with a factory returning a
*fresh* object.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..astutil import dotted_name
from ..diagnostics import Diagnostic
from . import Rule, register

#: Callee terminal names whose results are shared mutable objects.
MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "deque",
        "defaultdict",
        "Counter",
        "OrderedDict",
        "bytearray",
        "zeros",
        "ones",
        "empty",
        "full",
        "array",
        "arange",
        "zeros_like",
        "ones_like",
    }
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        return name.rsplit(".", 1)[-1] in MUTABLE_FACTORIES
    return False


@register
class MutableDefaultRule(Rule):
    rule_id = "FLC005"
    scope = ("repro",)

    def check(self, module) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    label = (
                        "<lambda>"
                        if isinstance(node, ast.Lambda)
                        else node.name
                    )
                    yield self.diagnostic(
                        module,
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {label}(); the "
                        f"object is created once and shared by every call",
                        hint="default to None and create the object inside "
                        "the function (or use field(default_factory=...))",
                    )
