"""FLC002 — checkpoint/pickle safety: no closures in checkpointed state.

The scheduler (:func:`repro.fleet.pool.run_fleet`) pickles its tasks
across a spawn and their results into the checkpoint store.  ``pickle``
cannot serialise lambdas, closures over local state, or local classes —
and the failure surfaces *when the task is shipped or its result
stored*, not at construction.  This rule flags the two ways such objects
get installed into checkpoint-reachable state:

* a ``lambda`` (or a nested ``def``) passed as any argument to a
  checkpoint sink — the scheduler entry point ``run_fleet(...)``, whose
  tasks and results are pickled into the store (and across a spawn);
* a ``lambda`` assigned onto an instance attribute (``self.x = lambda``,
  including defaulting forms like ``self._log = log or (lambda: None)``)
  inside the runner/CLI layer, where instances end up in pickled state.

Fix pattern: a small module-level function (picklable by qualified name)
instead of the inline closure.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..astutil import dotted_name
from ..diagnostics import Diagnostic
from . import Rule, register

#: Callee names (terminal segment) whose arguments become pickled state.
CHECKPOINT_SINKS = frozenset({"run_fleet"})

#: Modules where instance attributes are reachable from pickled state.
#: repro.chaos instances (CampaignJob, injectors inside specs) ride
#: through the scheduler's checkpoints.
ATTRIBUTE_SCOPE = ("repro.runner", "repro.cli", "repro.chaos")


def _callee_terminal(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def _contains_lambda(node: ast.AST) -> Optional[ast.Lambda]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Lambda):
            return sub
    return None


@register
class PickleSafetyRule(Rule):
    rule_id = "FLC002"
    scope = ("repro",)

    def check(self, module) -> Iterator[Diagnostic]:
        in_attr_scope = any(
            module.module == p or module.module.startswith(p + ".")
            for p in ATTRIBUTE_SCOPE
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif in_attr_scope and isinstance(node, (ast.Assign, ast.AugAssign)):
                yield from self._check_attribute_assign(module, node)

    def _check_call(self, module, call: ast.Call) -> Iterator[Diagnostic]:
        callee = _callee_terminal(call)
        if callee not in CHECKPOINT_SINKS:
            return
        args = list(call.args) + [kw.value for kw in call.keywords]
        for arg in args:
            lam = _contains_lambda(arg)
            if lam is not None:
                yield self.diagnostic(
                    module,
                    lam.lineno,
                    lam.col_offset,
                    f"lambda passed into checkpoint sink {callee}(); the "
                    f"resulting state cannot be pickled",
                    hint="replace the lambda with a module-level function "
                    "(picklable by qualified name)",
                )

    def _check_attribute_assign(self, module, node) -> Iterator[Diagnostic]:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        has_self_attr = any(
            isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in targets
        )
        if not has_self_attr:
            return
        lam = _contains_lambda(node.value)
        if lam is not None:
            yield self.diagnostic(
                module,
                lam.lineno,
                lam.col_offset,
                "lambda stored on an instance attribute in the runner "
                "layer; pickling the instance (checkpoint, salvage) fails",
                hint="assign a module-level function instead, e.g. "
                "def _null_log(message): ...; self._log = log or _null_log",
            )
