"""FLC003 — float equality on rates, tokens, shares, and kin.

Rates, token balances, bandwidth shares, utilizations, and EWMA estimates
are accumulated floats; ``==``/``!=`` on them is at best fragile and at
worst a silent figure-row corruption (two mathematically equal rates
differing in the last ulp).  The rule flags ``==``/``!=`` where

* either operand's terminal identifier names a continuous quantity
  (``rate``, ``tokens``, ``share``, ``bandwidth``, ``util``, ``credit``,
  ``rtt``, ``mtd``, ``conformance``, ``lambda``...), or
* either operand is a non-integral float literal (``x == 0.5``).

Exemptions:

* comparison against an ALL_CAPS sentinel constant (``mtd ==
  INFINITE_MTD``) — exact comparison against an assigned sentinel such as
  ``float("inf")`` is well-defined;
* ``x == 0.0`` / ``x != 0.0`` style exact-zero guards are *not* exempt:
  write ``<= 0.0`` (or ``math.isclose``) so the intent survives
  refactoring onto accumulated values.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..astutil import is_constant_name, terminal_identifier
from ..diagnostics import Diagnostic
from . import Rule, register

#: Identifier stems naming continuous (float) quantities.
FLOAT_QUANTITY = re.compile(
    r"(^|_)(rate|rates|tokens|share|shares|bandwidth|capacity|mbps|util|"
    r"utilization|credit|rtt|mtd|conformance|lambda|ewma|fraction|headroom|"
    r"goodput|throughput)(_|$|s$)"
)


def _names_float_quantity(node: ast.AST) -> bool:
    name = terminal_identifier(node)
    if name is None:
        return False
    return FLOAT_QUANTITY.search(name.lower()) is not None


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.USub, ast.UAdd)
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    rule_id = "FLC003"
    scope = ("repro",)

    def check(self, module) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if is_constant_name(left) or is_constant_name(right):
                    continue  # sentinel comparison (e.g. INFINITE_MTD)
                suspect = (
                    _names_float_quantity(left)
                    or _names_float_quantity(right)
                    or _is_float_literal(left)
                    or _is_float_literal(right)
                )
                if not suspect:
                    continue
                yield self.diagnostic(
                    module,
                    node.lineno,
                    node.col_offset,
                    "float equality on a continuous quantity",
                    hint="use an inequality guard (<= 0.0), a tolerance "
                    "(math.isclose), or compare against an ALL_CAPS "
                    "sentinel constant",
                )
