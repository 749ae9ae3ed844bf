"""FLC004 — units consistency via identifier suffix dimensions.

The simulation has two unit systems (see :mod:`repro.units`): the
tick/packet world the engine runs in, and the seconds/Mbps world scenario
definitions are written in.  The codebase's naming convention carries the
dimension in the identifier suffix (``attack_rate_mbps``,
``warmup_seconds``, ``window_ticks``, ``packet_bytes``, ``pkts_per_tick``),
and conversions go through ``UnitScale``.

This rule is a lightweight dimensional check over that convention: adding,
subtracting, or ordering two identifiers whose suffixes resolve to
*different* dimensions is flagged (``warmup_seconds + measure_ticks``
is a bug no test will catch until a figure row is silently wrong).
Multiplication and division are exempt — they legitimately combine
dimensions (``mbps * seconds``).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.units import SUFFIX_DIMENSIONS, dimension_of

from ..astutil import terminal_identifier
from ..diagnostics import Diagnostic
from . import Rule, register

__all__ = ["SUFFIX_DIMENSIONS", "UnitsConsistencyRule", "dimension_of"]


def _operand_dimension(node: ast.AST) -> Optional[str]:
    return dimension_of(terminal_identifier(node))


@register
class UnitsConsistencyRule(Rule):
    rule_id = "FLC004"
    scope = ("repro",)

    def check(self, module) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_pair(
                    module, node, node.left, node.right, "arithmetic"
                )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for left, right in zip(operands, operands[1:]):
                    yield from self._check_pair(
                        module, node, left, right, "comparison"
                    )

    def _check_pair(
        self, module, node: ast.AST, left: ast.AST, right: ast.AST, kind: str
    ) -> Iterator[Diagnostic]:
        dim_l = _operand_dimension(left)
        dim_r = _operand_dimension(right)
        if dim_l is None or dim_r is None or dim_l == dim_r:
            return
        name_l = terminal_identifier(left)
        name_r = terminal_identifier(right)
        yield self.diagnostic(
            module,
            node.lineno,
            node.col_offset,
            f"units mismatch in {kind}: {name_l} is {dim_l} but "
            f"{name_r} is {dim_r}",
            hint="convert through repro.units.UnitScale "
            "(seconds_to_ticks, mbps_to_pkts_per_tick, ...) before "
            "combining",
        )
