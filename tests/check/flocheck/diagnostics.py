"""Structured diagnostics emitted by flocheck rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    Every rule reports ``ERROR``: a finding breaks determinism,
    resumability, or correctness outright, and fails a run unless
    suppressed.
    """

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: rule id, location, message, and a fix hint."""

    rule_id: str
    severity: Severity
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self, show_hint: bool = True) -> str:
        """Render ``path:line:col: RULE severity: message``."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )
        if show_hint and self.hint:
            text += f"\n    hint: {self.hint}"
        return text
