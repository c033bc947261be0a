"""Three-valued verdicts shared by the hypothesis checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDED = "undecided"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ConditionVerdict:
    """One checked condition: status, explanation, optional witness vector(s)."""

    status: Verdict
    detail: str = ""
    witness: tuple | None = None
