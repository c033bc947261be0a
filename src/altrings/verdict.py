"""Three-valued verdicts shared by the hypothesis checkers and the CLI."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Verdict(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDECIDED = "undecided"

    def __str__(self):
        return self.value


class ConditionVerdict(NamedTuple):
    """One checked condition: status, explanation, optional witness vector(s)."""

    status: Verdict
    detail: str = ""
    witness: tuple | None = None
