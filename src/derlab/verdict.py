"""Three-valued verdicts for budgeted searches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

TRUE = "true"
FALSE = "false"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    status: str  # "true" | "false" | "unknown"
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Verdict is three-valued; test .status explicitly")

    @property
    def is_true(self) -> bool:
        return self.status == TRUE

    @property
    def is_false(self) -> bool:
        return self.status == FALSE

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN
