"""Structured pass/fail records emitted by verifiers and campaigns."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .matcat import Morphism

PASS = "pass"
FAIL = "fail"
INFEASIBLE = "infeasible"
ERROR = "error"  # the check raised, or drew no sample, instead of reaching a verdict
NO_SAMPLE = "no sample drawn"  # the `error` detail of a check that drew no sample


def worse(*residuals: float) -> float:
    """The largest residual, or NaN if any residual is NaN.

    Plain max() drops a NaN that is not its first argument
    (max(0.0, nan) == 0.0), which would let a NaN residual pass; every
    verdict compares the result with `<=`, so NaN fails it.
    """
    for r in residuals:
        if r != r:
            return math.nan
    return max(residuals)


@dataclass
class Report:
    """Outcome of one axiom or lemma check.

    `witness` carries a counterexample (on failure) or the constructed
    certificate morphism (on structural infeasibility arguments).
    """

    axiom: str
    field: str
    status: str
    residual: float = 0.0
    witness: Optional[Morphism] = None
    details: dict = dc_field(default_factory=dict)

    def text_line(self) -> str:
        """The one-line text form of the report, as streamed and printed."""
        return (f"[{self.status.upper()}] {self.axiom} "
                f"field={self.field} residual={self.residual:.3e}")

    def to_json(self) -> dict:
        data = {
            "axiom": self.axiom,
            "field": self.field,
            "status": self.status,
            "residual": float(self.residual),
            "witness": self.witness.to_json() if self.witness is not None else None,
        }
        if self.details:
            data["details"] = self.details
        return data
