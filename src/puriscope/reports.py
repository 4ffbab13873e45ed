"""Shared result container for every shot-based estimator."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class EstimatorReport:
    """Point estimate with its oracle reference and the shots that bought it."""

    value: float
    truth: Optional[float] = None
    shots_used: dict[str, int] = field(default_factory=dict)
    stderr: float = 0.0
    seed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def abs_error(self) -> Optional[float]:
        if self.truth is None:
            return None
        return abs(self.value - self.truth)

    def to_json(self) -> dict:
        return {**asdict(self), "abs_error": self.abs_error}
