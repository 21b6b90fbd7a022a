"""Wilson score confidence intervals for grasp success trials.

The Wilson interval stays well-behaved at the small sample sizes typical of
physical grasp experiments (10 trials per object) and never leaves [0, 1].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class TrialRecord:
    """Success count out of a number of trials, with the z critical value."""

    successes: int
    trials: int
    z: float = 1.96
    name: str = ""

    def __post_init__(self):
        for field, value in (("successes", self.successes), ("trials", self.trials)):
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):  # numpy ints pass
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")
        if not (math.isfinite(self.z) and self.z > 0):
            raise ValueError(f"z must be positive and finite, got {self.z}")

    @property
    def rate(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float


def wilson_ci(rec: TrialRecord) -> ConfidenceInterval:
    """Wilson score interval for the success proportion.

    Centre and margin are the score-test inversion
    (p + z^2/2n +- z*sqrt(p(1-p)/n + z^2/4n^2)) / (1 + z^2/n),
    clamped to [0, 1].
    """
    p = rec.rate
    n = rec.trials
    z2 = rec.z * rec.z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    margin = (rec.z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n))
    return ConfidenceInterval(
        lower=max(0.0, centre - margin),
        upper=min(1.0, centre + margin),
    )


def batch_ci(records: list[TrialRecord]) -> list[tuple[str, ConfidenceInterval]]:
    """Per-record Wilson intervals, order preserved, names carried through.

    Records validate their own invariants at construction, so the batch is a
    pure map.
    """
    return [(rec.name, wilson_ci(rec)) for rec in records]
