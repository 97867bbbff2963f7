"""Power-aware placement: the paper's first future-work direction.

Section 6: "we are exploring ways to schedule the jobs to different rows
so that there can be a larger variance in power utilization across
different rows, leading to more unused power to cultivate. Note that even
with the improvement, we can still use the simple interface of Ampere."

:class:`CoolestRowPolicy` implements the natural first version: among the
servers that fit, prefer those in the row with the most unused power
(normalized to its budget). It keeps the Ampere interface untouched --
the policy lives entirely inside the scheduler's upper level, and the
controller still only freezes/unfreezes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Sequence

import numpy as np

from repro.cluster.row import Row
from repro.scheduler.policies import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scheduler.omega import OmegaScheduler

RowPowerLookup = Callable[[], Dict[int, float]]


class CoolestRowPolicy(PlacementPolicy):
    """Place new jobs in the row with the lowest normalized power.

    Parameters
    ----------
    rows:
        The rows whose power guides placement. Normalized power is read
        directly from the row objects (the scheduler in production would
        read the same per-minute aggregate the controller reads; the
        difference is irrelevant at placement granularity).
    temperature:
        Softness of the preference. 0 = always the coolest row that has a
        fitting candidate; larger values blend toward uniform choice,
        which keeps some of the randomness the statistical control likes.
    """

    def __init__(self, rows: Sequence[Row], temperature: float = 0.05) -> None:
        if not rows:
            raise ValueError("CoolestRowPolicy needs at least one row")
        if temperature < 0:
            raise ValueError(f"temperature must be non-negative, got {temperature}")
        self.rows = list(rows)
        self.temperature = temperature

    def select(
        self,
        scheduler: "OmegaScheduler",
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        row_power = {row.row_id: row.normalized_power() for row in self.rows}
        candidate_rows = scheduler.row_ids[candidates]
        # Weight each candidate by how much headroom its row has.
        headroom = np.array(
            [max(1e-6, 1.0 - row_power.get(r, 1.0)) for r in candidate_rows]
        )
        if self.temperature > 0:
            weights = headroom + self.temperature
        else:
            # Hard mode: restrict to the coolest represented row.
            best = headroom.max()
            weights = np.where(headroom >= best - 1e-12, 1.0, 0.0)
        weights = weights / weights.sum()
        return int(candidates[rng.choice(len(candidates), p=weights)])


__all__ = ["CoolestRowPolicy", "RowPowerLookup"]
