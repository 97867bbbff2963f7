"""Placement policies for the upper-level frameworks.

Ampere's statistical control assumes only that *the number of jobs placed
in a row is roughly proportional to the number of available (unfrozen)
servers there* (Section 3.4). The default random-available policy has that
property exactly; least-loaded and best-fit are provided both for realism
and for the ablation that checks Ampere still works when the
proportionality is only approximate.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.scheduler.omega import OmegaScheduler


class PlacementPolicy(abc.ABC):
    """Chooses one server position among fitting candidates.

    ``candidates`` are ascending positions in ``scheduler.servers``;
    per-server state (free cores, row ids) is read from the scheduler,
    which reads it from the shared store.
    """

    def place(
        self,
        scheduler: "OmegaScheduler",
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """Position for a new job, or None (no draw) when nothing fits.

        By default: :meth:`select` over ``scheduler.candidates(...)``.
        """
        candidates = scheduler.candidates(cores, memory_gb, allowed_rows)
        if len(candidates) == 0:
            return None
        return self.select(scheduler, candidates, rng)

    @abc.abstractmethod
    def select(
        self,
        scheduler: "OmegaScheduler",
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        """Return the chosen position from ``candidates`` (never empty)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return type(self).__name__


class RandomAvailablePolicy(PlacementPolicy):
    """Uniformly random choice among available servers (the default).

    Gives exactly the placement-proportional-to-availability behaviour the
    paper's statistical control relies on. :meth:`place` counts and
    indexes the eligible servers through the scheduler's placement index
    (O(log N)) instead of materializing them; it draws the same
    ``rng.integers(n)`` and lands on the same position as :meth:`select`
    over ``candidates()``.
    """

    def place(
        self,
        scheduler: "OmegaScheduler",
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset],
        rng: np.random.Generator,
    ) -> Optional[int]:
        eligible = scheduler.placement_index.eligible(cores, memory_gb)
        ranges = scheduler.row_ranges(allowed_rows)
        count = eligible.count_in(ranges)
        if count == 0:
            return None
        return eligible.kth(int(rng.integers(count)), ranges)

    def select(
        self,
        scheduler: "OmegaScheduler",
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        return int(candidates[rng.integers(len(candidates))])


class LeastLoadedPolicy(PlacementPolicy):
    """Pick the candidate with the most free cores (load balancing)."""

    def select(
        self,
        scheduler: "OmegaScheduler",
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        free = scheduler.free_cores(candidates)
        best = np.flatnonzero(free == free.max())
        # Break ties randomly so identical servers share load evenly.
        return int(candidates[best[rng.integers(len(best))]])


class BestFitPolicy(PlacementPolicy):
    """Pick the candidate with the least free cores that still fits (packing)."""

    def select(
        self,
        scheduler: "OmegaScheduler",
        candidates: np.ndarray,
        rng: np.random.Generator,
    ) -> int:
        free = scheduler.free_cores(candidates)
        best = np.flatnonzero(free == free.min())
        return int(candidates[best[rng.integers(len(best))]])


__all__ = [
    "PlacementPolicy",
    "RandomAvailablePolicy",
    "LeastLoadedPolicy",
    "BestFitPolicy",
]
