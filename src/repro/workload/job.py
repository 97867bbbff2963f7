"""Batch job model with DVFS-aware progress tracking.

A job carries a fixed amount of *work* measured in seconds-at-full-speed.
While the hosting server runs at DVFS frequency ``f``, the job progresses
at rate ``f``; power capping therefore stretches a job's wall-clock
duration -- the exact disturbance Ampere avoids by never touching running
jobs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, FrozenSet, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.server import Server
    from repro.sim.engine import EventHandle


class Job:
    """One schedulable batch job (the paper schedules ~10^6 per day).

    Parameters
    ----------
    job_id:
        Unique id assigned by the workload generator.
    work_seconds:
        Execution time at full DVFS frequency.
    cores / memory_gb:
        Resource demand held for the job's whole lifetime.
    arrival_time:
        Submission time (seconds).
    product:
        Workload family tag; the scheduler maps products to frameworks and
        products are what give rows their distinct power personalities
        (Section 2.2's spatial imbalance).
    allowed_rows:
        Row ids this job may be placed in; ``None`` means anywhere.
    tenant:
        Owning tenant name when multi-tenancy is enabled; ``None`` for
        untenanted workloads. Purely observational -- placement ignores
        it, only accounting and fairness-aware control read it.
    """

    __slots__ = (
        "job_id",
        "work_seconds",
        "cores",
        "memory_gb",
        "arrival_time",
        "product",
        "allowed_rows",
        "tenant",
        "priority",
        "server",
        "start_time",
        "finish_time",
        "remaining_work",
        "progress_synced_at",
        "completion_handle",
        "killed",
    )

    def __init__(
        self,
        job_id: int,
        work_seconds: float,
        cores: float = 1.0,
        memory_gb: float = 2.0,
        arrival_time: float = 0.0,
        product: str = "batch",
        allowed_rows: Optional[FrozenSet[int]] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
    ) -> None:
        # Infinite work is a reservation that never completes (a pinned
        # interactive service); NaN fails the comparison and is refused.
        if not work_seconds > 0:
            raise ValueError(f"work_seconds must be positive, got {work_seconds}")
        if not (0 < cores < math.inf and 0 <= memory_gb < math.inf):
            raise ValueError(
                f"invalid resource demand: cores={cores}, memory_gb={memory_gb}"
            )
        self.job_id = job_id
        self.work_seconds = float(work_seconds)
        self.cores = float(cores)
        self.memory_gb = float(memory_gb)
        self.arrival_time = float(arrival_time)
        self.product = product
        self.allowed_rows = allowed_rows
        self.tenant = tenant
        self.priority = int(priority)

        self.server: Optional["Server"] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.remaining_work = self.work_seconds
        self.progress_synced_at: Optional[float] = None
        self.completion_handle: Optional["EventHandle"] = None
        self.killed = False

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        return self.server is not None and self.finish_time is None and not self.killed

    @property
    def is_finished(self) -> bool:
        return self.finish_time is not None

    def kill(self) -> None:
        """Mark this attempt dead (server failure or preemption).

        The scheduler resubmits a fresh attempt; this object only records
        that its execution was cut short.
        """
        self.killed = True
        self.server = None

    def begin(self, server: "Server", now: float) -> None:
        """Record placement on ``server`` at time ``now``."""
        if self.is_running:
            raise RuntimeError(f"job {self.job_id} is already running")
        self.server = server
        self.start_time = now
        self.progress_synced_at = now

    def advance(self, now: float, speed: float) -> None:
        """Credit progress at ``speed`` since the last sync point.

        Must be called with the frequency that was in effect *during* the
        elapsed interval (i.e. before a frequency change is applied).
        """
        if self.progress_synced_at is None:
            raise RuntimeError(f"job {self.job_id} has not started")
        elapsed = now - self.progress_synced_at
        if elapsed < 0:
            raise ValueError(
                f"cannot advance job {self.job_id} backwards "
                f"({self.progress_synced_at} -> {now})"
            )
        self.remaining_work = max(0.0, self.remaining_work - elapsed * speed)
        self.progress_synced_at = now

    def eta(self, now: float, speed: float) -> float:
        """Completion time assuming constant ``speed`` from ``now`` on."""
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        return now + self.remaining_work / speed

    def complete(self, now: float) -> None:
        """Mark finished; the caller releases server resources."""
        self.finish_time = now
        self.remaining_work = 0.0

    @property
    def wall_clock_duration(self) -> Optional[float]:
        """Observed run time (None until finished)."""
        if self.finish_time is None or self.start_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def slowdown(self) -> Optional[float]:
        """Wall-clock duration over ideal duration; 1.0 means undisturbed."""
        duration = self.wall_clock_duration
        if duration is None:
            return None
        return duration / self.work_seconds

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job(id={self.job_id}, work={self.work_seconds:.0f}s, "
            f"cores={self.cores}, product={self.product!r})"
        )


__all__ = ["Job"]
