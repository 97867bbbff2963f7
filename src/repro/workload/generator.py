"""Batch workload generation: arrival-rate profiles and the generator process.

Arrivals follow a non-homogeneous Poisson process realized by thinning.
Rate profiles compose a deterministic shape (constant or diurnal) with an
optional mean-reverting AR(1) modulation that reproduces the minute-scale
spikes and valleys of Figure 8 / Figure 9: smooth on the hour scale, with
occasional several-percent power jumps within a single minute.

Every profile parameter is checked at construction in a form that also
refuses NaN, and ``max_rate`` must be finite: an infinite thinning bound
would make every gap zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
)
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scheduler.base import SchedulerInterface

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


class RateProfile:
    """Interface: instantaneous arrival rate in jobs/second at time ``t``."""

    def rate(self, t: float) -> float:
        raise NotImplementedError

    @property
    def max_rate(self) -> float:
        """An upper bound on ``rate`` over all t, used for Poisson thinning."""
        raise NotImplementedError


class ConstantRateProfile(RateProfile):
    """Fixed arrival rate."""

    def __init__(self, jobs_per_second: float) -> None:
        if not 0 <= jobs_per_second < math.inf:
            raise ValueError(
                f"rate must be non-negative and finite, got {jobs_per_second}"
            )
        self._rate = jobs_per_second

    def rate(self, t: float) -> float:
        return self._rate

    @property
    def max_rate(self) -> float:
        return self._rate


class DiurnalRateProfile(RateProfile):
    """Sinusoidal day/night swing around a base rate (Figure 8's hour scale).

    ``rate(t) = base * (1 + amplitude * sin(2*pi*(t - phase)/period))``.
    """

    def __init__(
        self,
        base_jobs_per_second: float,
        amplitude: float = 0.15,
        period_seconds: float = SECONDS_PER_DAY,
        phase_seconds: float = 0.0,
    ) -> None:
        if not 0 <= base_jobs_per_second < math.inf:
            raise ValueError(
                f"base rate must be non-negative and finite, got {base_jobs_per_second}"
            )
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if not 0 < period_seconds < math.inf:
            raise ValueError(f"period must be positive and finite, got {period_seconds}")
        if not math.isfinite(phase_seconds):
            raise ValueError(f"phase must be finite, got {phase_seconds}")
        self.base = base_jobs_per_second
        self.amplitude = amplitude
        self.period = period_seconds
        self.phase = phase_seconds

    def rate(self, t: float) -> float:
        swing = self.amplitude * math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        return self.base * (1.0 + swing)

    @property
    def max_rate(self) -> float:
        return self.base * (1.0 + self.amplitude)


class ModulatedRateProfile(RateProfile):
    """A base profile multiplied by mean-reverting AR(1) noise.

    The multiplier is piecewise-constant on a grid of ``step_seconds`` and
    follows ``x_{k+1} = 1 + rho * (x_k - 1) + sigma * eps_k`` clipped to
    ``[floor, ceil]``. The grid is pre-generated from an explicit seed so a
    profile is a pure, reproducible function of time -- two groups reading
    the same profile see identical demand, which the controlled-experiment
    harness relies on.
    """

    def __init__(
        self,
        base: RateProfile,
        horizon_seconds: float,
        seed: int,
        step_seconds: float = 120.0,
        rho: float = 0.85,
        sigma: float = 0.06,
        floor: float = 0.55,
        ceil: float = 1.45,
    ) -> None:
        if not 0 < horizon_seconds < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {horizon_seconds}")
        if not 0 < step_seconds < math.inf:
            raise ValueError(f"step must be positive and finite, got {step_seconds}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if not math.isfinite(sigma):
            raise ValueError(f"sigma must be finite, got {sigma}")
        if not 0 < floor <= ceil < math.inf:
            raise ValueError(f"invalid clip range [{floor}, {ceil}]")
        self.base = base
        self.step = step_seconds
        self.floor = floor
        self.ceil = ceil
        rng = np.random.default_rng(seed)
        n_steps = int(math.ceil(horizon_seconds / step_seconds)) + 2
        multipliers = []
        x = 1.0
        for _ in range(n_steps):
            x = 1.0 + rho * (x - 1.0) + sigma * rng.standard_normal()
            multipliers.append(min(ceil, max(floor, x)))
        self._multipliers = multipliers

    def __setstate__(self, state: dict) -> None:
        # Snapshots from before the list kept the multipliers in an array.
        self.__dict__.update(state)
        self._multipliers = [float(m) for m in self._multipliers]

    def rate(self, t: float) -> float:
        multipliers = self._multipliers
        # The step index clamped to the grid, without builtin calls: this
        # runs once per thinning candidate.
        index = int(t / self.step)
        if index >= len(multipliers):
            index = len(multipliers) - 1
        elif index < 0:
            index = 0
        return self.base.rate(t) * multipliers[index]

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.ceil


class BurstyRateProfile(RateProfile):
    """A base profile with randomly timed multiplicative bursts.

    Production row power shows occasional sharp excursions on top of the
    diurnal swing (Figure 8, Figure 10a): a product launches a backfill,
    a pipeline re-runs. Bursts arrive as a Poisson process with
    exponential durations; inside a burst the rate is multiplied by
    ``burst_factor``. Burst windows are pre-generated from the seed, so
    the profile is a pure function of time.
    """

    def __init__(
        self,
        base: RateProfile,
        horizon_seconds: float,
        seed: int,
        bursts_per_day: float = 4.0,
        burst_factor: float = 2.0,
        mean_burst_seconds: float = 1800.0,
    ) -> None:
        if not 0 < horizon_seconds < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {horizon_seconds}")
        if not 0 <= bursts_per_day < math.inf:
            raise ValueError(
                f"bursts_per_day must be non-negative and finite, got {bursts_per_day}"
            )
        if not 1.0 <= burst_factor < math.inf:
            raise ValueError(f"burst_factor must be finite and >= 1.0, got {burst_factor}")
        if not 0 < mean_burst_seconds < math.inf:
            raise ValueError(
                f"mean_burst_seconds must be positive and finite, got {mean_burst_seconds}"
            )
        self.base = base
        self.burst_factor = burst_factor
        rng = np.random.default_rng(seed)
        windows: List[tuple] = []
        if bursts_per_day > 0:
            t = 0.0
            mean_gap = SECONDS_PER_DAY / bursts_per_day
            while True:
                t += rng.exponential(mean_gap)
                if t >= horizon_seconds:
                    break
                windows.append((t, t + rng.exponential(mean_burst_seconds)))
        self._starts = [start for start, _ in windows]
        self._ends = [end for _, end in windows]
        self._index_windows()

    def __setstate__(self, state: dict) -> None:
        # Snapshots from before the index kept the windows in arrays.
        self.__dict__.update(state)
        self._starts = [float(start) for start in self._starts]
        self._ends = [float(end) for end in self._ends]
        self._index_windows()

    def _index_windows(self) -> None:
        # Starts ascend (cumulative gaps); ``_end_max[k]`` is the latest
        # end among windows 0..k, so overlapping windows stay exact.
        self._end_max = []
        latest = -math.inf
        for end in self._ends:
            latest = max(latest, end)
            self._end_max.append(latest)

    def rate(self, t: float) -> float:
        base_rate = self.base.rate(t)
        # Windows starting at or before t are 0..k-1; t is in one of
        # them exactly when the latest of their ends lies after t.
        k = bisect_right(self._starts, t)
        if k and t < self._end_max[k - 1]:
            return base_rate * self.burst_factor
        return base_rate

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * (self.burst_factor if len(self._starts) else 1.0)

    def burst_windows(self) -> List[tuple]:
        """The generated ``(start, end)`` burst windows (for inspection)."""
        return list(zip(self._starts, self._ends))


class ScaledRateProfile(RateProfile):
    """A base profile multiplied by a constant factor.

    Used to carve one row-level demand curve into per-tenant slices:
    each tenant's generator reads the *same* shaped profile scaled by
    its share, so the sum of tenant arrivals reproduces the untenanted
    rate exactly and per-tenant demand stays a pure function of time.
    """

    def __init__(self, base: RateProfile, factor: float) -> None:
        if not 0 < factor < math.inf:
            raise ValueError(f"scale factor must be positive and finite, got {factor}")
        self.base = base
        self.factor = float(factor)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor

    @property
    def max_rate(self) -> float:
        return self.base.max_rate * self.factor


class SurgeRateProfile(RateProfile):
    """Declared multiplicative step windows on top of a base profile.

    Unlike :class:`BurstyRateProfile` (random bursts drawn from a seed),
    the windows here are *scheduled*: the fault plane injects a demand
    surge at a known instant (a launch, a retry storm) so chaos runs can
    assert on exactly when the hazard was active. Windows are pure
    functions of time; overlapping windows are rejected upstream
    (scenario validation), so ``max_rate`` is exact.
    """

    def __init__(
        self,
        base: RateProfile,
        windows: Sequence[tuple],
    ) -> None:
        self.base = base
        self.windows = tuple(
            (float(s), float(d), float(f)) for s, d, f in windows
        )
        for start, duration, factor in self.windows:
            if not (
                0 <= start < math.inf
                and 0 < duration < math.inf
                and 0 < factor < math.inf
            ):
                raise ValueError(
                    "surge windows need finite start >= 0, duration > 0, "
                    f"factor > 0, got ({start}, {duration}, {factor})"
                )

    def rate(self, t: float) -> float:
        rate = self.base.rate(t)
        for start, duration, factor in self.windows:
            if start <= t < start + duration:
                rate *= factor
        return rate

    @property
    def max_rate(self) -> float:
        peak = max((f for _, _, f in self.windows), default=1.0)
        return self.base.max_rate * max(peak, 1.0)


class BatchWorkloadGenerator:
    """Simulation process that submits batch jobs to the scheduler.

    Parameters
    ----------
    engine / scheduler:
        Simulation engine and the scheduler receiving jobs.
    rate_profile:
        Arrival intensity over time.
    rng:
        Explicit random generator -- all stochasticity is seeded.
    duration / demand:
        Job duration and resource-demand distributions.
    product / allowed_rows:
        Tag and optional row affinity attached to every generated job
        (drives the spatial imbalance of Figure 2 in multi-row setups).
    job_id_offset:
        First job id; lets several generators coexist without collisions.
    tenant:
        Tenant name stamped on every generated job (``None`` when
        multi-tenancy is off).
    shares_rng_with:
        The generators that draw from ``rng`` too (this list may hold
        this generator once it is attached); empty when ``rng`` is this
        generator's alone. The caller keeps the list current.

    Arrivals are thinned: candidates come at ``max_rate`` and each is
    kept with probability ``rate(t) / max_rate``. A generator that is
    the only unfinished consumer of its RNG resolves rejected candidates
    inside the callback and schedules only the accepted one
    (``_arrival``). Otherwise every candidate stays one heap event
    (``_candidate_arrival``), so draws from generators sharing the RNG
    interleave in time order. Either way the draws per RNG come in the
    same order -- gap, uniform, [demand, duration], gap, ... -- so the
    job stream is the same.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: "SchedulerInterface",
        rate_profile: RateProfile,
        rng: np.random.Generator,
        duration: JobDurationDistribution = JobDurationDistribution(),
        demand: ResourceDemandDistribution = ResourceDemandDistribution(),
        product: str = "batch",
        allowed_rows: Optional[Sequence[int]] = None,
        job_id_offset: int = 0,
        tenant: Optional[str] = None,
        shares_rng_with: Sequence["BatchWorkloadGenerator"] = (),
    ) -> None:
        if not 0 <= rate_profile.max_rate < math.inf:
            raise ValueError(
                f"max_rate must be non-negative and finite, got {rate_profile.max_rate}"
            )
        if any(peer._drawn_ahead for peer in shares_rng_with):
            # Its look-ahead already drew for candidates up to its next
            # arrival; with a second consumer those draws would have
            # interleaved with the newcomer's.
            raise RuntimeError(
                "a generator sharing this RNG has drawn ahead; attach every "
                "generator on one RNG before running the first"
            )
        self.engine = engine
        self.scheduler = scheduler
        self.rate_profile = rate_profile
        self.rng = rng
        self.duration = duration
        self.demand = demand
        self.product = product
        self.allowed_rows = frozenset(allowed_rows) if allowed_rows is not None else None
        self.tenant = tenant
        self._next_job_id = job_id_offset
        self._until: Optional[float] = None
        self._rng_peers: Optional[Sequence[BatchWorkloadGenerator]] = shares_rng_with
        #: an ``_arrival`` whose candidates' draws are already made is pending
        self._drawn_ahead = False
        #: the arrival stream has ended: this generator draws no more
        self.exhausted = False
        self.jobs_generated = 0
        #: optional observers called with each generated Job
        self.listeners: List[Callable[[Job], None]] = []
        #: ``(rate_profile.rate, max_rate, 1 / max_rate)``: derived from
        #: the profile on first use and never pickled
        self._thinning: Optional[Tuple[Callable[[float], float], float, float]] = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_thinning", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._thinning = None
        if "_rng_peers" not in state:
            # Restored from a build that kept every candidate on the heap
            # and did not record who shares the RNG: keep doing that.
            self._rng_peers = None
            self._drawn_ahead = False
            self.exhausted = False

    def start(self, until: float) -> None:
        """Begin generating arrivals until simulated time ``until``."""
        if self.rate_profile.max_rate <= 0:
            self.exhausted = True
            return
        self._until = until
        self._schedule_next_candidate()

    # ------------------------------------------------------------------
    def _owns_rng(self) -> bool:
        """No other unfinished generator draws from ``self.rng``."""
        peers = self._rng_peers
        if peers is None:
            return False
        for peer in peers:
            if peer is not self and not peer.exhausted:
                return False
        return True

    def _thinning_terms(self) -> Tuple[Callable[[float], float], float, float]:
        # Derived on first use rather than in ``__setstate__``: a restore
        # may run this generator's before its profile's.
        max_rate = self.rate_profile.max_rate
        self._thinning = (self.rate_profile.rate, max_rate, 1.0 / max_rate)
        return self._thinning

    def _schedule_next_candidate(self) -> None:
        """Draw candidate gaps at the max rate and schedule the next event.

        With the RNG to itself, the generator also draws each candidate's
        uniform here and schedules only the first accepted candidate;
        otherwise it schedules the next candidate for its callback to
        accept or reject.
        """
        rate, max_rate, scale = self._thinning or self._thinning_terms()
        rng = self.rng
        exponential, uniform = rng.exponential, rng.random
        until = self._until
        look_ahead = self._owns_rng()
        t = self.engine.now
        while True:
            t += exponential(scale)
            if t >= until:
                self.exhausted = True
                return
            if not look_ahead:
                self.engine.schedule(
                    t, EventPriority.JOB_ARRIVAL, self._candidate_arrival
                )
                return
            if uniform() < rate(t) / max_rate:
                self._drawn_ahead = True
                self.engine.schedule(t, EventPriority.JOB_ARRIVAL, self._arrival)
                return

    def _candidate_arrival(self) -> None:
        now = self.engine.now
        rate, max_rate, _ = self._thinning or self._thinning_terms()
        if self.rng.random() < rate(now) / max_rate:
            self._emit_job(now)
        self._schedule_next_candidate()

    def _arrival(self) -> None:
        """An accepted candidate whose uniform was drawn ahead."""
        self._drawn_ahead = False
        self._emit_job(self.engine.now)
        self._schedule_next_candidate()

    def _emit_job(self, now: float) -> None:
        cores, memory_gb = self.demand.sample(self.rng)
        job = Job(
            job_id=self._next_job_id,
            work_seconds=self.duration.sample_one(self.rng),
            cores=cores,
            memory_gb=memory_gb,
            arrival_time=now,
            product=self.product,
            allowed_rows=self.allowed_rows,
            tenant=self.tenant,
        )
        self._next_job_id += 1
        self.jobs_generated += 1
        for listener in self.listeners:
            listener(job)
        self.scheduler.submit(job)


__all__ = [
    "RateProfile",
    "ConstantRateProfile",
    "DiurnalRateProfile",
    "ModulatedRateProfile",
    "BurstyRateProfile",
    "ScaledRateProfile",
    "SurgeRateProfile",
    "BatchWorkloadGenerator",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
]
