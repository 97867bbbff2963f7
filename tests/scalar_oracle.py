"""Scalar oracle: the per-server loops the array engine replaced.

Production code runs every hot loop -- power aggregation, the monitor's
IPMI sweep, the capping victim orders and the scheduler's placement
filter -- as array expressions over one
:class:`~repro.cluster.state.ClusterState`. This module keeps the
straightforward per-``Server`` formulation of each loop, written against
the object API only, so the tests can hold the array path to it bit for
bit (``tests/test_backend_equivalence.py``) and the vectorized-sweep
benchmark can time one against the other.

It also keeps the arrival path's original formulation: the numpy
samplers (``rng.choice(p=)``, a size-1 lognormal with ``np.clip``), the
numpy burst-window scan and thinning with one engine event per candidate,
which ``tests/test_arrival_path.py`` holds the production samplers and
look-ahead to. Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.server import Server
from repro.sim.events import EventPriority


def total_power(servers: Sequence[Server]) -> float:
    """Left-to-right sum of per-server power (``ServerGroup.power_watts``)."""
    return sum(s.power_watts() for s in servers)


def server_powers(servers: Sequence[Server]) -> np.ndarray:
    """Per-server power in member order (``ServerGroup.server_powers``)."""
    return np.fromiter(
        (s.power_watts() for s in servers), dtype=np.float64, count=len(servers)
    )


def _live(server: Server) -> bool:
    return not (server.failed or server.powered_off)


def hottest_first(servers: Sequence[Server]) -> List[Server]:
    """Capping victim order: live servers, hottest first, stable."""
    return sorted(
        (s for s in servers if _live(s)),
        key=lambda s: s.power_watts(),
        reverse=True,
    )


def restore_order(servers: Sequence[Server]) -> List[Server]:
    """Uncapping order: capped live servers, least capped first, stable."""
    return sorted(
        (s for s in servers if s.is_capped and _live(s)),
        key=lambda s: s.frequency,
        reverse=True,
    )


def capped_live_ids(servers: Sequence[Server]) -> List[int]:
    """Servers that accrue capped time this tick, in group order."""
    return [s.server_id for s in servers if s.is_capped and _live(s)]


def placement_candidates(
    servers: Sequence[Server],
    cores: float,
    memory_gb: float,
    allowed_rows: Optional[frozenset] = None,
) -> List[int]:
    """Brute-force placement filter: positions of live, unfrozen servers
    that fit the demand (``OmegaScheduler.candidates``)."""
    return [
        i
        for i, s in enumerate(servers)
        if s.can_fit(cores, memory_gb)
        and not (s.frozen or s.failed or s.powered_off)
        and (allowed_rows is None or s.row_id in allowed_rows)
    ]


class IpmiSweepOracle:
    """Per-endpoint IPMI sweep with the fleet's draw-order contract.

    Mirrors :class:`~repro.monitor.ipmi.IpmiFleet` read by read: draw one
    uniform per endpoint (when ``failure_rate > 0``), then one normal
    per endpoint (when ``noise_sigma > 0``), then walk the endpoints in
    fleet order -- timeout, noisy quantized read, bounded last-known
    carry, staleness.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        rng: np.random.Generator,
        noise_sigma: float = 0.01,
        failure_rate: float = 0.001,
        max_fallback_polls: int = 5,
        quantize_watts: float = 1.0,
    ) -> None:
        self.servers = list(servers)
        self.rng = rng
        self.noise_sigma = noise_sigma
        self.failure_rate = failure_rate
        self.max_fallback_polls = max_fallback_polls
        self.quantize_watts = quantize_watts
        self.last_known: Dict[int, float] = {
            s.server_id: s.power_params.idle_watts for s in self.servers
        }
        self.streak: Dict[int, int] = {s.server_id: 0 for s in self.servers}
        self.stale: Dict[int, bool] = {s.server_id: False for s in self.servers}
        self.polls = self.timeouts = self.fallbacks_used = self.stale_reads = 0

    def _read(self, server: Server, u, z) -> Optional[float]:
        if self.failure_rate > 0 and u < self.failure_rate:
            return None
        reading = server.power_watts()
        if self.noise_sigma > 0:
            reading *= 1.0 + self.noise_sigma * z
        quantized = round(reading / self.quantize_watts) * self.quantize_watts
        return max(0.0, quantized)

    def poll(self) -> List[float]:
        n = len(self.servers)
        us = self.rng.random(n).tolist() if self.failure_rate > 0 else [None] * n
        zs = self.rng.standard_normal(n).tolist() if self.noise_sigma > 0 else [None] * n
        readings = []
        self.polls += n
        for server, u, z in zip(self.servers, us, zs):
            sid = server.server_id
            value = self._read(server, u, z)
            if value is None:
                self.timeouts += 1
                self.streak[sid] += 1
                if self.streak[sid] > self.max_fallback_polls:
                    self.stale[sid] = True
                    self.stale_reads += 1
                    value = math.nan
                else:
                    self.fallbacks_used += 1
                    value = self.last_known[sid]
            else:
                self.streak[sid] = 0
                self.stale[sid] = False
                self.last_known[sid] = value
            readings.append(value)
        return readings

    @property
    def stale_ids(self):
        return {sid for sid, stale in self.stale.items() if stale}


#: demand shapes the consistency helper probes (cores, memory GB)
PROBE_DEMANDS = (
    (1.0, 2.0),
    (2.0, 4.0),
    (4.0, 8.0),
    (8.0, 60.0),
    (16.0, 64.0),
    (1.0, 34.0),
    (2.0, 61.0),
)


def placement_matches(scheduler) -> bool:
    """The scheduler's placement filter agrees with a brute-force scan of
    its servers for every probe demand (and each row filter in use)."""
    row_sets = [None] + [frozenset({int(r)}) for r in set(scheduler.row_ids.tolist())]
    for cores, memory_gb in PROBE_DEMANDS:
        for rows in row_sets:
            fast = scheduler.candidates(cores, memory_gb, rows).tolist()
            if fast != placement_candidates(scheduler.servers, cores, memory_gb, rows):
                return False
    return True


# ---------------------------------------------------------------------------
# Arrival path
# ---------------------------------------------------------------------------


def sample_demand(distribution, rng: np.random.Generator):
    """``ResourceDemandDistribution.sample`` as one ``rng.choice(p=)``."""
    cores = float(rng.choice(distribution.core_choices, p=distribution.core_weights))
    return cores, cores * distribution.memory_per_core_gb


def sample_duration(distribution, rng: np.random.Generator) -> float:
    """``JobDurationDistribution.sample_one`` as a clipped size-1 array."""
    minutes = rng.lognormal(distribution.log_mu_minutes, distribution.log_sigma, size=1)
    seconds = minutes * 60.0
    return float(np.clip(seconds, distribution.min_seconds, distribution.max_seconds)[0])


def in_burst(windows, t: float) -> bool:
    """Whether ``t`` lies in any ``[start, end)`` window: a scan of all."""
    starts = np.array([start for start, _ in windows])
    ends = np.array([end for _, end in windows])
    return bool(len(starts) and np.any((starts <= t) & (t < ends)))


def bursty_rate(profile, t: float) -> float:
    """``BurstyRateProfile.rate`` with the window scan."""
    base_rate = profile.base.rate(t)
    if in_burst(profile.burst_windows(), t):
        return base_rate * profile.burst_factor
    return base_rate


class PerCandidateGenerator:
    """Thinning with one engine event per candidate, numpy samplers.

    ``rate`` is the arrival intensity at ``t`` and ``max_rate`` its
    bound; each generated job goes to ``submit``.
    """

    def __init__(self, engine, rate, max_rate, rng, duration, demand, submit):
        self.engine = engine
        self.rate = rate
        self.max_rate = max_rate
        self.rng = rng
        self.duration = duration
        self.demand = demand
        self.submit = submit

    def start(self, until: float) -> None:
        self.until = until
        self._schedule_next_candidate()

    def _schedule_next_candidate(self) -> None:
        t = self.engine.now + self.rng.exponential(1.0 / self.max_rate)
        if t < self.until:
            self.engine.schedule(t, EventPriority.JOB_ARRIVAL, self._candidate)

    def _candidate(self) -> None:
        now = self.engine.now
        if self.rng.random() < self.rate(now) / self.max_rate:
            cores, memory_gb = sample_demand(self.demand, self.rng)
            self.submit(now, cores, memory_gb, sample_duration(self.duration, self.rng))
        self._schedule_next_candidate()
