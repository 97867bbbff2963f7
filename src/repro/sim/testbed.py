"""Testbed: the standard single-row cluster every experiment builds on.

Reproduces the paper's evaluation environment (Section 4.1): one row of
400+ homogeneous servers in a shared scheduling pool, a per-minute power
monitor, a batch workload with the published duration/arrival statistics,
and the virtual experiment/control split by server-id parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.datacenter import build_row
from repro.cluster.group import ServerGroup
from repro.cluster.power import PowerModelParams
from repro.cluster.row import Row
from repro.monitor.power_monitor import PowerMonitor
from repro.monitor.tsdb import TimeSeriesDatabase
from repro.scheduler.omega import OmegaScheduler
from repro.scheduler.policies import PlacementPolicy
from repro.sim.engine import Engine
from repro.telemetry import Telemetry
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
    rate_for_target_utilization,
)
from repro.workload.generator import (
    BatchWorkloadGenerator,
    BurstyRateProfile,
    DiurnalRateProfile,
    ModulatedRateProfile,
    RateProfile,
)
from repro.workload.job import Job


@dataclass(frozen=True)
class WorkloadSpec:
    """Batch-workload intensity and variability.

    ``target_utilization`` is the mean fraction of cluster cores occupied
    by tasks (production CPU utilization is modest; the paper's row power
    figures back out to task utilization around 0.05-0.35 depending on
    workload level -- see DESIGN.md).
    """

    target_utilization: float = 0.18
    diurnal_amplitude: float = 0.15
    diurnal_phase_seconds: float = 0.0
    modulation_sigma: float = 0.06
    modulation_step_seconds: float = 120.0
    modulation_rho: float = 0.85
    bursts_per_day: float = 0.0
    burst_factor: float = 2.0
    mean_burst_minutes: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.target_utilization <= 1.0:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {self.target_utilization}"
            )

    @staticmethod
    def light() -> "WorkloadSpec":
        """Power mostly well under the limit, with occasional excursions
        toward it (Figure 10a conditions: u_mean ~1.5% but u_max ~44%)."""
        return WorkloadSpec(
            target_utilization=0.08,
            diurnal_amplitude=0.10,
            bursts_per_day=3.0,
            burst_factor=3.4,
            mean_burst_minutes=75.0,
        )

    @staticmethod
    def typical() -> "WorkloadSpec":
        """The representative production mix (Table 3 bold rows)."""
        return WorkloadSpec(
            target_utilization=0.17,
            bursts_per_day=2.0,
            burst_factor=1.6,
        )

    @staticmethod
    def heavy() -> "WorkloadSpec":
        """Demand that would breach the budget without control (Fig 10b)."""
        return WorkloadSpec(
            target_utilization=0.31,
            diurnal_amplitude=0.12,
            bursts_per_day=5.0,
            burst_factor=1.25,
            mean_burst_minutes=45.0,
        )

    def scaled(self, factor: float) -> "WorkloadSpec":
        return replace(self, target_utilization=self.target_utilization * factor)


def build_rate_profile(
    n_servers: int,
    cores: int,
    spec: WorkloadSpec,
    horizon_seconds: float,
    modulation_seed: int,
    demand: Optional[ResourceDemandDistribution] = None,
) -> RateProfile:
    """Deterministic arrival-rate profile for ``spec`` over the horizon.

    Module-level so multi-row harnesses (the fleet experiment) can build
    one independent profile per row without constructing a
    :class:`Testbed` per row; the Testbed method delegates here.
    """
    base_rate = rate_for_target_utilization(
        n_servers,
        cores,
        spec.target_utilization,
        demand=demand if demand is not None else ResourceDemandDistribution(),
    )
    profile: RateProfile = DiurnalRateProfile(
        base_rate,
        amplitude=spec.diurnal_amplitude,
        phase_seconds=spec.diurnal_phase_seconds,
    )
    if spec.bursts_per_day > 0:
        profile = BurstyRateProfile(
            profile,
            horizon_seconds=horizon_seconds,
            seed=modulation_seed + 1,
            bursts_per_day=spec.bursts_per_day,
            burst_factor=spec.burst_factor,
            mean_burst_seconds=spec.mean_burst_minutes * 60.0,
        )
    if spec.modulation_sigma > 0:
        profile = ModulatedRateProfile(
            profile,
            horizon_seconds=horizon_seconds,
            seed=modulation_seed,
            step_seconds=spec.modulation_step_seconds,
            rho=spec.modulation_rho,
            sigma=spec.modulation_sigma,
        )
    return profile


@dataclass
class ThroughputRecord:
    """Per-group placement counting with a per-minute series.

    Also accumulates scheduling *wait times* (placement minus arrival):
    freezing servers makes jobs wait in the queue rather than hurting
    running jobs, so queue wait is where Ampere's cost shows up for batch
    work.
    """

    total: int = 0
    minute_bins: Dict[int, int] = field(default_factory=dict)
    wait_times: List[float] = field(default_factory=list)

    def record(self, minute: int, wait_seconds: float = 0.0) -> None:
        self.total += 1
        self.minute_bins[minute] = self.minute_bins.get(minute, 0) + 1
        self.wait_times.append(wait_seconds)

    def mean_wait(self) -> float:
        return float(np.mean(self.wait_times)) if self.wait_times else 0.0

    def wait_percentile(self, percentile: float) -> float:
        if not self.wait_times:
            return 0.0
        return float(np.percentile(np.asarray(self.wait_times), percentile))

    def series(self, start_minute: int, end_minute: int) -> np.ndarray:
        """Jobs placed in each minute of ``[start, end)``."""
        return np.array(
            [self.minute_bins.get(m, 0) for m in range(start_minute, end_minute)],
            dtype=int,
        )


class ThroughputTracker:
    """Counts job placements per named server group.

    Throughput in the paper is "the number of jobs accepted during the
    time period"; a job is accepted by a group when it is placed on one of
    the group's servers.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._group_of_server: Dict[int, str] = {}
        self.records: Dict[str, ThroughputRecord] = {}

    def track(self, group: ServerGroup) -> None:
        self.records[group.name] = ThroughputRecord()
        for server in group.servers:
            self._group_of_server[server.server_id] = group.name

    def on_placement(self, job: Job, server) -> None:
        group_name = self._group_of_server.get(server.server_id)
        if group_name is not None:
            self.records[group_name].record(
                int(self.engine.now // 60.0),
                wait_seconds=self.engine.now - job.arrival_time,
            )

    def total(self, group_name: str) -> int:
        return self.records[group_name].total

    def window_total(self, group_name: str, start_seconds: float, end_seconds: float) -> int:
        record = self.records[group_name]
        return int(
            record.series(int(start_seconds // 60), int(end_seconds // 60)).sum()
        )


class Testbed:
    """A ready-to-run single-row cluster with workload and monitoring.

    Parameters
    ----------
    n_servers:
        Fleet size; must be divisible by ``servers_per_rack``.
    seed:
        Master seed; all component generators derive from it.
    monitor_interval / monitor_noise_sigma:
        Power-monitor configuration (60 s / 1% like the paper's).
    """

    SERVERS_PER_RACK = 40
    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        n_servers: int = 400,
        cores: int = 16,
        memory_gb: float = 64.0,
        power_params: PowerModelParams = PowerModelParams(),
        seed: int = 0,
        monitor_interval: float = 60.0,
        monitor_noise_sigma: float = 0.01,
        placement_policy: Optional[PlacementPolicy] = None,
        store_per_server_power: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_servers % self.SERVERS_PER_RACK != 0:
            raise ValueError(
                f"n_servers must be a multiple of {self.SERVERS_PER_RACK}, got {n_servers}"
            )
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.engine = Engine(telemetry=self.telemetry)
        self.row: Row = build_row(
            0,
            racks=n_servers // self.SERVERS_PER_RACK,
            servers_per_rack=self.SERVERS_PER_RACK,
            power_params=power_params,
            cores=cores,
            memory_gb=memory_gb,
        )
        #: the columnar store behind the row (all servers share it)
        self.state = self.row.state
        self.cores = cores
        root = np.random.SeedSequence(seed)
        sched_seed, monitor_seed, workload_seed, modulation_seed = root.spawn(4)
        self.scheduler = OmegaScheduler(
            self.engine,
            self.row.servers,
            rng=np.random.default_rng(sched_seed),
            default_policy=placement_policy,
        )
        self.db = TimeSeriesDatabase()
        self.monitor = PowerMonitor(
            self.engine,
            db=self.db,
            interval=monitor_interval,
            noise_sigma=monitor_noise_sigma,
            rng=np.random.default_rng(monitor_seed),
            store_per_server=store_per_server_power,
            telemetry=self.telemetry,
        )
        self._workload_rng = np.random.default_rng(workload_seed)
        self._modulation_seed = int(modulation_seed.generate_state(1)[0])
        self.throughput = ThroughputTracker(self.engine)
        self.scheduler.placement_listeners.append(self.throughput.on_placement)
        self.generators: List[BatchWorkloadGenerator] = []
        self.duration_distribution = JobDurationDistribution()
        self.demand_distribution = ResourceDemandDistribution()

    # ------------------------------------------------------------------
    # Groups
    # ------------------------------------------------------------------
    def split_by_parity(self) -> Tuple[ServerGroup, ServerGroup]:
        """The paper's A/B split: even ids -> experiment, odd -> control."""
        experiment = ServerGroup(
            "experiment", [s for s in self.row.servers if s.server_id % 2 == 0]
        )
        control = ServerGroup(
            "control", [s for s in self.row.servers if s.server_id % 2 == 1]
        )
        return experiment, control

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def build_rate_profile(self, spec: WorkloadSpec, horizon_seconds: float) -> RateProfile:
        """Deterministic rate profile for ``spec`` over the horizon."""
        return build_rate_profile(
            len(self.row.servers),
            self.cores,
            spec,
            horizon_seconds,
            self._modulation_seed,
            demand=self.demand_distribution,
        )

    def add_batch_workload(
        self,
        spec: WorkloadSpec,
        horizon_seconds: float,
        product: str = "batch",
        profile: Optional[RateProfile] = None,
        tenant: Optional[str] = None,
    ) -> BatchWorkloadGenerator:
        """Attach (but do not start) a batch workload generator.

        ``profile`` overrides the spec-derived rate profile -- the seam
        the fault injector uses to layer demand surges over the standard
        workload without disturbing its RNG stream. ``tenant`` stamps
        every generated job with an owning tenant name (multi-tenant
        runs attach one generator per tenant, all sharing the testbed's
        single workload RNG so the merged arrival stream stays a
        deterministic function of the seed).
        """
        generator = BatchWorkloadGenerator(
            self.engine,
            self.scheduler,
            profile
            if profile is not None
            else self.build_rate_profile(spec, horizon_seconds),
            rng=self._workload_rng,
            duration=self.duration_distribution,
            demand=self.demand_distribution,
            product=product,
            job_id_offset=len(self.generators) * 10_000_000,
            tenant=tenant,
            shares_rng_with=self.generators,
        )
        self.generators.append(generator)
        return generator

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def start_services(self, until: float) -> None:
        """Start monitor and workload generators up to ``until``."""
        self.monitor.start(until)
        for generator in self.generators:
            generator.start(until)

    def run(self, until: float) -> None:
        self.engine.run(until=until)

    def warm_up(
        self, spec: WorkloadSpec, seconds: float = 3600.0, horizon_seconds: float = 0.0
    ) -> None:
        """Pre-fill the cluster so measurements start in steady state.

        Runs the workload without monitoring for ``seconds``; the paper's
        production cluster is never empty, so experiments should not start
        from an idle fleet.
        """
        horizon = max(horizon_seconds, seconds)
        generator = self.add_batch_workload(spec, horizon)
        generator.start(until=self.engine.now + seconds)
        self.engine.run(until=self.engine.now + seconds)


__all__ = [
    "Testbed",
    "WorkloadSpec",
    "ThroughputTracker",
    "ThroughputRecord",
    "build_rate_profile",
]
