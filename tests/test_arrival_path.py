"""The arrival path: samplers, burst lookup and thinning, pinned draw for draw.

These checks hold the arrival path to the per-candidate formulation it
replaced:

- *Pinned digests of the shared-RNG paths.* Runs whose workload RNG is
  drawn by more than one generator in turn -- tenanted experiments, a
  tenanted fleet, a warm-up followed by a main run -- and a demand-surge
  run were digested (SHA-256 of every generated job, the result document
  and the workload RNG state) with the per-candidate build.
- *Fail-closed validators:* NaN, +-inf and negative parameters are
  refused at construction.
- *Oracle checks* (``tests/scalar_oracle.py``): each sampler against the
  numpy call it replaced, bit for bit and RNG state for RNG state, and a
  single generator's job stream against per-candidate events.
- *Ownership and snapshots:* when a generator looks ahead and when it
  keeps one heap event per candidate, and resuming mid-look-ahead.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import fleet_result_to_dict, result_to_dict
from repro.faults.scenario import builtin_scenarios
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.tenancy import builtin_mixes
from repro.workload.distributions import (
    JobDurationDistribution,
    ResourceDemandDistribution,
)
from repro.workload.generator import (
    BatchWorkloadGenerator,
    BurstyRateProfile,
    ConstantRateProfile,
    DiurnalRateProfile,
    ModulatedRateProfile,
    RateProfile,
    ScaledRateProfile,
    SurgeRateProfile,
)
from repro.workload.job import Job
from tests import scalar_oracle as oracle

#: SHA-256 of each pinned document, recorded with one heap event per
#: thinning candidate on every generator.
PINNED = {
    "three-tenant": "1b4e253e15abe23101bc7c3f72ed8cb9e7a49f58b110d8f5d028711dd3fa3e1b",
    "surge": "6a183b45f1ee2bd47001c9696be8c305812b7c345f5684892a58059c17180baa",
    "fleet-tenanted": "e704734b75ef1f58198bb1215ccf49ef7305f068e60ade87c81edbd5ed67b8dc",
    "warm-up": "56829d7ec1caa3462ec825cc0e66b71437d7fd793901388090be7629f431d6c0",
}


def digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def job_record(job) -> list:
    return [
        job.job_id,
        job.arrival_time,
        job.cores,
        job.memory_gb,
        job.work_seconds,
        job.tenant,
    ]


def record_generated_jobs(generators) -> list:
    jobs: list = []
    for generator in generators:
        generator.listeners.append(lambda job: jobs.append(job_record(job)))
    return jobs


def experiment_document(config: ExperimentConfig) -> dict:
    experiment = ControlledExperiment(config)
    experiment.start()
    jobs = record_generated_jobs(experiment.testbed.generators)
    result = experiment.finish()
    return {
        "jobs": jobs,
        "result": result_to_dict(result, include_series=True),
        "rng": experiment.testbed._workload_rng.bit_generator.state,
    }


class TestSharedRngTrajectories:
    def test_three_tenant_experiment(self):
        config = ExperimentConfig(
            n_servers=40,
            duration_hours=1.0,
            warmup_hours=0.25,
            over_provision_ratio=0.25,
            workload=WorkloadSpec.typical(),
            tenancy=builtin_mixes()["three-tier"],
            seed=5,
        )
        assert digest(experiment_document(config)) == PINNED["three-tenant"]

    def test_demand_surge_fault_run(self):
        config = ExperimentConfig(
            n_servers=40,
            duration_hours=1.5,
            warmup_hours=1.0,  # builtin scenario times assume 1 h
            over_provision_ratio=0.25,
            workload=WorkloadSpec.typical(),
            faults=builtin_scenarios()["surge"],
            seed=13,
        )
        assert digest(experiment_document(config)) == PINNED["surge"]

    def test_tenanted_fleet(self):
        config = FleetExperimentConfig(
            rows=(
                FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.35)),
                FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.10)),
            ),
            duration_hours=1.0,
            warmup_hours=0.25,
            tenancy=builtin_mixes()["even-pair"],
            seed=17,
        )
        experiment = FleetExperiment(config)
        experiment.start()
        jobs: list = []
        for scheduler in experiment.schedulers:
            submit = scheduler.submit

            def recording_submit(job, submit=submit):
                jobs.append(job_record(job))
                return submit(job)

            scheduler.submit = recording_submit
        result = experiment.finish()
        document = {"jobs": jobs, "result": fleet_result_to_dict(result)}
        assert digest(document) == PINNED["fleet-tenanted"]

    def test_warm_up_then_main_run(self):
        spec = WorkloadSpec.typical()
        testbed = Testbed(n_servers=40, seed=19)
        testbed.warm_up(spec, seconds=1800.0, horizon_seconds=5400.0)
        generator = testbed.add_batch_workload(spec, 5400.0)
        jobs = record_generated_jobs(testbed.generators)
        generator.start(5400.0)
        testbed.monitor.start(5400.0, first_at=1800.0)
        testbed.run(until=5400.0)
        stats = testbed.scheduler.stats
        document = {
            "jobs": jobs,
            "stats": [stats.submitted, stats.placed, stats.completed],
            "rng": testbed._workload_rng.bit_generator.state,
        }
        assert digest(document) == PINNED["warm-up"]


# ---------------------------------------------------------------------------
# Fail-closed validators: a bad parameter is refused at construction, not
# (as numpy once did on every draw) at sampling time or never.
# ---------------------------------------------------------------------------

NAN, INF = math.nan, math.inf


def refuses(build, values, match=None):
    for value in values:
        with pytest.raises(ValueError, match=match):
            build(value)


class _Recorder:
    """Stands in for the scheduler: keeps each submitted job's fields."""

    def __init__(self):
        self.jobs = []

    def submit(self, job):
        self.jobs.append((job.arrival_time, job.cores, job.memory_gb, job.work_seconds))


class _Unbounded(RateProfile):
    def __init__(self, bound):
        self.bound = bound

    def rate(self, t):
        return 1.0

    @property
    def max_rate(self):
        return self.bound


class TestFailClosedValidators:
    def test_demand_weights(self):
        refuses(
            lambda w: ResourceDemandDistribution(core_weights=(w, 1.0 - w, 0.0)),
            (NAN, INF, -INF, -0.5),
            match="non-negative and finite",
        )

    def test_demand_core_choices(self):
        refuses(
            lambda c: ResourceDemandDistribution(core_choices=(c, 2.0, 4.0)),
            (NAN, INF, -INF, -1.0, 0.0),
        )

    def test_demand_memory_per_core(self):
        refuses(
            lambda m: ResourceDemandDistribution(memory_per_core_gb=m),
            (NAN, INF, -INF, -1.0),
        )

    def test_duration_lognormal_parameters(self):
        refuses(lambda mu: JobDurationDistribution(log_mu_minutes=mu), (NAN, INF, -INF))
        refuses(lambda sigma: JobDurationDistribution(log_sigma=sigma), (NAN, INF, -INF, -1.0))

    def test_duration_clip_bounds(self):
        refuses(lambda low: JobDurationDistribution(min_seconds=low), (NAN, -INF, -1.0, 0.0))
        refuses(lambda high: JobDurationDistribution(max_seconds=high), (NAN, INF, -INF, 1.0))

    def test_job_work_and_demand(self):
        refuses(lambda w: Job(1, w), (NAN, -INF, -1.0))
        refuses(lambda c: Job(1, 10.0, cores=c), (NAN, INF, -INF, -1.0))
        refuses(lambda m: Job(1, 10.0, memory_gb=m), (NAN, INF, -INF, -1.0))
        # A reservation that never completes stays legal.
        assert Job(1, INF).work_seconds == INF

    def test_constant_rate(self):
        refuses(ConstantRateProfile, (NAN, INF, -INF, -1.0))

    def test_diurnal_rate(self):
        refuses(DiurnalRateProfile, (NAN, INF, -INF, -1.0))
        refuses(lambda p: DiurnalRateProfile(1.0, period_seconds=p), (NAN, INF, -INF, -1.0))
        refuses(lambda p: DiurnalRateProfile(1.0, phase_seconds=p), (NAN, INF, -INF))

    def test_modulated_rate(self):
        base = ConstantRateProfile(1.0)
        refuses(lambda h: ModulatedRateProfile(base, h, seed=0), (NAN, INF, -INF, -1.0))
        refuses(
            lambda s: ModulatedRateProfile(base, 600.0, seed=0, step_seconds=s),
            (NAN, INF, -INF, -1.0),
        )
        for name in ("sigma", "ceil", "floor"):
            refuses(
                lambda value: ModulatedRateProfile(base, 600.0, seed=0, **{name: value}),
                (NAN, INF, -INF) if name == "sigma" else (NAN, INF, -INF, -1.0),
            )

    def test_bursty_rate(self):
        base = ConstantRateProfile(1.0)
        refuses(
            lambda f: BurstyRateProfile(base, 600.0, seed=0, burst_factor=f),
            (NAN, INF, -INF, -1.0),
        )
        refuses(lambda h: BurstyRateProfile(base, h, seed=0), (NAN, INF, -INF, -1.0))
        refuses(
            lambda b: BurstyRateProfile(base, 600.0, seed=0, bursts_per_day=b),
            (NAN, INF, -INF, -1.0),
        )
        refuses(
            lambda m: BurstyRateProfile(base, 600.0, seed=0, mean_burst_seconds=m),
            (NAN, INF, -INF, -1.0),
        )

    def test_scaled_rate(self):
        refuses(lambda f: ScaledRateProfile(ConstantRateProfile(1.0), f), (NAN, INF, -INF, -1.0))

    def test_surge_windows(self):
        base = ConstantRateProfile(1.0)
        refuses(lambda s: SurgeRateProfile(base, [(s, 60.0, 2.0)]), (NAN, INF, -INF, -1.0))
        refuses(lambda d: SurgeRateProfile(base, [(0.0, d, 2.0)]), (NAN, INF, -INF, -1.0))
        refuses(lambda f: SurgeRateProfile(base, [(0.0, 60.0, f)]), (NAN, INF, -INF, -1.0))

    def test_generator_thinning_bound(self):
        """An infinite bound would make every gap ``exponential(0) = 0``."""
        refuses(
            lambda bound: BatchWorkloadGenerator(
                Engine(), _Recorder(), _Unbounded(bound), np.random.default_rng(0)
            ),
            (NAN, INF, -INF, -1.0),
            match="max_rate",
        )


# ---------------------------------------------------------------------------
# Samplers and burst lookup against the oracle
# ---------------------------------------------------------------------------

ORACLE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def demand_distributions(draw):
    """Random mixes whose weights sum to 1 only within 1e-9."""
    n = draw(st.integers(1, 6))
    choices = draw(
        st.lists(
            st.floats(0.25, 64.0, allow_nan=False), min_size=n, max_size=n, unique=True
        )
    )
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    if sum(raw) == 0.0:
        raw[-1] = 1.0
    skew = 1.0 + draw(st.floats(-9e-10, 9e-10))
    weights = [w / sum(raw) * skew for w in raw]
    return ResourceDemandDistribution(
        core_choices=tuple(choices),
        core_weights=tuple(weights),
        memory_per_core_gb=draw(st.floats(0.0, 8.0)),
    )


@st.composite
def duration_distributions(draw):
    """Random lognormal parameters and clip bounds."""
    low = draw(st.floats(1e-3, 1e4))
    high = draw(st.floats(low, 1e5))
    return JobDurationDistribution(
        log_mu_minutes=draw(st.floats(-3.0, 6.0)),
        log_sigma=draw(st.floats(0.0, 3.0)),
        min_seconds=low,
        max_seconds=high,
    )


class TestSamplersAgainstOracle:
    @ORACLE_SETTINGS
    @given(
        demand=demand_distributions(),
        duration=duration_distributions(),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.sampled_from(["demand", "duration", "gap"]), max_size=40),
    )
    @example(
        demand=ResourceDemandDistribution(),
        duration=JobDurationDistribution(),
        seed=0,
        steps=["demand", "duration"] * 20,
    )
    def test_interleaved_draws_match_bit_for_bit(self, demand, duration, seed, steps):
        """Same values and the same RNG state after every draw, whatever
        else draws from the generator in between."""
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in steps:
            if step == "demand":
                got, want = demand.sample(fast), oracle.sample_demand(demand, slow)
            elif step == "duration":
                got = duration.sample_one(fast)
                want = oracle.sample_duration(duration, slow)
            else:
                got, want = fast.exponential(3.0), slow.exponential(3.0)
            assert got == want and type(got) is type(want)
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_zero_weight_choices_are_never_drawn(self):
        """A uniform exactly on a CDF step takes the next choice, as
        numpy's ``searchsorted(side="right")`` does -- even at u = 0."""

        class FixedUniform:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        demand = ResourceDemandDistribution(
            core_choices=(1.0, 2.0, 4.0, 8.0), core_weights=(0.0, 0.5, 0.0, 0.5)
        )
        assert demand.sample(FixedUniform(0.0))[0] == 2.0
        assert demand.sample(FixedUniform(0.5))[0] == 8.0
        rng = np.random.default_rng(3)
        assert {demand.sample(rng)[0] for _ in range(500)} == {2.0, 8.0}

    @ORACLE_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        bursts_per_day=st.floats(0.0, 96.0),
        mean_burst_seconds=st.floats(1.0, 20_000.0),
        probes=st.lists(st.floats(-10.0, 2 * 86_400.0), max_size=20),
    )
    def test_burst_lookup_matches_window_scan(
        self, seed, bursts_per_day, mean_burst_seconds, probes
    ):
        """Overlapping windows, probed exactly on and beside every edge."""
        profile = BurstyRateProfile(
            DiurnalRateProfile(2.0, amplitude=0.3),
            horizon_seconds=86_400.0,
            seed=seed,
            bursts_per_day=bursts_per_day,
            burst_factor=1.7,
            mean_burst_seconds=mean_burst_seconds,
        )
        edges = [t for window in profile.burst_windows() for t in window]
        for t in probes + [
            probe
            for edge in edges
            for probe in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))
        ]:
            assert profile.rate(t) == oracle.bursty_rate(profile, t)

    def test_burst_windows_overlap_in_the_probed_range(self):
        """The strategy above does reach nested and overlapping windows."""
        windows = BurstyRateProfile(
            ConstantRateProfile(1.0), 86_400.0, seed=5, bursts_per_day=96.0,
            mean_burst_seconds=20_000.0,
        ).burst_windows()
        assert any(a_end > b_start for (_, a_end), (b_start, _) in zip(windows, windows[1:]))


# ---------------------------------------------------------------------------
# The job stream: look-ahead generator against per-candidate events
# ---------------------------------------------------------------------------


def profiles(draw_seed):
    base = DiurnalRateProfile(0.4, amplitude=0.5, period_seconds=7_200.0)
    return {
        "constant": (ConstantRateProfile(0.3), None),
        "diurnal": (base, None),
        "modulated": (ModulatedRateProfile(base, 20_000.0, seed=draw_seed), None),
        "bursty": (
            BurstyRateProfile(
                base, 20_000.0, seed=draw_seed, bursts_per_day=200.0,
                burst_factor=2.5, mean_burst_seconds=900.0,
            ),
            oracle.bursty_rate,
        ),
    }


class TestJobStreamAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["constant", "diurnal", "modulated", "bursty"]),
        until=st.floats(1.0, 20_000.0),
        demand=demand_distributions(),
        duration=duration_distributions(),
    )
    def test_single_generator_stream_is_identical(self, seed, kind, until, demand, duration):
        profile, oracle_rate = profiles(seed)[kind]
        engine, recorder = Engine(), _Recorder()
        rng = np.random.default_rng(seed)
        generator = BatchWorkloadGenerator(
            engine, recorder, profile, rng, duration=duration, demand=demand
        )
        generator.start(until)
        engine.run()

        oracle_engine, expected = Engine(), []
        oracle_rng = np.random.default_rng(seed)
        oracle.PerCandidateGenerator(
            oracle_engine,
            profile.rate if oracle_rate is None else (lambda t: oracle_rate(profile, t)),
            profile.max_rate,
            oracle_rng,
            duration,
            demand,
            lambda *fields: expected.append(fields),
        ).start(until)
        oracle_engine.run()

        assert recorder.jobs == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        # One event per job instead of one per candidate.
        assert engine.events_processed == len(expected)
        assert generator.exhausted


# ---------------------------------------------------------------------------
# RNG ownership
# ---------------------------------------------------------------------------


def record_arrival_callbacks(engine) -> list:
    """Names of the JOB_ARRIVAL callbacks scheduled on ``engine`` from now."""
    names: list = []
    schedule = engine.schedule

    def recording(at, priority, callback, *args):
        if priority == EventPriority.JOB_ARRIVAL:
            names.append(callback.__name__)
        return schedule(at, priority, callback, *args)

    engine.schedule = recording
    return names


class TestRngOwnership:
    def test_generators_sharing_an_rng_keep_per_candidate_events(self):
        testbed = Testbed(n_servers=40, seed=3)
        names = record_arrival_callbacks(testbed.engine)
        spec = WorkloadSpec.typical()
        left = testbed.add_batch_workload(spec, 3600.0, tenant="left")
        right = testbed.add_batch_workload(spec, 3600.0, tenant="right")
        left.start(3600.0)
        right.start(3600.0)
        testbed.run(until=3600.0)
        assert set(names) == {"_candidate_arrival"}
        assert len(names) > left.jobs_generated + right.jobs_generated > 0
        assert left.exhausted and right.exhausted

    def test_sole_generator_schedules_only_accepted_arrivals(self):
        testbed = Testbed(n_servers=40, seed=3)
        names = record_arrival_callbacks(testbed.engine)
        generator = testbed.add_batch_workload(WorkloadSpec.typical(), 3600.0)
        generator.start(3600.0)
        testbed.run(until=3600.0)
        assert set(names) == {"_arrival"}
        assert len(names) == generator.jobs_generated > 0

    def test_main_run_after_warm_up_owns_the_rng(self):
        testbed = Testbed(n_servers=40, seed=3)
        testbed.warm_up(WorkloadSpec.typical(), seconds=600.0)
        assert testbed.generators[0].exhausted
        names = record_arrival_callbacks(testbed.engine)
        generator = testbed.add_batch_workload(WorkloadSpec.typical(), 1200.0)
        generator.start(1200.0)
        testbed.run(until=1200.0)
        assert set(names) == {"_arrival"}

    def test_attaching_beside_a_generator_that_drew_ahead_is_refused(self):
        testbed = Testbed(n_servers=40, seed=3)
        generator = testbed.add_batch_workload(WorkloadSpec.typical(), 3600.0)
        generator.start(3600.0)
        testbed.run(until=600.0)
        assert generator._drawn_ahead
        with pytest.raises(RuntimeError, match="drawn ahead"):
            testbed.add_batch_workload(WorkloadSpec.typical(), 3600.0)


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_resume_with_a_look_ahead_pending_is_byte_identical():
    config = ExperimentConfig(
        n_servers=40,
        duration_hours=1.0,
        warmup_hours=0.25,
        workload=WorkloadSpec.typical(),
        capping_enabled=True,
        seed=7,
    )
    uninterrupted = ControlledExperiment(config).run()

    experiment = ControlledExperiment(config)
    experiment.start()
    experiment.advance(1800.0)
    (generator,) = experiment.testbed.generators
    assert generator._drawn_ahead
    restored = ControlledExperiment.restore(experiment.snapshot())
    (restored_generator,) = restored.testbed.generators
    assert restored_generator._drawn_ahead
    assert restored_generator._rng_peers is restored.testbed.generators
    resumed = restored.finish()
    assert json.dumps(result_to_dict(resumed), sort_keys=True) == json.dumps(
        result_to_dict(uninterrupted), sort_keys=True
    )
