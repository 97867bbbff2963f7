"""Tests for rate profiles and the batch workload generator."""

import numpy as np
import pytest

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.generator import (
    BatchWorkloadGenerator,
    BurstyRateProfile,
    ConstantRateProfile,
    DiurnalRateProfile,
    ModulatedRateProfile,
    SECONDS_PER_DAY,
)
from tests.conftest import make_servers


class TestConstantProfile:
    def test_rate_and_max(self):
        profile = ConstantRateProfile(2.5)
        assert profile.rate(0.0) == 2.5
        assert profile.rate(1e6) == 2.5
        assert profile.max_rate == 2.5

    def test_negative_rate_raises(self):
        with pytest.raises(ValueError):
            ConstantRateProfile(-1.0)


class TestDiurnalProfile:
    def test_oscillates_around_base(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.2)
        quarter = SECONDS_PER_DAY / 4
        assert profile.rate(quarter) == pytest.approx(12.0)
        assert profile.rate(3 * quarter) == pytest.approx(8.0)
        assert profile.rate(0.0) == pytest.approx(10.0)

    def test_max_rate_bounds_profile(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.3)
        times = np.linspace(0, SECONDS_PER_DAY, 1000)
        assert all(profile.rate(t) <= profile.max_rate + 1e-9 for t in times)

    def test_phase_shifts_peak(self):
        profile = DiurnalRateProfile(10.0, amplitude=0.2, phase_seconds=3600.0)
        assert profile.rate(3600.0 + SECONDS_PER_DAY / 4) == pytest.approx(12.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"amplitude": 1.0}, {"amplitude": -0.1}, {"period_seconds": 0.0}],
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            DiurnalRateProfile(10.0, **kwargs)


class TestModulatedProfile:
    def base(self):
        return ConstantRateProfile(10.0)

    def test_deterministic_for_seed(self):
        a = ModulatedRateProfile(self.base(), 3600.0, seed=42)
        b = ModulatedRateProfile(self.base(), 3600.0, seed=42)
        times = np.linspace(0, 3600, 50)
        assert [a.rate(t) for t in times] == [b.rate(t) for t in times]

    def test_different_seeds_differ(self):
        a = ModulatedRateProfile(self.base(), 3600.0, seed=1)
        b = ModulatedRateProfile(self.base(), 3600.0, seed=2)
        times = np.linspace(0, 3600, 50)
        assert [a.rate(t) for t in times] != [b.rate(t) for t in times]

    def test_respects_clip_range(self):
        profile = ModulatedRateProfile(
            self.base(), 86400.0, seed=7, sigma=0.5, floor=0.6, ceil=1.4
        )
        for t in np.linspace(0, 86400, 500):
            assert 6.0 - 1e-9 <= profile.rate(t) <= 14.0 + 1e-9

    def test_max_rate_includes_ceiling(self):
        profile = ModulatedRateProfile(self.base(), 3600.0, seed=1, ceil=1.3)
        assert profile.max_rate == pytest.approx(13.0)

    def test_piecewise_constant_on_grid(self):
        profile = ModulatedRateProfile(self.base(), 3600.0, seed=1, step_seconds=100.0)
        assert profile.rate(10.0) == profile.rate(90.0)

    def test_mean_reverts_toward_one(self):
        profile = ModulatedRateProfile(self.base(), 40 * 86400.0, seed=3)
        rates = [profile.rate(t) for t in np.arange(0, 40 * 86400.0, 600.0)]
        assert np.mean(rates) == pytest.approx(10.0, rel=0.05)


class TestBurstyProfile:
    def test_rate_elevated_inside_burst(self):
        profile = BurstyRateProfile(
            ConstantRateProfile(10.0), 86400.0, seed=5,
            bursts_per_day=8.0, burst_factor=2.0,
        )
        windows = profile.burst_windows()
        assert windows, "expected at least one burst in a day at 8/day"
        start, end = windows[0]
        inside = (start + end) / 2
        assert profile.rate(inside) == pytest.approx(20.0)

    def test_rate_normal_outside_bursts(self):
        profile = BurstyRateProfile(
            ConstantRateProfile(10.0), 86400.0, seed=5,
            bursts_per_day=1.0, burst_factor=3.0,
        )
        windows = profile.burst_windows()
        t = 0.0
        while any(s <= t < e for s, e in windows):
            t += 60.0
        assert profile.rate(t) == pytest.approx(10.0)

    def test_zero_bursts(self):
        profile = BurstyRateProfile(
            ConstantRateProfile(10.0), 86400.0, seed=5, bursts_per_day=0.0
        )
        assert profile.burst_windows() == []
        assert profile.max_rate == 10.0

    @pytest.mark.parametrize(
        "kwargs", [{"burst_factor": 0.5}, {"bursts_per_day": -1.0}]
    )
    def test_invalid_args(self, kwargs):
        with pytest.raises(ValueError):
            BurstyRateProfile(ConstantRateProfile(1.0), 1000.0, seed=0, **kwargs)


class TestGenerator:
    def make(self, rate=1.0, until=3600.0):
        engine = Engine()
        servers = make_servers(8)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        generator = BatchWorkloadGenerator(
            engine,
            scheduler,
            ConstantRateProfile(rate),
            rng=np.random.default_rng(1),
        )
        generator.start(until)
        return engine, scheduler, generator

    def test_arrival_count_matches_rate(self):
        engine, scheduler, generator = self.make(rate=1.0, until=3600.0)
        engine.run(until=3600.0)
        # Poisson(3600): within 5 sigma of the mean.
        assert abs(generator.jobs_generated - 3600) < 5 * 60

    def test_jobs_reach_scheduler(self):
        engine, scheduler, generator = self.make(rate=0.5, until=600.0)
        engine.run(until=600.0)
        assert scheduler.stats.submitted == generator.jobs_generated
        assert scheduler.stats.submitted > 0

    def test_zero_rate_generates_nothing(self):
        engine, scheduler, generator = self.make(rate=0.0)
        engine.run(until=100.0)
        assert generator.jobs_generated == 0

    def test_job_ids_unique_and_offset(self):
        engine = Engine()
        servers = make_servers(4)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        seen = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, ConstantRateProfile(1.0),
            rng=np.random.default_rng(1), job_id_offset=500,
        )
        generator.listeners.append(lambda job: seen.append(job.job_id))
        generator.start(120.0)
        engine.run(until=120.0)
        assert seen == sorted(set(seen))
        assert all(j >= 500 for j in seen)

    def test_row_affinity_attached(self):
        engine = Engine()
        servers = make_servers(4)
        for s in servers:
            s.row_id = 3
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        jobs = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, ConstantRateProfile(1.0),
            rng=np.random.default_rng(1), allowed_rows=[3], product="p3",
        )
        generator.listeners.append(jobs.append)
        generator.start(60.0)
        engine.run(until=60.0)
        assert jobs
        assert all(job.allowed_rows == frozenset({3}) for job in jobs)
        assert all(job.product == "p3" for job in jobs)

    def test_thinning_tracks_time_varying_rate(self):
        """Arrivals concentrate where the rate is high."""
        engine = Engine()
        servers = make_servers(4)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
        profile = DiurnalRateProfile(1.0, amplitude=0.8)
        arrivals = []
        generator = BatchWorkloadGenerator(
            engine, scheduler, profile, rng=np.random.default_rng(1)
        )
        generator.listeners.append(lambda job: arrivals.append(job.arrival_time))
        generator.start(SECONDS_PER_DAY)
        engine.run(until=SECONDS_PER_DAY)
        arrivals = np.asarray(arrivals)
        first_half = np.sum(arrivals < SECONDS_PER_DAY / 2)  # rising sine
        second_half = len(arrivals) - first_half
        assert first_half > second_half * 1.5
