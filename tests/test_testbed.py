"""Tests for the Testbed builder and throughput tracking."""

import math

import pytest

from repro.sim.events import EventPriority
from repro.sim.testbed import Testbed, ThroughputTracker, WorkloadSpec
from repro.workload.generator import (
    BurstyRateProfile,
    ModulatedRateProfile,
)
from repro.workload.job import Job


NAN, INF = math.nan, math.inf

#: per WorkloadSpec field, values that must be refused
SPEC_REFUSED = {
    "target_utilization": (NAN, INF, -INF, 0.0, 1.5),
    "diurnal_amplitude": (NAN, INF, -INF, -0.1, 1.0),
    "diurnal_phase_seconds": (NAN, INF, -INF),
    "modulation_sigma": (NAN, INF, -INF, -0.01),
    "modulation_step_seconds": (NAN, INF, -INF, -1.0, 0.0),
    "modulation_rho": (NAN, INF, -INF, -0.1, 1.0),
    "bursts_per_day": (NAN, INF, -INF, -1.0),
    "burst_factor": (NAN, INF, -INF, 0.5),
    "mean_burst_minutes": (NAN, INF, -INF, -1.0, 0.0),
}


class TestWorkloadSpec:
    def test_presets_ordered_by_intensity(self):
        light = WorkloadSpec.light()
        typical = WorkloadSpec.typical()
        heavy = WorkloadSpec.heavy()
        assert light.target_utilization < typical.target_utilization
        assert typical.target_utilization < heavy.target_utilization

    def test_scaled(self):
        spec = WorkloadSpec(target_utilization=0.2).scaled(1.5)
        assert spec.target_utilization == pytest.approx(0.3)

    @pytest.mark.parametrize("target", [0.0, 1.5])
    def test_invalid_target(self, target):
        with pytest.raises(ValueError):
            WorkloadSpec(target_utilization=target)

    @pytest.mark.parametrize("field", sorted(SPEC_REFUSED))
    def test_refuses_out_of_range_field(self, field):
        # Before the guards a NaN sigma or burst rate read as "off" in
        # ``build_rate_profile`` and silently dropped the modulation or
        # the bursts.
        for value in SPEC_REFUSED[field]:
            with pytest.raises(ValueError, match=field):
                WorkloadSpec(**{field: value})

    def test_guards_cover_every_field(self):
        assert set(SPEC_REFUSED) == set(WorkloadSpec.__dataclass_fields__)
        # The boundary values stay legal.
        WorkloadSpec(modulation_sigma=0.0, bursts_per_day=0.0, burst_factor=1.0,
                     diurnal_amplitude=0.0, modulation_rho=0.0,
                     diurnal_phase_seconds=-5.0, target_utilization=1.0)


class TestTestbedConstruction:
    def test_builds_requested_fleet(self):
        testbed = Testbed(n_servers=80, seed=0)
        assert len(testbed.row.servers) == 80
        assert len(testbed.row.racks) == 2

    def test_rejects_non_rack_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            Testbed(n_servers=50)

    def test_parity_split_covers_fleet(self):
        testbed = Testbed(n_servers=80, seed=0)
        experiment, control = testbed.split_by_parity()
        ids = {s.server_id for s in experiment.servers} | {
            s.server_id for s in control.servers
        }
        assert ids == {s.server_id for s in testbed.row.servers}

    def test_rate_profile_composition(self):
        testbed = Testbed(n_servers=80, seed=0)
        spec = WorkloadSpec(
            target_utilization=0.2, bursts_per_day=2.0, modulation_sigma=0.05
        )
        profile = testbed.build_rate_profile(spec, 3600.0)
        assert isinstance(profile, ModulatedRateProfile)
        assert isinstance(profile.base, BurstyRateProfile)

    def test_rate_profile_without_extras(self):
        testbed = Testbed(n_servers=80, seed=0)
        spec = WorkloadSpec(
            target_utilization=0.2, bursts_per_day=0.0, modulation_sigma=0.0
        )
        profile = testbed.build_rate_profile(spec, 3600.0)
        from repro.workload.generator import DiurnalRateProfile

        assert isinstance(profile, DiurnalRateProfile)

    def test_workload_runs_and_places_jobs(self):
        testbed = Testbed(n_servers=80, seed=0)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.run(until=1800.0)
        assert testbed.scheduler.stats.placed > 50

    def test_warm_up_prefills(self):
        testbed = Testbed(n_servers=80, seed=0)
        testbed.warm_up(WorkloadSpec(target_utilization=0.2), seconds=1800.0)
        busy = sum(1 for s in testbed.row.servers if s.tasks)
        assert busy > 10


class TestThroughputTracker:
    def test_counts_by_group(self):
        testbed = Testbed(n_servers=80, seed=0)
        experiment, control = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        testbed.throughput.track(control)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.run(until=1800.0)
        total_e = testbed.throughput.total("experiment")
        total_c = testbed.throughput.total("control")
        assert total_e + total_c == testbed.scheduler.stats.placed
        # Statistically similar groups receive similar shares.
        assert abs(total_e - total_c) < 0.3 * (total_e + total_c)

    def test_window_total(self):
        engine_testbed = Testbed(n_servers=80, seed=0)
        experiment, _ = engine_testbed.split_by_parity()
        tracker = engine_testbed.throughput
        tracker.track(experiment)
        engine, server = engine_testbed.engine, experiment.servers[0]
        for job_id, at in enumerate((5 * 60.0, 5 * 60.0 + 59.0, 10 * 60.0)):
            job = Job(job_id, 60.0, arrival_time=at - 2.0)
            engine.schedule(at, EventPriority.JOB_ARRIVAL, tracker.on_placement, job, server)
        engine.run(until=20 * 60.0)
        record = tracker.records["experiment"]
        assert record.minute_bins == {5: 2, 10: 1}
        assert record.wait_times == [2.0, 2.0, 2.0]
        assert tracker.window_total("experiment", 5 * 60.0, 6 * 60.0) == 2
        assert tracker.window_total("experiment", 0.0, 20 * 60.0) == 3

    def test_wait_times_recorded(self):
        testbed = Testbed(n_servers=80, seed=0)
        experiment, _ = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1800.0
        )
        generator.start(1800.0)
        testbed.run(until=1800.0)
        record = testbed.throughput.records["experiment"]
        assert len(record.wait_times) == record.total
        # Unsaturated cluster: jobs place immediately.
        assert record.mean_wait() == pytest.approx(0.0, abs=1e-6)
        assert record.wait_percentile(99) >= 0.0

    def test_wait_times_grow_when_frozen(self):
        testbed = Testbed(n_servers=80, seed=0)
        experiment, control = testbed.split_by_parity()
        testbed.throughput.track(experiment)
        testbed.throughput.track(control)
        for server in testbed.row.servers:
            testbed.scheduler.freeze(server.server_id)

        from repro.sim.events import EventPriority

        def unfreeze_all():
            for server in testbed.row.servers:
                testbed.scheduler.unfreeze(server.server_id)

        generator = testbed.add_batch_workload(
            WorkloadSpec(target_utilization=0.2), 1200.0
        )
        generator.start(600.0)
        testbed.engine.schedule(600.0, EventPriority.GENERIC, unfreeze_all)
        testbed.run(until=1200.0)
        waits = (
            testbed.throughput.records["experiment"].wait_times
            + testbed.throughput.records["control"].wait_times
        )
        assert max(waits) > 60.0  # jobs queued while everything was frozen

    def test_empty_record_wait_stats(self):
        from repro.sim.testbed import ThroughputRecord

        record = ThroughputRecord()
        assert record.mean_wait() == 0.0
        assert record.wait_percentile(99.9) == 0.0

    def test_untracked_server_ignored(self):
        testbed = Testbed(n_servers=80, seed=0)
        tracker = ThroughputTracker(testbed.engine)
        # No groups tracked: placements on any server are ignored.
        from repro.workload.job import Job

        job = Job(1, 10.0)
        tracker.on_placement(job, testbed.row.servers[0])
        assert tracker.records == {}
