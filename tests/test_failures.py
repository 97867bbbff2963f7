"""Tests for server failure handling and the failure injector."""

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.freeze_model import FreezeEffectModel
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.sim.failures import ServerFailureInjector
from repro.workload.generator import BatchWorkloadGenerator, ConstantRateProfile
from repro.workload.job import Job
from tests.conftest import make_servers
from tests.scalar_oracle import placement_matches


@pytest.fixture
def setup():
    engine = Engine()
    servers = make_servers(4)
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(0))
    return engine, servers, scheduler


class TestFailServer:
    def test_kills_and_resubmits_jobs(self, setup):
        engine, servers, scheduler = setup
        job = Job(1, 100.0, cores=4, memory_gb=8)
        scheduler.submit(job)
        host = job.server
        # Freeze all OTHER servers so we can check the retry waits.
        for server in servers:
            if server is not host:
                scheduler.freeze(server.server_id)
        killed = scheduler.fail_server(host.server_id)
        assert killed == 1
        assert not host.tasks
        assert host.failed
        assert host.power_watts() == 0.0
        assert scheduler.stats.jobs_killed == 1
        # The retry waits in the queue (everything else is frozen).
        assert scheduler.queued_jobs == 1

    def test_retry_runs_elsewhere(self, setup):
        engine, servers, scheduler = setup
        job = Job(1, 100.0, cores=4, memory_gb=8)
        scheduler.submit(job)
        host = job.server
        engine.run(until=50.0)
        scheduler.fail_server(host.server_id)
        engine.run(until=200.0)
        # Original object was killed; a retry completed on another server.
        assert scheduler.stats.completed == 1
        assert not host.tasks

    def test_failed_server_not_a_candidate(self, setup):
        engine, servers, scheduler = setup
        scheduler.fail_server(0)
        for i in range(6):
            scheduler.submit(Job(10 + i, 50.0, cores=2, memory_gb=2))
        assert not servers[0].tasks
        assert scheduler.stats.placed == 6

    def test_fail_is_idempotent(self, setup):
        engine, servers, scheduler = setup
        scheduler.fail_server(0)
        assert scheduler.fail_server(0) == 0
        assert scheduler.stats.failures == 1

    def test_repair_restores_candidacy(self, setup):
        engine, servers, scheduler = setup
        for i in range(1, 4):
            scheduler.freeze(i)
        scheduler.fail_server(0)
        job = Job(1, 50.0)
        scheduler.submit(job)
        assert scheduler.queued_jobs == 1
        scheduler.repair_server(0)
        assert scheduler.queued_jobs == 0
        assert job.server is servers[0]

    def test_repair_resets_frequency(self, setup):
        engine, servers, scheduler = setup
        servers[0].set_frequency(0.5)
        scheduler.fail_server(0)
        scheduler.repair_server(0)
        assert servers[0].frequency == 1.0
        assert not servers[0].failed

    def test_pinned_service_not_resubmitted(self, setup):
        engine, servers, scheduler = setup
        service = Job(99, float("inf"), cores=8, memory_gb=16)
        scheduler.place_pinned(service, 0)
        scheduler.fail_server(0)
        assert scheduler.queued_jobs == 0  # services need operator action

    def test_unknown_server_raises(self, setup):
        engine, servers, scheduler = setup
        with pytest.raises(KeyError):
            scheduler.fail_server(99)
        with pytest.raises(KeyError):
            scheduler.repair_server(99)

    def test_mirror_stays_consistent(self, setup):
        engine, servers, scheduler = setup
        scheduler.submit(Job(1, 100.0, cores=4, memory_gb=8))
        scheduler.fail_server(0)
        scheduler.fail_server(1)
        scheduler.repair_server(0)
        assert placement_matches(scheduler)


class TestInjector:
    def test_failures_and_repairs_happen(self, setup):
        engine, servers, scheduler = setup
        injector = ServerFailureInjector(
            engine, scheduler, np.random.default_rng(1),
            mtbf_hours=0.5, mttr_minutes=5.0,
        )
        injector.start(until=4 * 3600.0)
        engine.run(until=4 * 3600.0)
        assert injector.stats.failures > 2
        assert injector.stats.repairs > 0
        for entry in injector.stats.log:
            if entry.repaired_at is not None:
                assert entry.repaired_at > entry.failed_at

    def test_validation(self, setup):
        engine, servers, scheduler = setup
        with pytest.raises(ValueError):
            ServerFailureInjector(engine, scheduler, np.random.default_rng(0), mtbf_hours=0)

    def test_controller_survives_failures(self):
        """End to end: Ampere keeps controlling while machines churn."""
        engine = Engine()
        servers = make_servers(40)
        scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(2))
        group = ServerGroup("row", servers)
        group.power_budget_watts *= 0.75
        monitor = PowerMonitor(engine, noise_sigma=0.0)
        monitor.register_group(group)
        controller = AmpereController(
            engine, scheduler, monitor, [group],
            config=AmpereConfig(),
            freeze_model=FreezeEffectModel(0.02),
        )
        generator = BatchWorkloadGenerator(
            engine, scheduler, ConstantRateProfile(0.5),
            rng=np.random.default_rng(3),
        )
        injector = ServerFailureInjector(
            engine, scheduler, np.random.default_rng(4),
            mtbf_hours=2.0, mttr_minutes=10.0,
        )
        horizon = 2 * 3600.0
        generator.start(horizon)
        monitor.start(horizon)
        controller.start(horizon)
        injector.start(horizon)
        engine.run(until=horizon)
        assert injector.stats.failures > 0
        assert controller.state_of("row").ticks > 100
        assert scheduler.stats.completed > 100
        assert placement_matches(scheduler)
