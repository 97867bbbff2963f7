"""Tests for job priorities and preemption."""

import numpy as np
import pytest

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import make_servers
from tests.scalar_oracle import placement_matches


def make_cluster(n=2, preemption=True):
    engine = Engine()
    servers = make_servers(n)
    scheduler = OmegaScheduler(
        engine, servers, rng=np.random.default_rng(0),
        enable_preemption=preemption,
    )
    return engine, servers, scheduler


def fill_cluster(scheduler, n_servers, priority=0):
    """Fill every core with low-priority 16-core jobs."""
    jobs = []
    for i in range(n_servers):
        job = Job(100 + i, 1000.0, cores=16, memory_gb=8, priority=priority)
        scheduler.submit(job)
        jobs.append(job)
    return jobs


class TestPreemption:
    def test_high_priority_preempts_low(self):
        engine, servers, scheduler = make_cluster()
        fillers = fill_cluster(scheduler, 2)
        urgent = Job(1, 60.0, cores=8, memory_gb=4, priority=5)
        scheduler.submit(urgent)
        assert urgent.is_running
        assert scheduler.stats.preemptions == 1
        assert scheduler.stats.jobs_preempted == 1
        # Exactly one filler was evicted and requeued.
        assert scheduler.queued_jobs == 1
        assert sum(f.is_running for f in fillers) == 1

    def test_equal_priority_does_not_preempt(self):
        engine, servers, scheduler = make_cluster()
        fill_cluster(scheduler, 2, priority=5)
        urgent = Job(1, 60.0, cores=8, memory_gb=4, priority=5)
        scheduler.submit(urgent)
        assert not urgent.is_running
        assert scheduler.stats.preemptions == 0

    def test_zero_priority_never_preempts(self):
        engine, servers, scheduler = make_cluster()
        fill_cluster(scheduler, 2)
        ordinary = Job(1, 60.0, cores=8, memory_gb=4, priority=0)
        scheduler.submit(ordinary)
        assert not ordinary.is_running
        assert scheduler.stats.preemptions == 0

    def test_disabled_by_default(self):
        engine, servers, scheduler = make_cluster(preemption=False)
        fill_cluster(scheduler, 2)
        urgent = Job(1, 60.0, cores=8, memory_gb=4, priority=5)
        scheduler.submit(urgent)
        assert not urgent.is_running

    def test_pinned_services_never_evicted(self):
        engine, servers, scheduler = make_cluster(n=1)
        service = Job(50, float("inf"), cores=16, memory_gb=8, priority=0)
        scheduler.place_pinned(service, 0)
        urgent = Job(1, 60.0, cores=8, memory_gb=4, priority=9)
        scheduler.submit(urgent)
        assert not urgent.is_running
        assert service.server is servers[0]

    def test_evicted_job_completes_eventually(self):
        engine, servers, scheduler = make_cluster()
        fillers = fill_cluster(scheduler, 2)
        urgent = Job(1, 60.0, cores=16, memory_gb=8, priority=5)
        scheduler.submit(urgent)
        engine.run(until=3000.0)
        # urgent + both fillers (one restarted) all complete.
        assert scheduler.stats.completed == 3
        assert urgent.slowdown == pytest.approx(1.0)

    def test_victim_choice_minimizes_priority_mass(self):
        engine, servers, scheduler = make_cluster(n=2)
        low = Job(100, 1000.0, cores=16, memory_gb=8, priority=0)
        mid = Job(101, 1000.0, cores=16, memory_gb=8, priority=3)
        scheduler.submit(low)
        scheduler.submit(mid)
        urgent = Job(1, 60.0, cores=16, memory_gb=8, priority=5)
        scheduler.submit(urgent)
        assert urgent.is_running
        # The priority-0 job was the victim, not the priority-3 one.
        assert not low.is_running
        assert mid.is_running

    def test_multiple_victims_when_needed(self):
        engine, servers, scheduler = make_cluster(n=1)
        small = [
            Job(100 + i, 1000.0, cores=4, memory_gb=2, priority=0) for i in range(4)
        ]
        for job in small:
            scheduler.submit(job)
        urgent = Job(1, 60.0, cores=12, memory_gb=6, priority=5)
        scheduler.submit(urgent)
        assert urgent.is_running
        assert scheduler.stats.jobs_preempted == 3

    def test_preempted_retry_keeps_priority(self):
        engine, servers, scheduler = make_cluster()
        filler = Job(100, 1000.0, cores=16, memory_gb=8, priority=2)
        scheduler.submit(filler)
        fill_cluster(scheduler, 1)  # occupy the other server at priority 0
        urgent = Job(1, 60.0, cores=16, memory_gb=8, priority=5)
        scheduler.submit(urgent)
        assert urgent.is_running
        # Whichever victim was chosen, its retry carries its priority.
        queued = [
            job
            for framework in scheduler.all_frameworks()
            for job in framework.queue
        ]
        assert len(queued) == 1
        assert queued[0].priority in (0, 2)

    def test_mirror_consistency_after_preemption(self):
        engine, servers, scheduler = make_cluster()
        fill_cluster(scheduler, 2)
        scheduler.submit(Job(1, 60.0, cores=8, memory_gb=4, priority=5))
        assert placement_matches(scheduler)
