"""Tests for the scheduler's placement filter over the shared store."""

import numpy as np
import pytest

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import make_server, make_servers


def make_tracker(n=4, cores=16, servers=None):
    servers = make_servers(n, cores=cores) if servers is None else servers
    return OmegaScheduler(Engine(), servers, np.random.default_rng(0))


def occupy(scheduler, position, cores, memory_gb, job_id=1):
    job = Job(job_id, 1e9, cores=cores, memory_gb=memory_gb)
    scheduler.servers[position].add_task(job)
    return job


class TestCandidates:
    def test_all_empty_servers_are_candidates(self):
        tracker = make_tracker(4)
        assert len(tracker.candidates(2.0, 4.0)) == 4

    def test_oversized_demand_has_no_candidates(self):
        tracker = make_tracker(4)
        assert len(tracker.candidates(17.0, 4.0)) == 0

    def test_placement_shrinks_candidates(self):
        tracker = make_tracker(2)
        occupy(tracker, 0, 15.0, 4.0)
        candidates = tracker.candidates(2.0, 4.0)
        assert candidates.tolist() == [1]

    def test_release_restores_candidates(self):
        tracker = make_tracker(2)
        job = occupy(tracker, 0, 15.0, 4.0)
        tracker.servers[0].remove_task(job)
        assert len(tracker.candidates(2.0, 4.0)) == 2

    def test_frozen_servers_excluded(self):
        tracker = make_tracker(3)
        tracker.freeze(1)
        assert tracker.candidates(1.0, 1.0).tolist() == [0, 2]

    def test_unfreeze_restores(self):
        tracker = make_tracker(2)
        tracker.freeze(0)
        tracker.unfreeze(0)
        assert len(tracker.candidates(1.0, 1.0)) == 2

    def test_row_filter(self):
        servers = make_servers(4)
        for i, s in enumerate(servers):
            s.row_id = i % 2
        tracker = make_tracker(servers=servers)
        assert tracker.candidates(1.0, 1.0, frozenset({0})).tolist() == [0, 2]
        assert tracker.candidates(1.0, 1.0, frozenset({1})).tolist() == [1, 3]

    def test_exact_fit_is_candidate(self):
        tracker = make_tracker(1)
        occupy(tracker, 0, 12.0, 4.0)
        assert len(tracker.candidates(4.0, 4.0)) == 1
        assert len(tracker.candidates(4.01, 4.0)) == 0

    def test_non_contiguous_slots(self):
        """Servers interleaved with foreign slots in the store are read
        through their slot indices, not a slice."""
        servers = make_servers(6)
        tracker = make_tracker(servers=servers[::2])
        tracker.freeze(2)
        occupy(tracker, 2, 16.0, 1.0)
        assert tracker.candidates(1.0, 1.0).tolist() == [0]
        np.testing.assert_array_equal(tracker.free_cores(np.array([0, 2])), [16.0, 0.0])


class TestMirror:
    """Construction and accessors: the scheduler keeps no resource copy."""

    def test_duplicate_ids_raise(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_tracker(servers=make_servers(1, first_id=1) * 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            make_tracker(servers=[])

    def test_servers_of_different_stores_rejected(self):
        with pytest.raises(ValueError, match="share one ClusterState"):
            make_tracker(servers=[make_server(0), make_server(1)])

    def test_accessors(self):
        tracker = make_tracker(2)
        assert tracker.servers[1].server_id == 1
        assert tracker.index_of[1] == 1
        assert len(tracker.servers) == 2
        np.testing.assert_array_equal(tracker.free_cores(np.array([0, 1])), [16.0, 16.0])
        occupy(tracker, 0, 4.0, 8.0)
        np.testing.assert_array_equal(tracker.free_cores(np.array([0, 1])), [12.0, 16.0])
