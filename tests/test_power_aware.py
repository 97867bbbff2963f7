"""Tests for power-aware cross-row placement (the Section 6 extension)."""

import numpy as np
import pytest

from repro.cluster.datacenter import build_datacenter
from repro.scheduler.omega import OmegaScheduler
from repro.scheduler.power_aware import CoolestRowPolicy
from repro.sim.engine import Engine
from repro.sim.steering_experiment import SteeringConfig, run_steering_scenario
from repro.workload.job import Job


@pytest.fixture
def datacenter():
    return build_datacenter(rows=2, racks_per_row=1, servers_per_rack=4)


def load_row(row, cores=12):
    for server in row.servers:
        server.add_task(Job(1000 + server.server_id, 1e9, cores=cores, memory_gb=1))


class TestCoolestRowPolicy:
    def test_prefers_cool_row(self, datacenter, rng):
        load_row(datacenter.rows[0])  # row 0 hot, row 1 idle
        tracker = OmegaScheduler(Engine(), datacenter.servers, np.random.default_rng(0))
        policy = CoolestRowPolicy(datacenter.rows, temperature=0.0)
        candidates = tracker.candidates(1.0, 1.0)
        chosen_rows = {
            tracker.servers[policy.select(tracker, candidates, rng)].row_id
            for _ in range(30)
        }
        assert chosen_rows == {1}

    def test_soft_mode_still_biased(self, datacenter, rng):
        load_row(datacenter.rows[0])
        tracker = OmegaScheduler(Engine(), datacenter.servers, np.random.default_rng(0))
        policy = CoolestRowPolicy(datacenter.rows, temperature=0.05)
        candidates = tracker.candidates(1.0, 1.0)
        counts = {0: 0, 1: 0}
        for _ in range(400):
            index = policy.select(tracker, candidates, rng)
            counts[tracker.servers[index].row_id] += 1
        assert counts[1] > 2 * counts[0]

    def test_balanced_rows_split_roughly_evenly(self, datacenter, rng):
        tracker = OmegaScheduler(Engine(), datacenter.servers, np.random.default_rng(0))
        policy = CoolestRowPolicy(datacenter.rows, temperature=0.05)
        candidates = tracker.candidates(1.0, 1.0)
        counts = {0: 0, 1: 0}
        for _ in range(400):
            index = policy.select(tracker, candidates, rng)
            counts[tracker.servers[index].row_id] += 1
        assert 0.5 < counts[0] / counts[1] < 2.0

    def test_validation(self, datacenter):
        with pytest.raises(ValueError):
            CoolestRowPolicy([])
        with pytest.raises(ValueError):
            CoolestRowPolicy(datacenter.rows, temperature=-0.1)


class TestSteeringExperiment:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            run_steering_scenario("round-robin")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SteeringConfig(n_rows=3, row_utilizations=(0.2, 0.1))

    def test_small_run_produces_sane_results(self):
        config = SteeringConfig(
            n_rows=2,
            racks_per_row=1,
            row_utilizations=(0.25, 0.08),
            duration_hours=1.0,
            warmup_hours=0.25,
            seed=3,
        )
        result = run_steering_scenario("coolest-row", config)
        assert result.throughput > 0
        assert set(result.violations_by_row) == {"row-0", "row-1"}
        assert 0.0 <= result.mean_freezing_ratio <= 0.5
        # The pinned-hot row draws more power than the pinned-cold row.
        assert result.row_power_means["row-0"] > result.row_power_means["row-1"]
