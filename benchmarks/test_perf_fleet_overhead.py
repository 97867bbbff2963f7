"""Fleet coordinator overhead: the "slow loop is cheap" contract.

The coordinator runs once per ``cadence_intervals`` control intervals
and does a handful of percentile queries plus a policy solve, so its
cost on a fleet run must stay under 5%. The cost is accounted inside
each run (:func:`perf_gate.run_shares`): ``FleetCoordinator.tick`` is
timed and charged against the rest of the same run, under both the
static policy and the demand-following one, whose ticks do the full
gather/propose/apply pipeline. Measurements go to ``BENCH_fleet.json``.
"""

import statistics

import pytest

from benchmarks import perf_gate
from repro.fleet import FleetConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec

RUNS = 5
MAX_OVERHEAD = 0.05


def fleet_config(policy: str) -> FleetExperimentConfig:
    return FleetExperimentConfig(
        rows=(
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(
                    target_utilization=0.40,
                    bursts_per_day=4.0,
                    burst_factor=1.3,
                ),
            ),
            FleetRowSpec(
                n_servers=40,
                workload=WorkloadSpec(target_utilization=0.06),
            ),
        ),
        duration_hours=1.5,
        warmup_hours=0.25,
        over_provision_ratio=0.25,
        seed=7,
        fleet=FleetConfig(policy=policy),
    )


@pytest.mark.parametrize("policy", ["static", "demand-following"])
def test_perf_coordinator_overhead_under_five_percent(policy):
    """The coordinator's ticks cost < 5% of the fleet run they ride in."""
    shares = perf_gate.run_shares(
        lambda: FleetExperiment(fleet_config(policy)), "coordinator.tick", RUNS
    )
    overhead = statistics.median(shares)
    perf_gate.record(
        "fleet", f"coordinator_overhead[{policy}]", overhead, MAX_OVERHEAD,
        "lower", shares, rows=2, servers_per_row=40, hours=1.5, runs=RUNS,
    )
    assert overhead < MAX_OVERHEAD, (
        f"{policy} coordinator costs {overhead:.1%} of the fleet run "
        f"(gate {MAX_OVERHEAD:.0%}); per-run shares {shares}"
    )
