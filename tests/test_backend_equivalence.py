"""Equivalence of the array engine with the per-object loops it replaced.

Every hot loop runs as array expressions over one shared
:class:`~repro.cluster.state.ClusterState`. Two kinds of check hold that
single path to the per-``Server`` formulation it replaced, **byte for
byte**:

- *Pinned trajectory digests.* The seeded experiment, the surge and
  crash-storm chaos runs, the fleet A/B, the serial and parallel
  campaigns and a monitor-level IPMI run were digested (SHA-256 of the
  serialized document, ``engine_backend`` config key masked) while the
  per-object engine still existed, with both engines printing the same
  digests. Any change to a trajectory shows up here.
- *Per-loop checks against the scalar oracle* (``tests/scalar_oracle.py``):
  power aggregation, per-server powers, the capping victim and restore
  orders, capped-time accounting, the IPMI sweep with timeouts and
  staleness, and the scheduler's placement filter after fail, repair,
  power-off, shed and preempt sequences. The placement index is held to
  that filter the same way: per demand and row set its count is
  ``len(candidates())`` and its k-th position is ``candidates()[k]``.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import (
    campaign_rows_to_dicts,
    fleet_result_to_dict,
    result_to_dict,
)
from repro.cluster.capping import CappingEngine
from repro.cluster.datacenter import ServerSpec, build_heterogeneous_row, build_row
from repro.cluster.power import PowerModelParams
from repro.core.safety import SafetyConfig
from repro.faults.scenario import builtin_scenarios
from repro.fleet.config import FleetConfig
from repro.monitor.ipmi import IpmiFleet
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.campaign import Campaign
from repro.sim.engine import Engine
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.fleet_experiment import (
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec
from repro.workload.job import Job
from tests import scalar_oracle as oracle

#: SHA-256 of each pinned document, recorded with the per-object engine
#: and the array engine agreeing on every one of them.
PINNED = {
    "experiment": "4f376c91e8c99dfcf19689335dd3a8f25c1273791f428d21e622aad98932a999",
    "surge": "aae76b3af7251ebe7dd03fe6345672101244cf0ec1956ae87fd22303de03ad87",
    "crash-storm": "65be237dd6929e4a7ec2e5717702855653569bf67b84085b622ee6cc40abc36d",
    "fleet-ab": "56e0ba4653c676c64d821f8bdaca8d12fe5183b7ac32211803a084e307733295",
    "campaign": "0e34cfa2962ab4e3d960036e1cc05c8f5f1df772fb280651131547465c8763dd",
    "ipmi": "ade819f895e3821e80d970bdc2ea4acd792e055a767b5862a3a4f975539f7d2f",
}


def digest(document) -> str:
    """SHA-256 of the canonical JSON form, ``engine_backend`` masked."""
    if isinstance(document, dict) and isinstance(document.get("config"), dict):
        document["config"].pop("engine_backend", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


class TestExperimentTrajectories:
    def test_seeded_experiment_byte_identical(self):
        config = ExperimentConfig(
            n_servers=80,
            duration_hours=1.0,
            warmup_hours=0.25,
            over_provision_ratio=0.25,
            capping_enabled=True,
            workload=WorkloadSpec(target_utilization=0.33, modulation_sigma=0.05),
            seed=42,
        )
        result = ControlledExperiment(config).run()
        assert digest(result_to_dict(result, include_series=True)) == PINNED["experiment"]

    @pytest.mark.parametrize("scenario", ["surge", "crash-storm"])
    def test_chaos_scenarios_byte_identical(self, scenario):
        """Hazard paths (mass failures, demand surges) under the safety
        ladder, with telemetry on so the metrics snapshot is pinned too."""
        config = ExperimentConfig(
            n_servers=40,
            duration_hours=1.5,
            warmup_hours=1.0,  # builtin scenario times assume 1 h
            over_provision_ratio=0.25,
            workload=WorkloadSpec.typical(),
            capping_enabled=True,
            seed=7,
            faults=builtin_scenarios()[scenario],
            safety=SafetyConfig(),
            telemetry_enabled=True,
        )
        result = ControlledExperiment(config).run()
        assert digest(result_to_dict(result, include_series=True)) == PINNED[scenario]


class TestFleetTrajectories:
    def test_fleet_ab_byte_identical(self):
        """Multi-row fleet with coordinator: hot vs cold rows under one
        facility budget, one columnar store across rows."""
        config = FleetExperimentConfig(
            rows=(
                FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.35)),
                FleetRowSpec(n_servers=40, workload=WorkloadSpec(target_utilization=0.08)),
            ),
            duration_hours=1.0,
            warmup_hours=0.25,
            fleet=FleetConfig(policy="demand-following"),
            seed=11,
        )
        result = FleetExperiment(config).run()
        assert digest(fleet_result_to_dict(result)) == PINNED["fleet-ab"]


class TestCampaignRows:
    @pytest.fixture(scope="class")
    def campaign_rows(self):
        """Campaign row documents, serial and parallel."""

        def rows(parallel: bool):
            campaign = Campaign(
                ratios=(0.25,),
                workloads={"typical": WorkloadSpec.typical()},
                seeds=(3, 5),
                n_servers=80,
                duration_hours=0.2,
                warmup_hours=0.05,
            )
            result = (
                campaign.run_parallel(max_workers=2) if parallel else campaign.run()
            )
            return campaign_rows_to_dicts(result.rows)

        return {mode: rows(mode == "parallel") for mode in ("serial", "parallel")}

    def test_campaign_serial_byte_identical_across_backends(self, campaign_rows):
        assert digest(campaign_rows["serial"]) == PINNED["campaign"]

    def test_campaign_parallel_matches_serial_per_backend(self, campaign_rows):
        """The process-pool runner agrees with the serial reference."""
        assert campaign_rows["parallel"] == campaign_rows["serial"]
        assert digest(campaign_rows["parallel"]) == PINNED["campaign"]


class TestIpmiSweeps:
    def test_ipmi_sweep_byte_identical(self):
        """The batched IPMI sweep (timeouts, fallback carry, staleness,
        quantization) through the monitor, pinned end to end."""
        row = build_row(0, racks=2, servers_per_rack=10)
        monitor = PowerMonitor(
            Engine(),
            noise_sigma=0.01,
            rng=np.random.default_rng(7),
            ipmi_failure_rate=0.2,
            store_per_server=True,
        )
        monitor.register_group(row)
        for _ in range(40):
            monitor.sample_once()
        _, values = monitor.power_series(row.name)
        fleet = monitor._fleets[row.name]
        document = {
            "total": hashlib.sha256(values.tobytes()).hexdigest(),
            "per_server": [
                hashlib.sha256(
                    monitor.db.query(f"power/server/{sid}")[1].tobytes()
                ).hexdigest()
                for sid in range(20)
            ],
            "counts": [
                fleet.total_polls,
                fleet.total_timeouts,
                fleet.fallbacks_used,
                fleet.stale_reads,
            ],
            "stale": sorted(fleet.stale_ids),
        }
        assert digest(document) == PINNED["ipmi"]


# ---------------------------------------------------------------------------
# Per-loop checks: array path == scalar oracle
# ---------------------------------------------------------------------------

EXOTIC = PowerModelParams(
    rated_watts=350.0, utilization_exponent=1.3, frequency_power_exponent=2.1
)

server_states = st.lists(
    st.tuples(
        st.integers(0, 16),  # used cores
        st.sampled_from([1.0, 0.9, 0.8, 0.7, 0.6, 0.5]),  # DVFS frequency
        st.sampled_from(["live", "live", "live", "failed", "off"]),
    ),
    min_size=1,
    max_size=24,
)

FAST = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build_group(states, exotic_every=0):
    """A row whose servers are put into the drawn states."""
    n = len(states)
    if exotic_every:
        specs = [
            (1, ServerSpec(power_params=EXOTIC if i % exotic_every == 0 else PowerModelParams()))
            for i in range(n)
        ]
        row = build_heterogeneous_row(0, specs, servers_per_rack=1)
    else:
        row = build_row(0, racks=1, servers_per_rack=n)
    for i, (server, (used, frequency, status)) in enumerate(zip(row.servers, states)):
        if used:
            server.add_task(Job(i, 1e9, cores=used, memory_gb=1.0))
        server.set_frequency(frequency)
        if status == "failed":
            server.fail()
        elif status == "off" and not server.tasks:
            server.power_off()
    return row


class TestPowerLoops:
    @FAST
    @given(server_states, st.sampled_from([0, 2, 3]))
    def test_total_and_per_server_power(self, states, exotic_every):
        row = build_group(states, exotic_every)
        expected = oracle.server_powers(row.servers)
        assert row.server_powers().tobytes() == expected.tobytes()
        assert row.power_watts() == oracle.total_power(row.servers)
        assert row.freezing_ratio() == 0.0


class TestCappingOrders:
    @FAST
    @given(server_states)
    def test_hottest_first_and_restore_orders(self, states):
        row = build_group(states)
        capper = CappingEngine(row, Engine())
        assert capper._live_hottest_first() == oracle.hottest_first(row.servers)
        assert capper._live_least_capped_first() == oracle.restore_order(row.servers)

    @FAST
    @given(server_states)
    def test_capped_time_accounting(self, states):
        row = build_group(states)
        capper = CappingEngine(row, Engine(), interval=2.0)
        capper._account_capped_time()
        expected = oracle.capped_live_ids(row.servers)
        assert list(capper.stats.per_server_capped_seconds) == expected
        assert capper.stats.capped_server_seconds == 2.0 * len(expected)


class TestIpmiSweepOracle:
    @FAST
    @given(
        server_states,
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.05, 0.4, 0.9]),
        st.sampled_from([0.0, 0.01, 0.5]),
        st.integers(0, 3),
        st.sampled_from([1.0, 5.0, 0.5]),
    )
    # A dark server under strong negative noise reads -0.0 before the
    # clamp, which must come out as +0.0 like the scalar ``max``.
    @example([(0, 1.0, "live")] * 4 + [(0, 1.0, "failed")] + [(0, 1.0, "live")] * 3,
             0, 0.0, 0.5, 0, 1.0)
    def test_sweep_with_timeouts_and_staleness(
        self, states, seed, failure_rate, noise_sigma, max_fallback, quantum
    ):
        row = build_group(states)
        kwargs = dict(
            noise_sigma=noise_sigma,
            failure_rate=failure_rate,
            max_fallback_polls=max_fallback,
            quantize_watts=quantum,
        )
        fleet = IpmiFleet(row.servers, np.random.default_rng(seed), **kwargs)
        scalar = oracle.IpmiSweepOracle(row.servers, np.random.default_rng(seed), **kwargs)
        for sweep in range(8):
            if sweep == 4:  # state moves between sweeps
                row.servers[0].set_frequency(0.5 if row.servers[0].frequency == 1.0 else 1.0)
            got = fleet.poll()
            want = np.array(scalar.poll(), dtype=np.float64)
            assert got.tobytes() == want.tobytes()
        assert fleet.total_polls == scalar.polls
        assert fleet.total_timeouts == scalar.timeouts
        assert fleet.fallbacks_used == scalar.fallbacks_used
        assert fleet.stale_reads == scalar.stale_reads
        assert fleet.stale_ids == scalar.stale_ids


# ---------------------------------------------------------------------------
# Placement: candidates == brute-force scan after mutation sequences
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "urgent", "fail", "repair", "off", "on", "shed", "freeze", "unfreeze", "run"]
        ),
        st.integers(0, 11),
        st.sampled_from([1.0, 2.0, 4.0, 8.0]),
        st.sampled_from([1.0, 3.0, 8.0, 30.0]),
    ),
    min_size=1,
    max_size=40,
)


#: every integral demand up to the largest capacity on each axis, so each
#: server's fit boundary is probed exactly
FIT_PROBES = (
    [(float(c), 1.0) for c in range(1, 34)]
    + [(1.0, float(m)) for m in range(0, 66)]
    + list(oracle.PROBE_DEMANDS)
)


def assert_candidates_match(scheduler):
    for cores, memory_gb in FIT_PROBES:
        for rows in (None, frozenset({1})):
            fast = scheduler.candidates(cores, memory_gb, rows).tolist()
            slow = oracle.placement_candidates(scheduler.servers, cores, memory_gb, rows)
            assert fast == slow, (cores, memory_gb, rows)


class TestPlacementOracle:
    @FAST
    @given(OPS, st.sampled_from(["uniform", "interleaved", "mixed-sku"]))
    def test_candidates_after_mutation_sequences(self, ops, layout):
        engine = Engine()
        if layout == "interleaved":
            # Two rows in one store, the scheduler over every other slot.
            row_a = build_row(0, racks=1, servers_per_rack=6)
            row_b = build_row(
                1, racks=1, servers_per_rack=12, state=row_a.state, first_server_id=6
            )
            servers = row_a.servers + row_b.servers[::2]
        else:
            if layout == "mixed-sku":  # per-server capacities, not one scalar
                small, large = ServerSpec(cores=8, memory_gb=24.0), ServerSpec(cores=32)
                row_a = build_heterogeneous_row(0, [(6, small), (6, large)], servers_per_rack=6)
            else:
                row_a = build_row(0, racks=1, servers_per_rack=12)
            servers = row_a.servers
            for server in servers[6:]:
                server.row_id = 1
        scheduler = OmegaScheduler(
            engine, servers, np.random.default_rng(0), enable_preemption=True
        )
        next_id = 0
        for op, k, cores, memory_gb in ops:
            server = servers[k % len(servers)]
            sid = server.server_id
            if op in ("submit", "urgent"):
                next_id += 1
                scheduler.submit(
                    Job(next_id, 600.0 * cores, cores=cores, memory_gb=memory_gb,
                        arrival_time=engine.now, priority=3 if op == "urgent" else 0)
                )
            elif op == "fail":
                scheduler.fail_server(sid)
            elif op == "repair":
                scheduler.repair_server(sid)
            elif op == "off":
                if not server.tasks and not server.failed:
                    scheduler.power_off_server(sid)
            elif op == "on":
                if server.powered_off:
                    scheduler.power_on_server(sid)
            elif op == "shed":
                scheduler.shed_tasks(sid, max_tasks=1)
            elif op == "freeze":
                scheduler.freeze(sid)
            elif op == "unfreeze":
                scheduler.unfreeze(sid)
            else:
                engine.run(until=engine.now + 300.0 * cores)
            assert_candidates_match(scheduler)
            free = scheduler.free_cores(np.arange(len(servers)))
            assert free.tolist() == [s.free_cores for s in servers]


# ---------------------------------------------------------------------------
# Placement index: count and k-th == candidates() after mutation sequences
# ---------------------------------------------------------------------------

INDEX_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["submit", "rows", "urgent", "run", "fail", "repair", "off", "on",
             "shed", "freeze", "unfreeze", "set-frozen", "mask-fail",
             "mask-repair", "mask-freeze", "mask-thaw"]
        ),
        st.integers(0, 47),
        st.sampled_from([1.0, 2.0, 4.0, 8.0]),
    ),
    min_size=1,
    max_size=40,
)

#: demands probed after every op, with memory proportional as in the
#: workloads, plus one that never fits
INDEX_PROBES = ((1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (8.0, 16.0), (16.0, 60.0), (33.0, 1.0))

#: no filter, one row, and two rows whose positions are not adjacent
INDEX_ROW_SETS = (None, frozenset({1}), frozenset({0, 2}))

INDEX_LAYOUTS = ["uniform", "mixed-sku", "interleaved", "unsorted", "shared-8"]


def index_layout(layout):
    """``(store, schedulers' server lists)`` for one layout."""
    if layout == "interleaved":
        # Two rows in one store, the scheduler over every other slot of
        # the second.
        row_a = build_row(0, racks=1, servers_per_rack=12)
        row_b = build_row(
            1, racks=1, servers_per_rack=24, state=row_a.state, first_server_id=12
        )
        servers, groups = row_a.servers + row_b.servers, [row_a.servers + row_b.servers[::2]]
    elif layout == "mixed-sku":  # per-server capacities, not one scalar
        small, large = ServerSpec(cores=8, memory_gb=24.0), ServerSpec(cores=32)
        row = build_heterogeneous_row(0, [(12, small), (12, large)], servers_per_rack=12)
        servers = row.servers
        groups = [servers[::2] + servers[1::2]]  # mixed SKUs, unsorted slots
    else:
        row = build_row(0, racks=1, servers_per_rack=24)
        servers = row.servers
        if layout == "unsorted":
            groups = [servers[::-1][::2] + servers[::2]]
        elif layout == "shared-8":  # eight schedulers on one store
            groups = [servers[3 * j : 3 * j + 3] for j in range(8)]
        else:
            groups = [servers]
    for i, server in enumerate(servers):
        server.row_id = (i // 4) % 3
    return servers[0]._state, groups


class TestPlacementIndexOracle:
    @FAST
    @given(INDEX_OPS, st.sampled_from(INDEX_LAYOUTS))
    def test_index_after_mutation_sequences(self, ops, layout):
        engine = Engine()
        state, groups = index_layout(layout)
        schedulers = [
            OmegaScheduler(engine, group, np.random.default_rng(j), enable_preemption=True)
            for j, group in enumerate(groups)
        ]

        def check():
            for scheduler in schedulers:
                assert oracle.placement_matches(scheduler, INDEX_PROBES, INDEX_ROW_SETS)

        check()  # build every index before the writes start
        next_id = 0
        for op, k, cores in ops:
            scheduler = schedulers[k % len(schedulers)]
            server = scheduler.servers[(k // len(schedulers)) % len(scheduler.servers)]
            sid, slot = server.server_id, server._index
            idle = not server.tasks
            if op in ("submit", "rows", "urgent"):
                next_id += 1
                scheduler.submit(
                    Job(next_id, 600.0 * cores, cores=cores, memory_gb=2.0 * cores,
                        arrival_time=engine.now, priority=3 if op == "urgent" else 0,
                        allowed_rows=frozenset({0, 2}) if op == "rows" else None)
                )
            elif op == "run":
                engine.run(until=engine.now + 300.0 * cores)
            elif op == "fail":
                scheduler.fail_server(sid)
            elif op == "repair":
                scheduler.repair_server(sid)
            elif op == "off":
                if idle and not server.failed:
                    scheduler.power_off_server(sid)
            elif op == "on":
                if server.powered_off:
                    scheduler.power_on_server(sid)
            elif op == "shed":
                scheduler.shed_tasks(sid, max_tasks=1)
            elif op == "freeze":
                scheduler.freeze(sid)
            elif op == "unfreeze":
                scheduler.unfreeze(sid)
            elif op == "set-frozen":  # a direct setter write
                server.frozen = not server.frozen
            elif op == "mask-fail":
                if idle:
                    state.fail_servers(np.array([slot]))
            elif op == "mask-repair":
                if idle:
                    state.repair_servers(np.array([slot]))
            else:
                state.set_frozen(slot, op == "mask-freeze")
            check()
