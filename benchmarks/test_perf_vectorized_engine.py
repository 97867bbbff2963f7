"""Perf gate for the array engine core (``repro.cluster.state``).

Two contracts, measured at facility scale and written to
``BENCH_vectorized.json`` for CI to publish:

* **Throughput** -- the monitor sweep (IPMI poll of every BMC, noise,
  quantization, staleness bookkeeping, power aggregation) over a
  10k-server row must run at least **10x faster** as array expressions
  than as the per-server loop of the scalar oracle
  (``tests/scalar_oracle.py``). The sweep is the per-minute hot loop; at
  100k servers a per-server loop alone would eat the entire control
  interval.
* **Memory** -- the columnar store must stay a small flat cost per
  slot all the way to 100k servers (no per-object dicts in the hot
  state), an order of magnitude below what a ``Server`` object costs.

The two sweeps are timed in interleaved pairs (:func:`perf_gate.paired`),
each with the power cache cold. The oracle computes *bit-identical*
readings (see ``tests/test_backend_equivalence.py``); this file only
pins the price.
"""

import tracemalloc

import numpy as np

from benchmarks import perf_gate
from repro.cluster.datacenter import build_row
from repro.cluster.power import PowerModelParams
from repro.cluster.server import Server
from repro.cluster.state import ClusterState
from repro.monitor.power_monitor import PowerMonitor
from repro.sim.engine import Engine
from tests import scalar_oracle

N_SERVERS = 10_000
RACKS = 250
SERVERS_PER_RACK = 40
SWEEPS = 5
FAILURE_RATE = 0.02
MIN_SPEEDUP = 10.0


def _cold(row, sweep):
    """Maker of one timed ``sweep()`` with the row's power cache cold."""
    state, indices = row.state, row.state_indices

    def make():
        # Workload churn invalidates power between ticks in a real run;
        # charge both loops for the recompute, not a cache hit.
        state.invalidate_power(indices)
        return sweep

    return make


def _array_sweep():
    row = build_row(0, racks=RACKS, servers_per_rack=SERVERS_PER_RACK)
    monitor = PowerMonitor(
        Engine(),
        noise_sigma=0.01,
        rng=np.random.default_rng(7),
        ipmi_failure_rate=FAILURE_RATE,
    )
    monitor.register_group(row)

    def sweep():
        monitor.sample_once()
        row.power_watts()

    return _cold(row, sweep)


def _oracle_sweep():
    row = build_row(0, racks=RACKS, servers_per_rack=SERVERS_PER_RACK)
    fleet = scalar_oracle.IpmiSweepOracle(
        row.servers,
        np.random.default_rng(7),
        noise_sigma=0.01,
        failure_rate=FAILURE_RATE,
    )

    def sweep():
        sum(v for v in fleet.poll() if v == v)  # NaN-skipping total
        scalar_oracle.total_power(row.servers)

    return _cold(row, sweep)


def test_perf_sweep_throughput_10x_at_10k():
    """>= 10x monitor-sweep throughput at 10k servers."""
    pairs = perf_gate.paired(_oracle_sweep(), _array_sweep(), SWEEPS)
    speedup = pairs.ratio
    oracle_s, array_s = min(pairs.first), min(pairs.second)
    perf_gate.record(
        "vectorized", "sweep_speedup", speedup, MIN_SPEEDUP, "higher",
        pairs.ratios, n_servers=N_SERVERS, pairs=SWEEPS,
        scalar_oracle_ms_per_sweep=round(oracle_s * 1e3, 3),
        array_ms_per_sweep=round(array_s * 1e3, 3),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"array sweep only {speedup:.1f}x faster at {N_SERVERS} servers "
        f"({oracle_s * 1e3:.1f} ms vs {array_s * 1e3:.1f} ms)"
    )


def test_perf_memory_flat_to_100k():
    """Columnar state stays a small flat per-slot cost up to 100k."""
    params = PowerModelParams()

    def filled(n: int) -> ClusterState:
        state = ClusterState(capacity=n)
        for i in range(n):
            state.add_server(i, 16, 64.0, params, 0.05)
        return state

    at_10k = filled(10_000)
    at_100k = filled(100_000)
    per_slot_10k = at_10k.bytes_per_server()
    per_slot_100k = at_100k.bytes_per_server()

    # The marginal cost of one Server object (tasks dict, listener
    # list, attribute storage), for scale.
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    servers = [Server(i, power_params=params) for i in range(1_000)]
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    object_bytes = sum(
        s.size_diff for s in after.compare_to(before, "lineno") if s.size_diff > 0
    )
    per_object = object_bytes / len(servers)

    perf_gate.record(
        "vectorized", "server_object_over_columnar_bytes",
        per_object / per_slot_100k, 10.0, "higher", [per_object / per_slot_100k],
        columnar_bytes_per_server_100k=round(per_slot_100k, 1),
        columnar_mb_total_100k=round(at_100k.nbytes / 2**20, 2),
        object_bytes_per_server=round(per_object, 1),
    )
    # Flat per-slot cost: 100k costs the same per server as 10k.
    assert per_slot_100k == per_slot_10k
    # Small in absolute terms -- a 100k facility fits in tens of MB.
    assert at_100k.nbytes < 64 * 2**20
    # And far below a Server object's per-server footprint.
    assert per_slot_100k * 10 < per_object
