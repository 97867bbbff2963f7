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

The oracle computes *bit-identical* readings (see
``tests/test_backend_equivalence.py``); this file only pins the price.
"""

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.cluster.datacenter import build_row
from repro.durability.atomic import atomic_write_text
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
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_vectorized.json"

RESULTS: dict = {}


def _median_sweep_seconds(row, sweep) -> float:
    """Median wall-clock of ``sweep()`` with the power cache cold."""
    state, indices = row.state, row.state_indices
    sweep()  # warm caches / allocators out of the timing
    samples = []
    for _ in range(SWEEPS):
        # Workload churn invalidates power between ticks in a real run;
        # charge both loops for the recompute, not a cache hit.
        state.invalidate_power(indices)
        started = time.perf_counter()
        sweep()
        samples.append(time.perf_counter() - started)
    return sorted(samples)[len(samples) // 2]


def _array_sweep_seconds() -> float:
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

    return _median_sweep_seconds(row, sweep)


def _oracle_sweep_seconds() -> float:
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

    return _median_sweep_seconds(row, sweep)


def test_perf_sweep_throughput_10x_at_10k():
    """>= 10x monitor-sweep throughput at 10k servers."""
    oracle_s = _oracle_sweep_seconds()
    array_s = _array_sweep_seconds()
    speedup = oracle_s / array_s
    RESULTS["sweep"] = {
        "n_servers": N_SERVERS,
        "sweeps_timed": SWEEPS,
        "scalar_oracle_ms_per_sweep": round(oracle_s * 1e3, 3),
        "array_ms_per_sweep": round(array_s * 1e3, 3),
        "speedup": round(speedup, 1),
    }
    print(
        f"\n10k-server sweep: scalar oracle {oracle_s * 1e3:.1f} ms, "
        f"array {array_s * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
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

    RESULTS["memory"] = {
        "columnar_bytes_per_server_10k": round(per_slot_10k, 1),
        "columnar_bytes_per_server_100k": round(per_slot_100k, 1),
        "columnar_mb_total_100k": round(at_100k.nbytes / 2**20, 2),
        "object_bytes_per_server": round(per_object, 1),
    }
    print(
        f"\ncolumnar: {per_slot_100k:.0f} B/server "
        f"({at_100k.nbytes / 2**20:.1f} MB at 100k); "
        f"Server object: {per_object:.0f} B/server"
    )
    # Flat per-slot cost: 100k costs the same per server as 10k.
    assert per_slot_100k == per_slot_10k
    # Small in absolute terms -- a 100k facility fits in tens of MB.
    assert at_100k.nbytes < 64 * 2**20
    # And far below a Server object's per-server footprint.
    assert per_slot_100k * 10 < per_object


def test_perf_write_artifact():
    """Persist the measurements for the CI artifact (runs last)."""
    assert "sweep" in RESULTS and "memory" in RESULTS, (
        "artifact test must run after the measurement tests (pytest "
        "runs this file top to bottom)"
    )
    atomic_write_text(ARTIFACT, json.dumps(RESULTS, indent=2) + "\n")
    print(f"\nwrote {ARTIFACT}")
