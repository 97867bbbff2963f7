"""Micro-benchmarks of the simulator's hot paths.

Unlike the reproduction benchmarks (which run once and print paper
tables), most of these are conventional pytest-benchmark timings: the
event engine's scheduling throughput, the scheduler's candidate query,
the monitor's sampling loop, the Lindley recursion, and a full simulated
hour end-to-end. They exist so performance regressions in the substrate
are visible in CI, since every experiment's wall-clock depends on them.

The gates among them -- placement flat in N, telemetry overhead and the
per-op cost of the instruments -- time their two sides in interleaved
pairs (:func:`perf_gate.paired`) and write ``BENCH_microbench.json``.
"""

import numpy as np
import pytest

from benchmarks import perf_gate
from repro.scheduler.omega import OmegaScheduler
from repro.scheduler.policies import RandomAvailablePolicy
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import Testbed, WorkloadSpec
from repro.telemetry import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, Telemetry
from repro.workload.interactive import lindley_waits
from repro.workload.job import Job
from tests.conftest import make_servers


def test_perf_engine_schedule_run(benchmark):
    """Throughput of scheduling + draining 10k no-op events."""

    def run():
        engine = Engine()
        for i in range(10_000):
            engine.schedule(float(i % 100), EventPriority.GENERIC, lambda: None)
        engine.run()
        return engine.events_processed

    assert benchmark(run) == 10_000


def test_perf_tracker_candidates(benchmark):
    """One vectorized placement query over a 400-server fleet."""
    scheduler = OmegaScheduler(Engine(), make_servers(400), np.random.default_rng(0))
    for i in range(0, 400, 3):
        scheduler.servers[i].add_task(Job(i, 1e9, cores=14.0, memory_gb=30.0))

    result = benchmark(scheduler.candidates, 4.0, 8.0)
    assert len(result) > 0


PLACEMENT_REPEATS = 5


def _placement_rounds(n_servers: int, rounds: int = 2000):
    """Maker of ``rounds`` random placements plus releases on
    ``n_servers`` 16-core servers half full of two-core jobs."""
    scheduler = OmegaScheduler(Engine(), make_servers(n_servers), np.random.default_rng(0))
    for i, server in enumerate(scheduler.servers):
        for j in range(4):
            server.add_task(Job(4 * i + j, 1e9, cores=2.0, memory_gb=4.0))
    policy, rng, servers = RandomAvailablePolicy(), scheduler.rng, scheduler.servers
    job = Job(-1, 1e9, cores=2.0, memory_gb=4.0)

    def run():
        for _ in range(rounds):
            server = servers[policy.place(scheduler, 2.0, 4.0, None, rng)]
            server.add_task(job)
            server.remove_task(job)

    return lambda: run


def test_perf_placement_flat_in_n():
    """Random placement costs about the same at 20,000 servers as at 400.

    One ``RandomAvailablePolicy`` placement plus the release of the job,
    so each round also pays for re-deriving the touched server's bits.
    A scan over the store grows linearly in N and fails this gate.
    """
    pairs = perf_gate.paired(
        _placement_rounds(20_000), _placement_rounds(400), PLACEMENT_REPEATS
    )
    large, small = min(pairs.first) / 2000, min(pairs.second) / 2000
    perf_gate.record(
        "microbench", "placement_20k_over_400", pairs.ratio, 2.0, "lower",
        pairs.ratios, pairs=PLACEMENT_REPEATS,
        us_per_placement_400=round(small * 1e6, 2),
        us_per_placement_20k=round(large * 1e6, 2),
    )
    assert large <= 2.0 * small, (
        f"placement at 20,000 servers costs {large / small:.2f}x the 400-server "
        f"cost ({large * 1e6:.1f} vs {small * 1e6:.1f} us)"
    )


def test_perf_monitor_sample(benchmark):
    """One per-minute sample of a 400-server group."""
    from repro.cluster.group import ServerGroup
    from repro.monitor.power_monitor import PowerMonitor

    engine = Engine()
    servers = make_servers(400)
    monitor = PowerMonitor(engine, noise_sigma=0.01)
    monitor.register_group(ServerGroup("g", servers))

    benchmark(monitor.sample_once)
    assert monitor.samples_taken > 0


def test_perf_lindley(benchmark):
    """Vectorized Lindley recursion over one million requests."""
    rng = np.random.default_rng(0)
    inter = rng.exponential(1.0, size=1_000_000)
    inter[0] = 0.0
    services = rng.gamma(2.0, 0.3, size=1_000_000)

    waits = benchmark(lindley_waits, inter, services)
    assert (waits >= 0).all()


def test_perf_simulated_hour(benchmark):
    """End-to-end: one simulated hour of a loaded 400-server row."""

    def run():
        testbed = Testbed(n_servers=400, seed=0)
        generator = testbed.add_batch_workload(WorkloadSpec.typical(), 3600.0)
        generator.start(3600.0)
        testbed.monitor.register_group(testbed.row)
        testbed.monitor.start(3600.0)
        testbed.run(until=3600.0)
        return testbed.scheduler.stats.placed

    placed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert placed > 1000


# ---------------------------------------------------------------------------
# Telemetry overhead: the "cheap enough to be always-on" contract
# ---------------------------------------------------------------------------


TELEMETRY_PAIRS = 16
INSTRUMENT_PAIRS = 20
OPS_PER_SPIN = 30_000


def _telemetry_run(telemetry_enabled: bool):
    """Maker of one fixed small experiment's ``run`` (build untimed)."""
    config = ExperimentConfig(
        n_servers=80,
        duration_hours=1.0,
        warmup_hours=0.1,
        workload=WorkloadSpec(target_utilization=0.3),
        seed=5,
        telemetry_enabled=telemetry_enabled,
    )
    return lambda: ControlledExperiment(config).run


def test_perf_telemetry_overhead_under_five_percent():
    """Enabled telemetry must cost < 5% end-to-end.

    Telemetry's cost is inline across every layer, so no single entry
    point owns it and the gate is an A/B: the same seeded run with
    telemetry on and off in interleaved pairs, min of each side. The 5%
    bound is the subsystem's documented budget.
    """
    pairs = perf_gate.paired(
        _telemetry_run(True), _telemetry_run(False), TELEMETRY_PAIRS
    )
    overhead = pairs.ratio - 1.0
    best_on, best_off = min(pairs.first), min(pairs.second)
    perf_gate.record(
        "microbench", "telemetry_overhead", overhead, 0.05, "lower",
        [r - 1.0 for r in pairs.ratios], pairs=TELEMETRY_PAIRS,
        on_s=round(best_on, 4), off_s=round(best_off, 4),
    )
    assert best_on < best_off * 1.05, (
        f"telemetry overhead {overhead:+.1%} "
        f"(enabled {best_on:.4f}s vs disabled {best_off:.4f}s)"
    )


def _null_spin():
    for _ in range(10_000):
        NULL_COUNTER.inc()
        NULL_GAUGE.set(1.0)
        NULL_HISTOGRAM.observe(0.5)
    return True


def _live_spin():
    telemetry = Telemetry.create()
    counter = telemetry.counter("repro_bench_total")
    gauge = telemetry.gauge("repro_bench_depth")
    histogram = telemetry.histogram("repro_bench_seconds")

    def spin():
        for i in range(10_000):
            counter.inc()
            gauge.set(i)
            histogram.observe(0.01)
        return counter.value

    return spin


@pytest.fixture(scope="module")
def instrument_pairs():
    """Null and live instrument spins, 10,000 x 3 ops each, timed in
    interleaved pairs: resolve once, record many."""
    return perf_gate.paired(lambda: _null_spin, _live_spin, INSTRUMENT_PAIRS)


def _record_per_op(gate: str, seconds, bound: float) -> float:
    per_op = [s / OPS_PER_SPIN for s in seconds]
    perf_gate.record("microbench", gate, min(per_op), bound, "lower", per_op)
    return min(per_op)


def test_perf_null_instruments_are_nanosecond_noops(instrument_pairs):
    """Disabled-path record calls must be ~free (< 1 us/op even on a
    loaded CI box; typically tens of ns)."""
    assert instrument_pairs.results[0]
    per_op = _record_per_op("null_instrument_op_seconds", instrument_pairs.first, 1e-6)
    assert per_op < 1e-6, f"null instrument op costs {per_op * 1e9:.0f} ns"


def test_perf_live_instrument_throughput(instrument_pairs):
    """Hot-path cost of live instruments: resolve once, record many."""
    assert instrument_pairs.results[1] >= 10_000
    per_op = _record_per_op("live_instrument_op_seconds", instrument_pairs.second, 5e-6)
    assert per_op < 5e-6, f"live instrument op costs {per_op * 1e9:.0f} ns"
