"""Perf gate for the online state-invariant auditor (``repro.sim.audit``).

An auditor nobody can afford to leave on is an auditor that is off when
the corruption happens. The contract pinned here: at its *default*
configuration (five-minute cadence, 25% deterministic sampling) the
auditor adds **less than 5%** wall-clock to a representative safety-armed
experiment. Measurements go to ``BENCH_auditor.json`` for CI to publish.

The cost is accounted inside each audited run (:func:`perf_gate.run_shares`):
the auditor's periodic entry point, ``StateAuditor.tick``, is timed and
charged against the rest of the same run. The auditor consumes no RNG
and mutates nothing (see ``tests/test_auditor.py``), so everything it
adds to a run happens inside that tick.
"""

import statistics

from benchmarks import perf_gate
from repro.core.safety import SafetyConfig
from repro.sim.audit import AuditorConfig
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec

N_SERVERS = 200
HOURS = 4.0
RUNS = 5
MAX_OVERHEAD = 0.05


def _audited_run(auditor: AuditorConfig) -> ControlledExperiment:
    return ControlledExperiment(
        ExperimentConfig(
            n_servers=N_SERVERS,
            duration_hours=HOURS,
            warmup_hours=0.5,
            workload=WorkloadSpec.typical(),
            capping_enabled=True,
            safety=SafetyConfig(),
            seed=11,
            auditor=auditor,
        )
    )


def test_perf_auditor_overhead_under_5_percent():
    """Default-config auditing costs < 5% wall-clock."""
    default_config = AuditorConfig()
    shares = perf_gate.run_shares(
        lambda: _audited_run(default_config), "auditor.tick", RUNS
    )
    overhead = statistics.median(shares)
    perf_gate.record(
        "auditor", "auditor_overhead", overhead, MAX_OVERHEAD, "lower", shares,
        n_servers=N_SERVERS, hours=HOURS, runs=RUNS,
        interval_seconds=default_config.interval_seconds,
        sample_fraction=default_config.sample_fraction,
    )
    assert overhead < MAX_OVERHEAD, (
        f"default-sampling auditor costs {overhead:.1%} of the run "
        f"(gate {MAX_OVERHEAD:.0%}); per-run shares {shares}"
    )
