"""Serial vs parallel campaign wall-clock on a 12-cell grid.

The parallel runner exists to make Table-3-style sweeps scale with the
hardware; this benchmark records the measured speedup of
``Campaign.run_parallel(max_workers=4)`` over the serial reference on a
12-cell campaign (4 ratios x 3 workloads), and verifies the two paths
still return byte-identical rows while we are at it.

The two runners are timed in interleaved pairs (:func:`perf_gate.paired`),
min of each side; the result goes to ``BENCH_parallel_campaign.json``.
On a multi-core machine (>= 2 usable CPUs) the speedup must reach 1.5x;
on a single-core container process-pool parallelism cannot beat serial
execution, so the timing is still recorded but the threshold is not
enforced.
"""

import json
import os
from functools import partial

from benchmarks import perf_gate
from repro.analysis.serialize import campaign_rows_to_dicts
from repro.sim.campaign import Campaign
from repro.sim.testbed import WorkloadSpec

SPEEDUP_TARGET = 1.5
WORKERS = 4
PAIRS = 3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def twelve_cell_campaign() -> Campaign:
    return Campaign(
        ratios=(0.13, 0.17, 0.21, 0.25),
        workloads={
            "light": WorkloadSpec(target_utilization=0.08, modulation_sigma=0.03),
            "typical": WorkloadSpec(target_utilization=0.17, modulation_sigma=0.04),
            "heavy": WorkloadSpec(target_utilization=0.30, modulation_sigma=0.04),
        },
        seeds=(7,),
        n_servers=120,
        duration_hours=2.0,
        warmup_hours=0.2,
    )


def test_perf_parallel_campaign_speedup():
    assert len(twelve_cell_campaign()) == 12
    pairs = perf_gate.paired(
        lambda: twelve_cell_campaign().run,
        lambda: partial(twelve_cell_campaign().run_parallel, max_workers=WORKERS),
        PAIRS,
    )
    serial, parallel = pairs.results
    serial_s, parallel_s = min(pairs.first), min(pairs.second)
    speedup = pairs.ratio
    perf_gate.record(
        "parallel_campaign", "parallel_campaign_speedup", speedup,
        SPEEDUP_TARGET, "higher", pairs.ratios, workers=WORKERS,
        usable_cpus=_usable_cpus(), pairs=PAIRS,
        serial_s=round(serial_s, 3), parallel_s=round(parallel_s, 3),
    )

    # Correctness first: parallel rows are byte-identical to serial.
    as_bytes = lambda result: json.dumps(
        campaign_rows_to_dicts(result.rows), sort_keys=True
    ).encode()
    assert as_bytes(parallel) == as_bytes(serial)

    if _usable_cpus() >= 2:
        assert speedup >= SPEEDUP_TARGET, (
            f"parallel campaign speedup {speedup:.2f}x below "
            f"{SPEEDUP_TARGET}x target on a {_usable_cpus()}-CPU host"
        )
    else:
        # Single-CPU container: parallelism cannot win; just require the
        # pool overhead stays sane (within 2.5x of serial).
        assert parallel_s < serial_s * 2.5
