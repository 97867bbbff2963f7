#!/usr/bin/env python3
"""Simulator throughput benchmark: end-to-end metrics and a per-layer split.

Runs one workload through the public staged API (construct, ``start()``,
``advance()``, ``finish()``) for about ``--seconds`` of wall time, prints
every metric by name with its unit, then one JSON result line::

    python3 perfbench/run.py --workload row-400 --seed 1 --seconds 20 --trace 0

Each workload is a batch simulation of a pinned size, so the load is
neither an open nor a closed loop: the figure of merit is simulated work
per wall second. A run repeats the workload's simulation for ``--seed``
until the time is spent. Every simulation is checked (finite outputs, job
conservation, violations, breaker trips) and digested, and every repeat
must reproduce the first digest.

``--trace 0`` reports the end-to-end metrics of untraced runs.
``--trace 1`` alternates untraced and traced runs (see ``layer_trace``),
requires both to give the same digest, and reports the per-layer split and
the tracing overhead. README.md beside this file says why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layer_trace import LayerTracer  # noqa: E402
from repro.core.safety import SafetyConfig  # noqa: E402
from repro.fleet.config import FleetConfig  # noqa: E402
from repro.sim.experiment import ControlledExperiment, ExperimentConfig  # noqa: E402
from repro.sim.fleet_experiment import (  # noqa: E402
    FleetExperiment,
    FleetExperimentConfig,
    FleetRowSpec,
)
from repro.sim.testbed import WorkloadSpec  # noqa: E402

#: the ``fleet`` CLI's hot row, and a cold row well under its budget
HOT_ROW = WorkloadSpec(target_utilization=0.40, bursts_per_day=4, burst_factor=1.3)
COLD_ROW = WorkloadSpec(target_utilization=0.06)

#: throwaway set-ups timed before a trace-0 run: at least the first
#: number, and up to the second while SETUP_SHARE of the run lasts
SETUP_SAMPLES = (5, 15)
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    """A pinned simulation size.

    ``rows == 0`` is the paper's single-row :class:`ControlledExperiment`;
    ``rows > 0`` is a :class:`FleetExperiment` of that many rows,
    alternating hot and cold. The timed run advances ``chunk_seconds`` of
    simulated time at a time: a multiple of the 60 s monitor and control
    interval, so every chunk after warm-up holds the same periodic work.
    """

    name: str
    servers: int
    warmup_hours: float
    duration_hours: float
    chunk_seconds: float
    rows: int = 0
    #: simulations of distinct seeds per trace-0 run; a short horizon
    #: needs several to average out how much demand a seed draws
    seeds_per_run: int = 1
    #: the single-row workload (fleet rows alternate HOT_ROW and COLD_ROW)
    spec: WorkloadSpec = WorkloadSpec.typical()

    @property
    def sim_seconds(self) -> float:
        return (self.warmup_hours + self.duration_hours) * 3600.0

    @property
    def total_servers(self) -> int:
        return self.servers * max(self.rows, 1)

    def chunk_ends(self) -> List[float]:
        count = math.ceil(self.sim_seconds / self.chunk_seconds)
        return [min(self.sim_seconds, k * self.chunk_seconds) for k in range(1, count + 1)]

    def seeds(self, seed: int) -> List[int]:
        """Experiment seeds of a run for ``--seed``; the first is ``seed``."""
        return [seed + 1000 * index for index in range(self.seeds_per_run)]

    def build(self, seed: int):
        if not self.rows:
            return ControlledExperiment(
                ExperimentConfig(
                    n_servers=self.servers,
                    warmup_hours=self.warmup_hours,
                    duration_hours=self.duration_hours,
                    over_provision_ratio=0.25,
                    workload=self.spec,
                    ampere_enabled=True,
                    seed=seed,
                )
            )
        specs = tuple(
            FleetRowSpec(self.servers, HOT_ROW if index % 2 == 0 else COLD_ROW)
            for index in range(self.rows)
        )
        return FleetExperiment(
            FleetExperimentConfig(
                rows=specs,
                warmup_hours=self.warmup_hours,
                duration_hours=self.duration_hours,
                fleet=FleetConfig(policy="demand-following"),
                safety=SafetyConfig(),
                seed=seed,
            )
        )


WORKLOADS = {
    w.name: w
    for w in (
        # 48 h: the arrival thinning bound includes the burst factor only
        # when a burst falls in the horizon, which 48 h makes near certain.
        Workload("row-400", servers=400, warmup_hours=1.0, duration_hours=48.0,
                 chunk_seconds=900.0),
        # Bursts off: in 0.3 h a burst would fall for 1 seed in 40 and
        # raise the thinning bound, and the cost per job, for that run.
        Workload("pool-20k", servers=20_000, warmup_hours=0.15, duration_hours=0.15,
                 chunk_seconds=60.0, seeds_per_run=4,
                 spec=replace(WorkloadSpec.typical(), bursts_per_day=0.0)),
        Workload("fleet-skew", servers=200, rows=8, warmup_hours=0.5,
                 duration_hours=1.5, chunk_seconds=300.0, seeds_per_run=2),
    )
}


# ----------------------------------------------------------------------
# Simulated outputs, digest and output checks
# ----------------------------------------------------------------------
def _engine(experiment):
    if isinstance(experiment, FleetExperiment):
        return experiment.engine
    return experiment.testbed.engine


def _schedulers(experiment):
    if isinstance(experiment, FleetExperiment):
        return list(experiment.schedulers)
    return [experiment.testbed.scheduler]


def _canonical(value: Any) -> Any:
    """JSON-ready form of a result; arrays become hashes of their bytes."""
    if is_dataclass(value):
        return _canonical(asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value, dtype=float)
        if not np.isfinite(data).all():
            raise ValueError("non-finite value in a simulated series")
        return hashlib.sha256(data.tobytes()).hexdigest()
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite simulated output {value}")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot digest {type(value).__name__}")


def simulated_outputs(experiment, result) -> Dict[str, Any]:
    """The headline simulated statistics of one run (what gets printed)."""
    completed = sum(s.stats.completed for s in _schedulers(experiment))
    if isinstance(experiment, FleetExperiment):
        return {
            "r_T": None,
            "G_TPW": None,
            "violations": result.total_violations,
            "frozen_server_minutes": result.total_frozen_server_minutes,
            "jobs_completed": completed,
            "p99_wait_s": max(row.p99_wait_seconds for row in result.rows),
            "breaker_trips": result.total_breaker_trips,
        }
    group = experiment.experiment_group
    state = experiment.controller.state_of(group.name)
    interval = experiment.config.ampere.control_interval
    return {
        "r_T": result.r_t,
        "G_TPW": result.g_tpw,
        "violations": result.violations(),
        "frozen_server_minutes": state.u_integral * len(group.servers) * interval / 60.0,
        "jobs_completed": completed,
        "p99_wait_s": result.experiment.p99_wait_seconds,
    }


def digest_material(experiment, result) -> Dict[str, Any]:
    """Every simulated statistic of a run, and nothing about its speed.

    Raises ``ValueError`` on a non-finite value anywhere in it.
    """
    material: Dict[str, Any] = {
        "outputs": simulated_outputs(experiment, result),
        "facility": result.facility,
        "schedulers": [
            [s.stats.submitted, s.stats.placed, s.stats.completed, s.queued_jobs]
            for s in _schedulers(experiment)
        ],
    }
    if isinstance(experiment, FleetExperiment):
        warmup, end = experiment.config.warmup_seconds, experiment.config.end_seconds
        material["rows"] = result.rows
        material["ledger"] = result.ledger
        material["coordinator"] = result.coordinator_stats
        material["power"] = [
            experiment.monitor.normalized_power_series(row.name, start=warmup, end=end)
            for row in experiment.rows
        ]
    else:
        material["groups"] = [result.experiment, result.control]
    return _canonical(material)


def output_problems(experiment, outputs: Dict[str, Any]) -> List[str]:
    """Output checks beyond finiteness; an empty list means correct."""
    problems = []
    submitted = 0
    for s in _schedulers(experiment):
        stats = s.stats
        submitted += stats.submitted
        if stats.placed + s.queued_jobs != stats.submitted:
            problems.append(
                f"jobs not conserved: placed {stats.placed} + queued "
                f"{s.queued_jobs} != submitted {stats.submitted}"
            )
        if stats.completed > stats.placed:
            problems.append(f"completed {stats.completed} > placed {stats.placed}")
    if submitted == 0:
        problems.append("no jobs generated")
    if isinstance(experiment, FleetExperiment):
        if outputs["breaker_trips"]:
            problems.append(f"{outputs['breaker_trips']} breaker trips with safety armed")
    else:
        generated = sum(g.jobs_generated for g in experiment.testbed.generators)
        if generated != submitted:
            problems.append(f"generated {generated} != submitted {submitted}")
        violations = outputs["violations"]
        if violations["experiment"] > violations["control"]:
            problems.append(f"Ampere group has more violations: {violations}")
    return problems


# ----------------------------------------------------------------------
# Per-layer split of one traced simulation
# ----------------------------------------------------------------------
#: layer time (exclusive of timed regions nested inside) -> tracer labels
LAYER_LABELS = {
    "workload.arrival_s": ("JOB_ARRIVAL",),
    "scheduler.submit_s": ("submit",),
    "scheduler.completion_s": ("JOB_COMPLETION",),
    "scheduler.freeze_s": ("freeze", "unfreeze"),
    "monitor.sample_s": ("MONITOR_SAMPLE",),
    "controller.tick_s": ("CONTROLLER_TICK",),
    "coordinator.tick_s": ("COORDINATOR_TICK",),
    "breaker.tick_s": ("BREAKER_TICK",),
    "safety.tick_s": ("SAFETY_TICK",),
}
CONTROL_TICKS = ("CONTROLLER_TICK", "COORDINATOR_TICK", "BREAKER_TICK", "SAFETY_TICK")


def layer_split(experiment, tracer: LayerTracer, wall_s: float, servers: int) -> Dict[str, Any]:
    """Per-layer times (s, floats) and exact counts (ints) of one traced run."""
    stats = [s.stats for s in _schedulers(experiment)]
    split: Dict[str, Any] = {
        name: sum(tracer.exclusive(label) for label in labels)
        for name, labels in LAYER_LABELS.items()
    }
    split["engine.self_s"] = wall_s - tracer.callback_s
    split["trace.attributed_s"] = sum(split.values())
    # The whole control plane, including the freeze calls it makes.
    split["control.tick_s"] = sum(tracer.inclusive(label) for label in CONTROL_TICKS)
    samples = tracer.calls("MONITOR_SAMPLE")
    split.update(
        {
            "engine.events": _engine(experiment).events_processed,
            "engine.schedule_calls": tracer.schedule_calls,
            "workload.candidates": tracer.calls("JOB_ARRIVAL"),
            "workload.jobs": tracer.calls("submit"),
            "scheduler.submitted": sum(s.submitted for s in stats),
            "scheduler.placed": sum(s.placed for s in stats),
            "scheduler.completions": tracer.calls("JOB_COMPLETION"),
            "scheduler.freeze_calls": tracer.calls("freeze") + tracer.calls("unfreeze"),
            "monitor.samples": samples,
            "monitor.server_samples": samples * servers,
            "controller.ticks": tracer.calls("CONTROLLER_TICK"),
            "coordinator.ticks": tracer.calls("COORDINATOR_TICK"),
            "breaker.ticks": tracer.calls("BREAKER_TICK"),
            "safety.ticks": tracer.calls("SAFETY_TICK"),
        }
    )
    return split


# ----------------------------------------------------------------------
# Host speed: every timed region is rescaled to a reference host
# ----------------------------------------------------------------------
#: what :func:`kernel_s` takes on an idle 2-core Xeon VM at 2.0 GHz (the
#: machine this benchmark was written on); timings are reported as if the
#: host always ran at that speed
REFERENCE_KERNEL_S = 2.1e-3


def _interpreter_kernel() -> None:
    rng = random.Random(7)
    heap: list = []
    counts: Dict[int, int] = {}
    for i in range(2000):
        heapq.heappush(heap, (rng.random(), i))
        counts[i % 97] = counts.get(i % 97, 0) + 1
        if len(heap) > 50:
            heapq.heappop(heap)


def _array_kernel() -> None:
    values = np.zeros(20_000)
    rng = np.random.default_rng(3)
    for _ in range(30):
        free = np.flatnonzero(values < 0.5)
        values[free[:10]] += rng.random()


def kernel_s() -> float:
    """Wall time of a fixed kernel, best of two: interpreter work (heap,
    dict, random) plus array work (masks over 20k floats), the two kinds
    of work the simulator does.

    The kernel shares no code with the simulator, so a change to the
    simulator cannot change it.
    """
    best = math.inf
    for _ in range(2):
        began = time.perf_counter()
        _interpreter_kernel()
        _array_kernel()
        best = min(best, time.perf_counter() - began)
    return best


class HostClock:
    """Times regions in reference-host seconds.

    Other tenants of a shared host slow this process by up to 2x, for
    seconds at a time, and CPU time slows with wall time (no steal is
    reported), so raw medians moved by a third between runs minutes
    apart. A region's raw wall time is divided by the host's slowdown,
    measured with :func:`kernel_s` right before and right after it.
    """

    def __init__(self) -> None:
        self._kernel_s = kernel_s()

    def time(self, fn: Callable[[], Any]):
        """``(fn(), raw wall s, reference-host s)``."""
        before = self._kernel_s
        began = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - began
        self._kernel_s = kernel_s()
        slowdown = (before + self._kernel_s) / (2.0 * REFERENCE_KERNEL_S)
        return value, raw, raw / slowdown


# ----------------------------------------------------------------------
# One simulation
# ----------------------------------------------------------------------
@dataclass
class Sim:
    """What one simulation measured; times are reference-host seconds."""

    traced: bool
    build_s: float
    start_s: float
    #: time and jobs generated of each ``advance()`` chunk of the timed
    #: run (``finish()`` is in the last chunk)
    chunk_s: List[float]
    chunk_jobs: List[int]
    #: the timed run (``start()`` through ``finish()``) in raw wall seconds
    raw_wall_s: float
    events: int
    digest: str
    outputs: Dict[str, Any]
    problems: List[str]
    layers: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """The timed run: ``start()`` through ``finish()``."""
        return self.start_s + sum(self.chunk_s)


def run_sim(workload: Workload, seed: int, traced: bool) -> Sim:
    """Build, arm and run one simulation; time it and check its outputs."""
    gc.collect()
    host = HostClock()
    experiment, _, build_s = host.time(lambda: workload.build(seed))
    tracer = None
    if traced:
        tracer = LayerTracer()
        tracer.attach_engine(_engine(experiment))
        for scheduler in _schedulers(experiment):
            tracer.attach_scheduler(scheduler)
    schedulers = _schedulers(experiment)
    _, raw_wall_s, start_s = host.time(experiment.start)
    chunks: List[float] = []
    jobs: List[int] = []
    submitted = 0
    ends = workload.chunk_ends()
    for end in ends:
        result, raw, chunk = host.time(
            lambda: experiment.finish() if end == ends[-1] else experiment.advance(end)
        )
        raw_wall_s += raw
        chunks.append(chunk)
        now_submitted = sum(s.stats.submitted for s in schedulers)
        jobs.append(now_submitted - submitted)
        submitted = now_submitted
    outputs = simulated_outputs(experiment, result)
    problems: List[str] = []
    try:
        material = digest_material(experiment, result)
    except ValueError as error:
        problems.append(str(error))
        material = {}
    problems += output_problems(experiment, outputs)
    sim = Sim(
        traced=traced,
        build_s=build_s,
        start_s=start_s,
        chunk_s=chunks,
        chunk_jobs=jobs,
        raw_wall_s=raw_wall_s,
        events=_engine(experiment).events_processed,
        digest=hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest(),
        outputs=outputs,
        problems=problems,
    )
    if tracer is not None:
        # The tracer reads raw wall time; rescale like the timed run.
        sim.layers = layer_split(experiment, tracer, sim.raw_wall_s, workload.total_servers)
        scale = sim.wall_s / sim.raw_wall_s
        for key, value in sim.layers.items():
            if isinstance(value, float):
                sim.layers[key] = value * scale
        if sim.layers["workload.jobs"] != submitted:
            problems.append(
                f"traced submit calls {sim.layers['workload.jobs']} != "
                f"scheduler submissions {submitted}"
            )
    return sim


def sample_setups(workload: Workload, seed: int, budget_s: float) -> List[float]:
    """Set-up times (construct + ``start()``) of throwaway experiments:
    at least ``SETUP_SAMPLES[0]``, and up to ``SETUP_SAMPLES[1]`` while
    ``budget_s`` of wall time lasts."""
    samples: List[float] = []
    began = time.perf_counter()
    low, high = SETUP_SAMPLES
    while len(samples) < low or (
        len(samples) < high and time.perf_counter() - began < budget_s
    ):
        gc.collect()
        _, _, setup_s = HostClock().time(lambda: workload.build(seed).start())
        samples.append(setup_s)
    return samples


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
@dataclass
class RunLog:
    attempted: int = 0
    failed: int = 0
    sims: List[Sim] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: the first simulation of each seed, which every repeat must match
    first: Dict[int, Sim] = field(default_factory=dict)

    def good(self, traced: bool) -> List[Sim]:
        return [s for s in self.sims if s.traced == traced and not s.problems]


def measure(workload: Workload, seed: int, seconds: float, trace: int) -> RunLog:
    """Simulate until ``seconds`` of wall time are spent.

    Trace 0 cycles through the workload's seeds and makes at least one
    simulation of each. Trace 1 alternates untraced and traced
    simulations of ``seed`` and makes at least one of each.
    """
    log = RunLog()
    began = time.perf_counter()
    seeds = workload.seeds(seed) if not trace else [seed]
    minimum = 2 if trace else len(seeds)
    if not trace:
        log.setups = sample_setups(workload, seed, SETUP_SHARE * seconds)
    while True:
        index = log.attempted
        sim_seed = seeds[index % len(seeds)]
        traced = bool(trace) and index % 2 == 1
        log.attempted += 1
        try:
            sim = run_sim(workload, sim_seed, traced)
        except Exception:  # a failed simulation is counted, not fatal
            traceback.print_exc()
            log.failed += 1
            sim = None
        if sim is not None:
            first = log.first.setdefault(sim_seed, sim)
            if sim.digest != first.digest:
                sim.problems.append(f"digest {sim.digest[:16]} != first run's {first.digest[:16]}")
            if sim.events != first.events:
                sim.problems.append(f"{sim.events} events != first run's {first.events}")
            for problem in sim.problems:
                print(f"CHECK FAILED (seed {sim_seed}, "
                      f"{'traced' if traced else 'untraced'}): {problem}", file=sys.stderr)
            log.failed += bool(sim.problems)
            log.sims.append(sim)
            if sim is first:
                print_outputs(workload, sim_seed, sim)
        elapsed = time.perf_counter() - began
        if log.attempted >= minimum and elapsed * (1 + 1 / log.attempted) > seconds:
            log.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return log


def print_outputs(workload: Workload, seed: int, sim: Sim) -> None:
    out = " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in sim.outputs.items()
    )
    print(f"{workload.name} seed={seed} {out} digest={sim.digest}")


def end_to_end(workload: Workload, log: RunLog) -> Dict[str, float]:
    """Totals over every untraced simulation of the run; set-up median."""
    sims = log.good(traced=False)
    wall = sum(s.wall_s for s in sims)
    raw = sum(s.raw_wall_s for s in sims)
    jobs = sum(sum(s.chunk_jobs) for s in sims)
    return {
        "sim_s_per_wall_s": len(sims) * workload.sim_seconds / wall,
        "us_per_job": 1e6 * wall / jobs,
        "setup_s": statistics.median(log.setups),
        "peak_rss_mb": log.peak_rss_mb,
        "raw.sim_s_per_wall_s": len(sims) * workload.sim_seconds / raw,
        "raw.us_per_job": 1e6 * raw / jobs,
        "host.slowdown": raw / wall,
    }



def per_layer(workload: Workload, log: RunLog) -> Dict[str, float]:
    """Layer times: medians over the traced repeats. Counts: exact."""
    traced, plain = log.good(traced=True), log.good(traced=False)
    layers = {
        key: value if isinstance(value, int)
        else statistics.median(s.layers[key] for s in traced)
        for key, value in traced[0].layers.items()
    }
    traced_wall = statistics.median(s.wall_s for s in traced)
    plain_wall = statistics.median(s.wall_s for s in plain)
    jobs = layers["workload.jobs"]

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    hidden = ("scheduler.submitted", "scheduler.placed", "scheduler.completions",
              "monitor.server_samples", "trace.attributed_s")
    metrics = {key: value for key, value in layers.items() if key not in hidden}
    metrics.update(
        {
            "engine.events_per_job": per(layers["engine.events"], jobs),
            "workload.accept_ratio": per(jobs, layers["workload.candidates"]),
            "workload.us_per_candidate": per(
                layers["workload.arrival_s"], layers["workload.candidates"], 1e6
            ),
            "scheduler.submit_us": per(layers["scheduler.submit_s"], jobs, 1e6),
            "scheduler.place_ratio": per(
                layers["scheduler.placed"], layers["scheduler.submitted"]
            ),
            "scheduler.completion_us": per(
                layers["scheduler.completion_s"], layers["scheduler.completions"], 1e6
            ),
            "monitor.us_per_server_sample": per(
                layers["monitor.sample_s"], layers["monitor.server_samples"], 1e6
            ),
            "setup.build_s": statistics.median(s.build_s for s in plain),
            "setup.start_s": statistics.median(s.start_s for s in plain),
            "trace.untraced_wall_s": plain_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.overhead_ratio": (traced_wall - plain_wall) / plain_wall,
            "trace.attributed_share": layers["trace.attributed_s"] / traced_wall,
        }
    )
    return dict(sorted(metrics.items()))


def metric_specs(trace: int) -> List[Dict[str, str]]:
    """Names and units of the reported metrics, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (1 is the default; 9 is held back "
                             "for confirming claims)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    specs = metric_specs(args.trace)
    workload = WORKLOADS[args.workload]

    log = measure(workload, args.seed, args.seconds, args.trace)
    measured: Dict[str, float] = {}
    if log.good(traced=False) and (log.good(traced=True) or not args.trace):
        measured = per_layer(workload, log) if args.trace else end_to_end(workload, log)

    print(f"{workload.name} seed={args.seed}: {log.attempted} simulations, "
          f"{log.failed} failed")
    units = {m["name"]: m["unit"] for m in specs}
    print(f"  {'error_rate':<30} {log.failed / log.attempted!r:<24} ratio")
    for name, value in measured.items():
        if name in units:
            print(f"  {name:<30} {value!r:<24} {units[name]}")
        else:  # a raw wall figure beside a listed metric, or a time
            unit = units.get(name.replace("raw.", ""), "ratio" if name == "host.slowdown" else "s")
            print(f"  {name:<30} {value!r:<24} {unit}  (printed only)")
    metrics = {
        name: {"value": measured[name], "unit": unit}
        for name, unit in units.items()
        if name in measured
    }
    correct = log.failed == 0 and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
