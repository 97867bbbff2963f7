"""One timing method for the perf gates, and one artifact schema.

A gate asks one of two questions, and each has one answer here:

- *What share of a run does component X cost?* :func:`run_shares`
  times X's own entry point inside each run and divides by the rest of
  that run's wall time. Both figures come from one run, so a busy
  neighbour slows them alike; an A/B of two runs reads that noise as
  overhead.
- *Is A faster than B by a factor k?* :func:`paired` times A and B in
  interleaved pairs, alternating which side runs first, after one
  warm-up pair; each side keeps its minimum, since noise only adds time.

:func:`record` writes each gate's record into ``BENCH_<name>.json`` at
the repository root, one record per gate id: ``{"records": [{gate,
value, bound, better, samples, spread, resolved, config}]}``. ``better``
is ``"lower"`` (pass: value <= bound) or ``"higher"`` (value >= bound);
``spread`` is the range of the samples, and ``resolved`` is false when
the samples fall on both sides of the bound.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Sequence, Tuple

from perfbench.layer_trace import LayerTracer
from repro.durability.atomic import atomic_write_text

ROOT = Path(__file__).resolve().parent.parent


def run_shares(make_run: Callable[[], Any], entry: str, runs: int) -> List[float]:
    """Share of each of ``runs`` runs spent inside ``entry``.

    ``make_run()`` builds an unstarted staged run and ``entry`` names a
    method on it, e.g. ``"auditor.tick"``; it is rebound to a timer
    before ``run()`` arms it. A share is the seconds inside ``entry``
    over the rest of the run's wall seconds. One warm-up run goes first.
    """
    path, _, method = entry.rpartition(".")
    shares = []
    for _ in range(runs + 1):
        run, tracer = make_run(), LayerTracer()
        owner = getattr(run, path)
        setattr(owner, method, tracer.timed(entry, getattr(owner, method)))
        started = time.perf_counter()
        run.run()
        wall = time.perf_counter() - started
        assert tracer.calls(entry), f"{entry} never ran"
        shares.append(tracer.inclusive(entry) / (wall - tracer.inclusive(entry)))
    return shares[1:]


def interleave(first: Callable, second: Callable, pairs: int) -> Tuple[list, list]:
    """Each side's results over ``pairs`` pairs of calls, the side that
    goes first alternating from pair to pair."""
    results: Tuple[list, list] = ([], [])
    for index in range(pairs):
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            results[side].append((first, second)[side]())
    return results


@dataclass
class Pairs:
    """Seconds per timed call of each side, and each side's last result."""

    first: List[float]
    second: List[float]
    results: Tuple[Any, Any]

    @property
    def ratio(self) -> float:
        return min(self.first) / min(self.second)

    @property
    def ratios(self) -> List[float]:
        return [a / b for a, b in zip(self.first, self.second)]


def paired(make_first: Callable, make_second: Callable, pairs: int) -> Pairs:
    """Time two workloads in interleaved pairs; ``make_*()`` does one
    call's set-up, untimed, and returns the zero-argument callable timed."""

    def timed(make):
        def call():
            work = make()
            started = time.perf_counter()
            result = work()
            return time.perf_counter() - started, result

        return call

    first, second = timed(make_first), timed(make_second)
    interleave(first, second, 1)
    a, b = interleave(first, second, pairs)
    return Pairs([s for s, _ in a], [s for s, _ in b], (a[-1][1], b[-1][1]))


def record(
    artifact: str,
    gate: str,
    value: float,
    bound: float,
    better: str,
    samples: Sequence[float],
    **config: Any,
) -> None:
    """Write ``gate``'s record into ``BENCH_<artifact>.json``, keeping
    the other gates' records, so tests may run in any order."""
    passes = {"lower": lambda x: x <= bound, "higher": lambda x: x >= bound}[better]
    entry = {
        "gate": gate,
        "value": _round(value),
        "bound": bound,
        "better": better,
        "samples": [_round(s) for s in samples],
        "spread": _round(max(samples) - min(samples)),
        "resolved": all(passes(s) == passes(value) for s in samples),
        "config": config,
    }
    path = ROOT / f"BENCH_{artifact}.json"
    try:
        records = {r["gate"]: r for r in json.loads(path.read_text())["records"]}
    except (OSError, ValueError, KeyError, TypeError):
        records = {}  # no file yet, or an older schema
    records[gate] = entry
    doc = {"records": [records[name] for name in sorted(records)]}
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
    print(
        f"\n{gate}: {value:.4g} (bound {bound:g}, {better} is better; spread "
        f"{entry['spread']:.3g} over {len(samples)} samples"
        f"{'' if entry['resolved'] else ', UNRESOLVED'}) -> {path.name}"
    )


def _round(x: float) -> float:
    return float(f"{x:.4g}")
