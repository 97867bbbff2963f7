"""Per-layer wall-time attribution, installed from outside the simulator.

A :class:`LayerTracer` wraps public entry points on the instances one run
built; no module under ``src/`` is edited. It wraps:

- ``Engine.schedule``: every callback is wrapped in a timer labelled by
  its :class:`~repro.sim.events.EventPriority` name (``JOB_ARRIVAL``,
  ``MONITOR_SAMPLE``, ...). ``schedule_periodic`` and the periodic
  re-arm both go through ``schedule``, so they are covered too;
- ``OmegaScheduler.submit``/``freeze``/``unfreeze`` on each scheduler.

Timers nest: a region's *exclusive* time is its duration minus the time
of the timed regions inside it, so ``JOB_ARRIVAL`` exclusive time is
arrival generation without the ``submit`` it calls. The wrappers consume
no randomness and keep every ``(time, priority)`` and insertion order,
so a traced run follows the untraced trajectory exactly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict

from repro.sim.events import EventPriority

#: scheduler entry points timed on every traced scheduler
SCHEDULER_METHODS = ("submit", "freeze", "unfreeze")

_PRIORITY_NAMES = {int(priority): priority.name for priority in EventPriority}


class TraceError(RuntimeError):
    """The tracer could not attach; the trace would silently read zero."""


def _public_method(obj: Any, name: str) -> Callable:
    """``obj.name`` if the class still defines it as a public method."""
    if not callable(getattr(type(obj), name, None)):
        raise TraceError(
            f"{type(obj).__name__}.{name} no longer exists; tracing it would "
            "report zero time instead of failing"
        )
    return getattr(obj, name)


class LayerTracer:
    """Inclusive and exclusive wall time, plus call counts, per label."""

    def __init__(self) -> None:
        #: label -> [inclusive s, exclusive s, calls]
        self._totals: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.schedule_calls = 0
        # One child-time accumulator per open timer; the bottom entry
        # collects the time of top-level regions (engine callbacks).
        self._stack = [0.0]

    @property
    def callback_s(self) -> float:
        """Wall time spent inside top-level timed regions."""
        return self._stack[0]

    def inclusive(self, label: str) -> float:
        return self._totals[label][0] if label in self._totals else 0.0

    def exclusive(self, label: str) -> float:
        return self._totals[label][1] if label in self._totals else 0.0

    def calls(self, label: str) -> int:
        return self._totals[label][2] if label in self._totals else 0

    def timed(self, label: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a timer that charges ``label``."""
        stack = self._stack
        totals = self._totals[label]
        clock = time.perf_counter

        def call(*args: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                stack[-1] += elapsed
                totals[0] += elapsed
                totals[1] += elapsed - children
                totals[2] += 1

        return call

    def attach_engine(self, engine: Any) -> None:
        """Time every callback scheduled on ``engine`` from now on.

        Refuses an engine with pending events: they were scheduled before
        the wrapper existed and their time would go unattributed.
        """
        original = _public_method(engine, "schedule")
        if engine.pending_count():
            raise TraceError(
                f"engine already holds {engine.pending_count()} events; "
                "attach the tracer before start()"
            )
        timed = self.timed

        def schedule(at: float, priority: int, callback: Callable, *args: Any):
            self.schedule_calls += 1
            label = _PRIORITY_NAMES[int(priority)]
            return original(at, priority, timed(label, callback), *args)

        engine.schedule = schedule

    def attach_scheduler(self, scheduler: Any) -> None:
        """Time the scheduler's public submit/freeze/unfreeze calls."""
        for name in SCHEDULER_METHODS:
            setattr(scheduler, name, self.timed(name, _public_method(scheduler, name)))


__all__ = ["LayerTracer", "TraceError", "SCHEDULER_METHODS"]
