"""Control-loop tracing: per-tick spans on the simulation clock.

A span records one unit of control-plane work -- ``monitor.sweep``,
``controller.tick``, ``rhc.decide``, ``scheduler.rpc`` -- with its
duration in *both* clocks: simulated time (how long the modeled system
took, deterministic) and wall time (how long this process took to
compute it, the quantity perf work cares about). Spans nest: a
``rhc.decide`` opened inside a ``controller.tick`` carries the tick's
span id as its parent, so a trace query can reconstruct the tick tree.

The store is a bounded ring buffer: always-on tracing must not grow
without bound over a 20-day campaign, so the newest ``capacity`` spans
win and :attr:`Tracer.dropped` counts what the ring evicted. Range
queries filter by span name and sim-time window.

Wall-clock readings make span records inherently per-process, so spans
never cross the campaign worker boundary, are excluded from merged
snapshots and are not pickled with a run snapshot -- the metrics
registry is the deterministic surface, the tracer is the local
diagnostic one.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterator, List, Optional


def _zero_clock() -> float:
    """Default sim clock before an engine binds itself (picklable)."""
    return 0.0


@dataclass
class SpanRecord:
    """One finished (or still-open) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_sim: float
    start_wall: float
    end_sim: Optional[float] = None
    end_wall: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def sim_duration(self) -> float:
        """Elapsed simulated seconds (0.0 for atomic callbacks)."""
        return (self.end_sim - self.start_sim) if self.end_sim is not None else 0.0

    @property
    def wall_duration(self) -> float:
        """Elapsed wall seconds this process spent inside the span."""
        return (self.end_wall - self.start_wall) if self.end_wall is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end_wall is not None


class _ActiveSpan:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    def set_attribute(self, key: str, value: object) -> None:
        self.record.attributes[key] = value

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._finish(self.record, error=exc is not None)


class _NullSpan:
    """Shared no-op span for disabled telemetry."""

    __slots__ = ()
    record = None

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in when telemetry is disabled: every span is no-op."""

    enabled = False
    dropped = 0

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return NULL_SPAN

    def bind_sim_clock(self, clock: Callable[[], float]) -> None:
        pass

    def spans(self, *args, **kwargs) -> List[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0


class Tracer:
    """Span recorder over a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the newest spans survive.
    wall_clock:
        Wall-time source (monotonic seconds); injectable for tests.
    sim_clock:
        Simulated-time source; the engine binds itself here via
        :meth:`bind_sim_clock` so spans opened anywhere carry sim time.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 8192,
        wall_clock: Callable[[], float] = time.perf_counter,
        sim_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._wall_clock = wall_clock
        self._sim_clock: Callable[[], float] = sim_clock or _zero_clock
        self._ring: Deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: List[SpanRecord] = []
        self._next_id = 1
        self.dropped = 0

    def bind_sim_clock(self, clock: Callable[[], float]) -> None:
        """Point sim-time reads at the (one) engine driving this run."""
        self._sim_clock = clock

    def __getstate__(self) -> dict:
        # Span records carry this process's wall-clock readings, so they
        # stay behind: a pickled tracer (inside a run snapshot) restores
        # with an empty ring, and two runs of one seed snapshot to the
        # same bytes.
        state = self.__dict__.copy()
        state["_ring"] = deque(maxlen=self.capacity)
        state["_stack"] = []
        return state

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> _ActiveSpan:
        """Open a span; use as a context manager.

        The parent is whatever span is currently open in this tracer
        (single-threaded by construction: the simulation loop runs one
        callback at a time).
        """
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            start_sim=self._sim_clock(),
            start_wall=self._wall_clock(),
            attributes=dict(attributes) if attributes else {},
        )
        self._next_id += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)
        self._stack.append(record)
        return _ActiveSpan(self, record)

    def _finish(self, record: SpanRecord, error: bool = False) -> None:
        record.end_sim = self._sim_clock()
        record.end_wall = self._wall_clock()
        if error:
            record.attributes["error"] = True
        # Pop back to this record; defensive against exceptions that
        # unwound child spans without __exit__ running.
        while self._stack and self._stack[-1] is not record:
            self._stack.pop()
        if self._stack:
            self._stack.pop()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._ring)

    def spans(
        self,
        name: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[SpanRecord]:
        """Retained spans, optionally filtered by name and sim-time range.

        ``start``/``end`` select spans whose *start* sim-time falls in
        ``[start, end)``, matching the TSDB's range-query convention.
        """
        out: List[SpanRecord] = []
        for record in self._ring:
            if name is not None and record.name != name:
                continue
            if start is not None and record.start_sim < start:
                continue
            if end is not None and record.start_sim >= end:
                continue
            out.append(record)
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate of retained spans.

        Returns ``{name: {count, wall_total, wall_mean, wall_max,
        sim_total}}`` -- the span table the ``metrics`` CLI command prints.
        """
        grouped: Dict[str, List[SpanRecord]] = {}
        for record in self._ring:
            if record.finished:
                grouped.setdefault(record.name, []).append(record)
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(grouped):
            walls = [r.wall_duration for r in grouped[name]]
            sims = [r.sim_duration for r in grouped[name]]
            out[name] = {
                "count": float(len(walls)),
                "wall_total": sum(walls),
                "wall_mean": sum(walls) / len(walls),
                "wall_max": max(walls),
                "sim_total": sum(sims),
            }
        return out


__all__ = ["NULL_SPAN", "NullTracer", "SpanRecord", "Tracer"]
