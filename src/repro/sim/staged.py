"""The staged-run lifecycle shared by the experiment harnesses.

:class:`~repro.sim.experiment.ControlledExperiment` (the paper's
single-row A/B split) and :class:`~repro.sim.fleet_experiment.FleetExperiment`
(the multi-row facility) run the same way: ``start()`` arms every
service, ``advance()`` moves simulated time, ``finish()`` collects, and
``run()`` composes the three. The split exists so a run can be
snapshotted at any ``advance()`` boundary and resumed byte-identically
(see :mod:`repro.durability`). :class:`StagedRun` owns that lifecycle,
the durable snapshots, restore-by-kind and runtime fault arming once;
a subclass supplies what differs:

- ``_arm(end, warmup)`` -- start its generators and services;
- ``_collect(warmup, end)`` -- build its result;
- ``SNAPSHOT_KIND`` and ``_snapshot_meta`` additions;
- ``_attach_runtime_injector`` and ``result_to_dict``;
- the topology the live service reads: ``engine``, ``monitor``,
  ``event_log``, ``ledger``, ``groups``, ``controllers``, ``breakers``,
  ``supervisors`` (name-keyed dicts) and ``scheduler_for(name)``.

A subclass sets ``config``, ``_started``, ``_ran`` and ``_result`` in
its constructor. The attribute names are part of every pickled frame, so
they do not change.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.faults.injector import FaultInjector
from repro.faults.scenario import FaultScenario


class StagedRun:
    """start/advance/finish, durable snapshots and restore-by-kind."""

    #: frame kind tag written into the snapshot header
    SNAPSHOT_KIND: str = ""
    #: the facility budget ledger (None on a single-row run)
    ledger = None
    #: fault injectors armed mid-run by :meth:`arm_faults`. A class-level
    #: default, so frames pickled before the field existed still restore;
    #: once set, the tuple is pickled with the engine heap it feeds.
    runtime_injectors: Tuple[FaultInjector, ...] = ()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    @property
    def finished(self) -> bool:
        return self._ran

    @property
    def end_seconds(self) -> float:
        return self.config.end_seconds

    def start(self) -> None:
        """Arm workload, monitoring, control and safety services.

        Consumes no simulated time; call :meth:`advance` to move the
        clock. Idempotence is refused -- services must not double-arm.
        """
        if self._started:
            raise RuntimeError("experiment already started")
        self._started = True
        self._arm(self.config.end_seconds, self.config.warmup_seconds)

    def _arm(self, end: float, warmup: float) -> None:
        raise NotImplementedError

    def advance(self, until: Optional[float] = None) -> None:
        """Run simulated time forward to ``until`` (default: the horizon).

        Consecutive calls compose exactly (events *at* the boundary stay
        pending), so ``advance(T); advance(end)`` is byte-identical to
        ``advance(end)`` -- the property snapshots rely on.
        """
        if not self._started:
            self.start()
        end = self.config.end_seconds
        target = end if until is None else min(float(until), end)
        self.engine.run(until=target)

    def finish(self):
        """Run any remaining simulated time and collect the outcomes.

        Idempotent: repeated calls return the same cached result without
        re-collecting (no double-emitted report rows), so a graceful
        shutdown can always call ``finish()`` regardless of whether the
        run already completed. Works from any :meth:`advance` point.
        """
        if self._ran:
            return self._result
        self.advance()
        self._ran = True
        self._result = self._collect(
            self.config.warmup_seconds, self.config.end_seconds
        )
        return self._result

    def _collect(self, warmup: float, end: float):
        raise NotImplementedError

    def run(self):
        """Execute the experiment and return measured outcomes."""
        if self._ran or self._started:
            raise RuntimeError("experiment already ran; build a new instance")
        self.start()
        return self.finish()

    # ------------------------------------------------------------------
    # Durable snapshots (see repro.durability for the frame format)
    # ------------------------------------------------------------------
    def _snapshot_meta(self) -> dict:
        # Deterministic descriptors only -- no wall-clock -- so the same
        # state always frames to the same bytes.
        return {
            "sim_now": self.engine.now,
            "seed": self.config.seed,
            "started": self._started,
        }

    def snapshot(self) -> bytes:
        """Serialize the complete live run into a versioned frame.

        Captures everything: cluster-state columns, RNG streams, the
        event heap, controller/supervisor state and telemetry. Restoring
        and running to the horizon is byte-identical to never having
        stopped (proven in tests/test_durability.py, also under
        chaos). Must be called between :meth:`advance` calls, not
        from inside an event callback.
        """
        if self.engine._running:
            raise RuntimeError(
                "cannot snapshot while the engine is running; snapshot "
                "between advance() calls"
            )
        from repro.durability import encode_snapshot

        return encode_snapshot(self, self.SNAPSHOT_KIND, self._snapshot_meta())

    def save_snapshot(self, path: Union[str, Path]) -> int:
        """Atomically write :meth:`snapshot` to ``path``; returns bytes."""
        from repro.durability import atomic_write_bytes

        frame = self.snapshot()
        atomic_write_bytes(path, frame)
        return len(frame)

    @classmethod
    def restore(cls, source: Union[bytes, str, Path]) -> "StagedRun":
        """Rebuild a live run from a snapshot (bytes or a path).

        Called on a subclass, only frames of that subclass's kind are
        accepted. Called on :class:`StagedRun` itself, the header's kind
        picks the class, and an unknown kind is refused before anything
        is unpickled. The result continues exactly where the original
        stood: call :meth:`advance`/:meth:`finish` to complete the run.
        """
        from repro.durability import SnapshotError, decode_header, decode_snapshot

        if isinstance(source, (bytes, bytearray)):
            data = bytes(source)
        else:
            data = Path(source).read_bytes()
        target = cls
        if cls is StagedRun:
            kind = decode_header(data).get("kind")
            target = _runs_by_kind().get(kind)
            if target is None:
                raise SnapshotError(f"unknown snapshot kind {kind!r}")
        obj, _ = decode_snapshot(data, expected_kind=target.SNAPSHOT_KIND)
        if not isinstance(obj, target):
            raise SnapshotError(
                f"snapshot payload is {type(obj).__name__}, not {target.__name__}"
            )
        return obj

    # ------------------------------------------------------------------
    # Runtime fault arming (the live service's arm-faults act)
    # ------------------------------------------------------------------
    def arm_faults(self, scenario: FaultScenario) -> dict:
        """Arm a fault scenario against the *live* run.

        The scenario's windows are interpreted relative to now (a
        scenario whose first blackout starts at t=600 begins blacking
        out ten minutes after the operator arms it). Seams that can only
        be installed at build time -- the flaky-RPC transport wrapper and
        demand-surge profile wrapping -- cannot be armed mid-run and are
        reported back as ignored rather than silently dropped.
        """
        ignored = []
        if scenario.rpc_failure_rate > 0:
            ignored.append("rpc")
        if scenario.surges:
            ignored.append("surges")
        shifted = scenario.shifted(self.engine.now)
        injector = FaultInjector(self.engine, shifted)
        self._attach_runtime_injector(injector)
        injector.arm(self.end_seconds)
        self.runtime_injectors = self.runtime_injectors + (injector,)
        return {
            "scenario": scenario.name,
            "armed_at": self.engine.now,
            "ignored": ignored,
        }

    def _attach_runtime_injector(self, injector: FaultInjector) -> None:
        raise NotImplementedError


def _runs_by_kind() -> dict:
    """Frame kind -> the staged-run class that restores it.

    An explicit table, imported on use: a registry filled as subclasses
    are defined would miss a kind whose module the process had not
    imported yet (resuming a fleet frame in a fresh ``serve --resume``).
    """
    from repro.sim.experiment import ControlledExperiment
    from repro.sim.fleet_experiment import FleetExperiment

    return {"experiment": ControlledExperiment, "fleet": FleetExperiment}


__all__ = ["StagedRun"]
