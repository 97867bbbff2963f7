"""Two-level Omega-like scheduler with the freeze/unfreeze API.

The low level (this class) executes placements, schedules job-completion
events on the simulation engine, and keeps completions correct when DVFS
capping changes a server's execution speed. It keeps no copy of resource
state: its servers share one :class:`~repro.cluster.state.ClusterState`,
and "which unfrozen servers fit 2 cores / 4 GB in row 3?" is answered
from that store's ``used_cores``, ``used_memory_gb``, ``frozen``,
``failed`` and ``powered_off`` columns across the scheduler's slots --
the part of the paper's low-level scheduler that "tracks the status of
resources [and] bundles them into abstract resource containers". Two
paths answer it with the same booleans: :meth:`OmegaScheduler.candidates`
is one vectorized filter over the columns (least-loaded, best-fit and
power-aware placement rank its result), and the default random policy
counts and indexes the eligible servers in O(log N) through
:class:`~repro.scheduler.index.PlacementIndex`, a Fenwick tree per
demand shape kept current from the store's dirty slots. The upper level
is a set of per-product :class:`Framework` objects, each with its own
FIFO queue (with bounded backfill) and placement policy.

Freezing a server only removes it from the candidate set for *new*
placements; running jobs continue untouched -- the property Ampere's
SLA-safety argument rests on.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.cluster.server import Server
from repro.cluster.state import shared_state_of
from repro.scheduler.base import SchedulerInterface, SchedulerStats
from repro.scheduler.index import PlacementIndex, Ranges
from repro.scheduler.policies import PlacementPolicy, RandomAvailablePolicy
from repro.sim.engine import Engine
from repro.sim.events import EventPriority
from repro.workload.job import Job

PlacementListener = Callable[[Job, Server], None]
CompletionListener = Callable[[Job, Server], None]

#: Progress shortfall below which a completion event is accepted as final.
_COMPLETION_EPSILON = 1e-6

#: Slack on the fit test (``used + demand <= capacity + slack``).
_FIT_SLACK = 1e-9

#: Distinct demand shapes whose fit limits and eligible-set trees stay
#: cached, and distinct ``allowed_rows`` sets whose row masks and ranges
#: do (a replayed trace may carry arbitrarily many; each entry costs
#: arrays of fleet size). A full cache is cleared, not evicted by age.
_FIT_CACHE_ENTRIES = 16


class Framework:
    """An upper-level application scheduler (one per product family).

    Jobs wait in FIFO order; to avoid pathological head-of-line blocking a
    bounded *backfill window* of queued jobs behind the head may be placed
    when the head does not fit (real cluster schedulers backfill the same
    way).
    """

    def __init__(
        self,
        name: str,
        policy: Optional[PlacementPolicy] = None,
        backfill_depth: int = 8,
    ) -> None:
        if backfill_depth < 1:
            raise ValueError(f"backfill_depth must be >= 1, got {backfill_depth}")
        self.name = name
        self.policy = policy if policy is not None else RandomAvailablePolicy()
        self.backfill_depth = backfill_depth
        self.queue: Deque[Job] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Framework({self.name!r}, queued={len(self.queue)})"


class OmegaScheduler(SchedulerInterface):
    """The cluster scheduler used throughout the reproduction.

    Parameters
    ----------
    engine:
        Simulation engine (completion events are scheduled on it).
    servers:
        The schedulable fleet (usually every server in the data center --
        the paper schedules over the whole facility as one pool). All of
        them must share one :class:`~repro.cluster.state.ClusterState`.
    rng:
        Random generator for placement tie-breaking.
    default_policy:
        Policy of the implicitly created default framework.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Iterable[Server],
        rng: np.random.Generator,
        default_policy: Optional[PlacementPolicy] = None,
        enable_preemption: bool = False,
    ) -> None:
        self.engine = engine
        self.enable_preemption = enable_preemption
        self._bind(list(servers))
        self.rng = rng
        self.stats = SchedulerStats()
        self.frameworks: Dict[str, Framework] = {}
        self._default_framework = Framework("default", default_policy)
        self.placement_listeners: List[PlacementListener] = []
        self.completion_listeners: List[CompletionListener] = []
        #: called with (action, server_id) on freeze/unfreeze/fail/repair
        self.control_listeners: List[Callable[[str, int], None]] = []
        self._frozen_ids: set = set()
        for server in self.servers:
            server.frequency_listeners.append(self._on_frequency_change)

    def _bind(self, servers: List[Server]) -> None:
        """Adopt ``servers`` and the static placement data derived from them."""
        old_index = self.__dict__.get("_placement")
        if old_index is not None:
            old_index.detach()
        self.servers = servers
        self.state, self._slot_index = shared_state_of(servers, "OmegaScheduler")
        self.index_of: Dict[int, int] = {s.server_id: i for i, s in enumerate(servers)}
        if len(self.index_of) != len(servers):
            raise ValueError("duplicate server ids in scheduler")
        # Placement reads the store over these slots: a slice view when
        # they are contiguous (every builder lays rows out that way).
        slots = self._slot_index
        first = int(slots[0])
        contiguous = np.array_equal(slots, np.arange(first, first + len(slots)))
        self._slots = slice(first, first + len(slots)) if contiguous else slots
        #: static per-position row ids (for ``allowed_rows`` filters)
        self.row_ids = np.array([s.row_id for s in servers], dtype=np.int64)
        # (cores, memory) capacities: scalars when every server has the
        # same, so a fit test streams only the ``used`` columns.
        cores, memory = self.state.cores[self._slots], self.state.memory_gb[self._slots]
        if (cores == cores[0]).all() and (memory == memory[0]).all():
            self._capacity = (float(cores[0]), float(memory[0]))
        else:
            self._capacity = (cores.copy(), memory.copy())
        self._row_mask_cache: Dict[frozenset, np.ndarray] = {}
        self._fit_limits: Dict[Tuple[float, float], Tuple] = {}
        self._row_range_cache: Dict[frozenset, List[Tuple[int, int]]] = {}
        #: built on the first random placement (see ``placement_index``)
        self._placement: Optional[PlacementIndex] = None

    def __getstate__(self) -> dict:
        # The index and the row ranges are derived from the columns and
        # rebuilt on first use, so snapshots stay as they were without
        # them.
        state = self.__dict__.copy()
        state.pop("_placement", None)
        state.pop("_row_range_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # Snapshots from builds that mirrored resources into a separate
        # tracker carry it as ``tracker``; the store already holds
        # everything it mirrored, so only its server list is adopted.
        # The servers may still be half-restored while this runs, so the
        # placement data is derived on first use (``__getattr__``).
        tracker = state.pop("tracker", None)
        self.__dict__.update(state)
        self._placement = None
        self._row_range_cache = {}
        if tracker is not None:
            self.servers = tracker.servers

    def __getattr__(self, name: str):
        # Reached only for attributes missing from the instance: after a
        # restore that adopted a tracker's servers but has not yet bound.
        unbound = "servers" in self.__dict__ and "state" not in self.__dict__
        if name.startswith("__") or not unbound:
            raise AttributeError(name)
        self._bind(self.servers)
        return getattr(self, name)

    # ------------------------------------------------------------------
    # Framework management (upper level)
    # ------------------------------------------------------------------
    def register_framework(self, framework: Framework) -> None:
        if framework.name in self.frameworks:
            raise ValueError(f"framework {framework.name!r} already registered")
        self.frameworks[framework.name] = framework

    def framework_for(self, job: Job) -> Framework:
        return self.frameworks.get(job.product, self._default_framework)

    def all_frameworks(self) -> List[Framework]:
        return [self._default_framework, *self.frameworks.values()]

    @property
    def queued_jobs(self) -> int:
        return sum(len(f.queue) for f in self.all_frameworks())

    # ------------------------------------------------------------------
    # SchedulerInterface
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept a job: place immediately if possible, else enqueue.

        With preemption enabled, a positive-priority job that cannot fit
        may evict lower-priority running work instead of queueing.
        """
        self.stats.submitted += 1
        framework = self.framework_for(job)
        if not framework.queue and self._try_place(job, framework):
            return
        if (
            self.enable_preemption
            and job.priority > 0
            and self._try_preempt_for(job)
        ):
            return
        framework.queue.append(job)

    def _server(self, server_id: int) -> Server:
        index = self.index_of.get(server_id)
        if index is None:
            raise KeyError(f"unknown server id {server_id}")
        return self.servers[index]

    def freeze(self, server_id: int) -> None:
        server = self._server(server_id)
        if server_id in self._frozen_ids:
            return  # idempotent: reconciliation may re-assert a freeze
        server.freeze()
        self._frozen_ids.add(server_id)
        self._notify_control("freeze", server_id)

    def unfreeze(self, server_id: int) -> None:
        server = self._server(server_id)
        if server_id not in self._frozen_ids:
            return  # idempotent: a retried unfreeze must not re-drain
        server.unfreeze()
        self._frozen_ids.discard(server_id)
        self._notify_control("unfreeze", server_id)
        self._drain_queues()

    def frozen_server_ids(self) -> FrozenSet[int]:
        return frozenset(self._frozen_ids)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail_server(self, server_id: int) -> int:
        """Take a server down: kill its tasks and resubmit fresh attempts.

        Batch tasks restart from scratch on another machine (MapReduce
        semantics); pinned services are lost until an operator re-pins
        them. Returns the number of tasks killed.
        """
        server = self._server(server_id)
        if server.failed:
            return 0
        killed = list(server.tasks.values())
        for job in killed:
            if job.completion_handle is not None:
                job.completion_handle.cancel()
                job.completion_handle = None
            server.remove_task(job)
            job.kill()
        server.fail()
        self._notify_control("fail", server_id)
        self.stats.failures += 1
        self.stats.jobs_killed += len(killed)
        now = self.engine.now
        for job in killed:
            if job.remaining_work == float("inf"):
                continue  # a pinned service; not rescheduled automatically
            retry = Job(
                job.job_id,
                job.work_seconds,
                cores=job.cores,
                memory_gb=job.memory_gb,
                arrival_time=now,
                product=job.product,
                allowed_rows=job.allowed_rows,
                tenant=job.tenant,
            )
            self.submit(retry)
        return len(killed)

    def shed_tasks(self, server_id: int, max_tasks: Optional[int] = None) -> int:
        """Emergency load shedding: drop batch tasks from one server.

        The safety supervisor's last resort before a breaker trip. Unlike
        :meth:`fail_server` the machine stays up and, critically, the
        killed work is *not* resubmitted -- shedding must reduce total
        demand, not relocate it. Victims are chosen priority-aware:
        lowest priority first, largest remaining work first within a
        priority (drop the cheapest, longest-lived work). Pinned services
        (infinite work) are never shed. Returns the number of tasks
        dropped.
        """
        server = self._server(server_id)
        victims = sorted(
            (
                t
                for t in server.tasks.values()
                if t.remaining_work != float("inf")
            ),
            key=lambda t: (t.priority, -t.remaining_work, t.job_id),
        )
        if max_tasks is not None:
            victims = victims[:max_tasks]
        now = self.engine.now
        for job in victims:
            if job.completion_handle is not None:
                job.completion_handle.cancel()
                job.completion_handle = None
            job.advance(now, server.frequency)
            server.remove_task(job)
            job.kill()
        if victims:
            self.stats.jobs_shed += len(victims)
            self._notify_control("shed", server_id)
        return len(victims)

    def repair_server(self, server_id: int) -> None:
        """Bring a failed server back into the schedulable pool."""
        server = self._server(server_id)
        if not server.failed:
            return
        server.repair()
        self._notify_control("repair", server_id)
        self._drain_queues()

    # ------------------------------------------------------------------
    # Power-state management (consolidation baselines)
    # ------------------------------------------------------------------
    def power_off_server(self, server_id: int) -> None:
        """Remove an *idle* server from the pool (PowerNap-style).

        Raises ``RuntimeError`` if the server still runs tasks; a
        consolidation controller must only select idle machines.
        """
        self._server(server_id).power_off()

    def power_on_server(self, server_id: int) -> None:
        """Return a powered-off server to the pool and drain the queue."""
        self._server(server_id).power_on()
        self._drain_queues()

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------
    def _try_preempt_for(self, job: Job) -> bool:
        """Evict lower-priority work to place ``job``; True on success.

        Victim server: the eligible server whose evicted priority mass is
        smallest. Victims are killed lowest-priority-first and resubmitted
        as fresh attempts (restart semantics, like the failure path);
        pinned services (infinite work) are never evicted.
        """
        best_index = None
        best_victims = None
        best_cost = None
        for index, server in enumerate(self.servers):
            if server.frozen or server.failed:
                continue
            if job.allowed_rows is not None and server.row_id not in job.allowed_rows:
                continue
            victims = self._cheapest_victims(server, job)
            if victims is None:
                continue
            cost = (sum(v.priority for v in victims), len(victims))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_index = index
                best_victims = victims
        if best_index is None:
            return False
        server = self.servers[best_index]
        now = self.engine.now
        for victim in best_victims:
            if victim.completion_handle is not None:
                victim.completion_handle.cancel()
                victim.completion_handle = None
            victim.advance(now, server.frequency)
            server.remove_task(victim)
            victim.kill()
            self.stats.jobs_preempted += 1
        self.stats.preemptions += 1
        # Claim the freed capacity for the urgent job before the victims'
        # retries are resubmitted, or they would race it for the slot.
        self._place(job, best_index)
        for victim in best_victims:
            self.submit(
                Job(
                    victim.job_id,
                    victim.work_seconds,
                    cores=victim.cores,
                    memory_gb=victim.memory_gb,
                    arrival_time=now,
                    product=victim.product,
                    allowed_rows=victim.allowed_rows,
                    priority=victim.priority,
                    tenant=victim.tenant,
                )
            )
        return True

    def _cheapest_victims(self, server: Server, job: Job):
        """Lowest-priority tasks whose eviction makes ``job`` fit, or None."""
        free_cores = server.free_cores
        free_memory = server.free_memory_gb
        if free_cores >= job.cores and free_memory >= job.memory_gb:
            return []  # caller should have placed normally, but handle it
        evictable = sorted(
            (
                t
                for t in server.tasks.values()
                if t.priority < job.priority and t.remaining_work != float("inf")
            ),
            key=lambda t: (t.priority, t.remaining_work),
        )
        victims = []
        for task in evictable:
            if free_cores >= job.cores and free_memory >= job.memory_gb:
                break
            victims.append(task)
            free_cores += task.cores
            free_memory += task.memory_gb
        if free_cores >= job.cores and free_memory >= job.memory_gb:
            return victims
        return None

    def _notify_control(self, action: str, server_id: int) -> None:
        for listener in self.control_listeners:
            listener(action, server_id)

    # ------------------------------------------------------------------
    # Placement (low level)
    # ------------------------------------------------------------------
    def candidates(
        self,
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset] = None,
    ) -> np.ndarray:
        """Ascending positions of live, unfrozen servers that fit the demand.

        ``used <= capacity - (demand - slack)`` against per-demand limits
        cached like the row masks (capacities are static), so a query is
        a few comparisons over the store's columns with no subtraction.
        Same booleans as ``Server.can_fit`` whenever the arithmetic is
        exact, as it is for the integral demands of every workload here.
        """
        return np.flatnonzero(self._mask(cores, memory_gb, allowed_rows))

    def _mask(
        self,
        cores: float,
        memory_gb: float,
        allowed_rows: Optional[frozenset] = None,
    ) -> np.ndarray:
        """Per-position eligibility behind :meth:`candidates`."""
        state, slots = self.state, self._slots
        core_limit, memory_limit = self._limits(cores, memory_gb)
        mask = state.used_cores[slots] <= core_limit
        mask &= state.used_memory_gb[slots] <= memory_limit
        blocked = state.frozen[slots] | state.failed[slots]
        blocked |= state.powered_off[slots]
        mask &= ~blocked
        if allowed_rows is not None:
            mask &= self._row_mask(allowed_rows)
        return mask

    @property
    def placement_index(self) -> PlacementIndex:
        """The O(log N) eligible-server index, built on first use."""
        index = self._placement
        if index is None:
            index = self._placement = PlacementIndex(self, _FIT_CACHE_ENTRIES)
        return index

    def _limits(self, cores: float, memory_gb: float) -> Tuple:
        key = (cores, memory_gb)
        limits = self._fit_limits.get(key)
        if limits is None:
            if len(self._fit_limits) >= _FIT_CACHE_ENTRIES:
                self._fit_limits.clear()
            core_capacity, memory_capacity = self._capacity
            limits = (
                core_capacity - (cores - _FIT_SLACK),
                memory_capacity - (memory_gb - _FIT_SLACK),
            )
            self._fit_limits[key] = limits
        return limits

    def _row_mask(self, allowed_rows: frozenset) -> np.ndarray:
        cached = self._row_mask_cache.get(allowed_rows)
        if cached is None:
            if len(self._row_mask_cache) >= _FIT_CACHE_ENTRIES:
                self._row_mask_cache.clear()
            allowed = np.fromiter(allowed_rows, dtype=np.int64)
            cached = np.isin(self.row_ids, allowed)
            self._row_mask_cache[allowed_rows] = cached
        return cached

    def row_ranges(self, allowed_rows: Optional[frozenset]) -> Optional[Ranges]:
        """``[lo, hi)`` position runs inside ``allowed_rows`` (None: all)."""
        if allowed_rows is None:
            return None
        cached = self._row_range_cache.get(allowed_rows)
        if cached is None:
            if len(self._row_range_cache) >= _FIT_CACHE_ENTRIES:
                self._row_range_cache.clear()
            padded = np.concatenate(([False], self._row_mask(allowed_rows), [False]))
            edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
            cached = list(zip(edges[::2], edges[1::2]))
            self._row_range_cache[allowed_rows] = cached
        return cached

    def free_cores(self, positions: np.ndarray) -> np.ndarray:
        """Free cores of the servers at ``positions`` (scheduler order)."""
        slots = self._slot_index[positions]
        return self.state.cores[slots] - self.state.used_cores[slots]

    def _try_place(self, job: Job, framework: Framework) -> bool:
        index = framework.policy.place(
            self, job.cores, job.memory_gb, job.allowed_rows, self.rng
        )
        if index is None:
            return False
        self._place(job, index)
        return True

    def _place(self, job: Job, index: int) -> None:
        server = self.servers[index]
        now = self.engine.now
        server.add_task(job)
        job.begin(server, now)
        job.completion_handle = self.engine.schedule(
            job.eta(now, self.state.frequency.item(server._index)),
            EventPriority.JOB_COMPLETION,
            self._complete_job,
            job,
        )
        self.stats.record_placement(job)
        for listener in self.placement_listeners:
            listener(job, server)

    def place_pinned(self, job: Job, server_id: int) -> None:
        """Place a job on a specific server, bypassing placement policy.

        Used for long-lived pinned services (e.g. a Redis instance). The
        job holds its resources indefinitely; no completion event is
        scheduled and throughput listeners are not notified (services are
        not part of batch throughput).
        """
        server = self._server(server_id)
        server.add_task(job)
        job.begin(server, self.engine.now)

    def _complete_job(self, job: Job) -> None:
        now = self.engine.now
        server = job.server
        assert server is not None
        frequency = self.state.frequency.item(server._index)
        job.advance(now, frequency)
        if job.remaining_work > _COMPLETION_EPSILON:
            # The server slowed down after this event was scheduled and the
            # reschedule raced; push completion to the corrected ETA.
            job.completion_handle = self.engine.schedule(
                job.eta(now, frequency),
                EventPriority.JOB_COMPLETION,
                self._complete_job,
                job,
            )
            return
        job.complete(now)
        server.remove_task(job)
        self.stats.completed += 1
        for listener in self.completion_listeners:
            listener(job, server)
        self._drain_queues()

    def _drain_queues(self) -> None:
        """Place queued jobs while capacity lasts (FIFO + bounded backfill)."""
        for framework in self.all_frameworks():
            if framework.queue:
                self._drain_framework(framework)

    def _drain_framework(self, framework: Framework) -> None:
        while framework.queue:
            head = framework.queue[0]
            if self._try_place(head, framework):
                framework.queue.popleft()
                continue
            # Head does not fit: try a bounded backfill window behind it.
            placed_any = False
            window = min(framework.backfill_depth, len(framework.queue) - 1)
            position = 1
            scanned = 0
            while scanned < window and position < len(framework.queue):
                job = framework.queue[position]
                if self._try_place(job, framework):
                    del framework.queue[position]
                    placed_any = True
                else:
                    position += 1
                scanned += 1
            if not placed_any:
                break

    # ------------------------------------------------------------------
    # DVFS coupling
    # ------------------------------------------------------------------
    def _on_frequency_change(
        self, server: Server, old_frequency: float, new_frequency: float
    ) -> None:
        """Re-time completion events when a server's speed changes."""
        now = self.engine.now
        for job in server.tasks.values():
            job.advance(now, old_frequency)
            if job.completion_handle is not None:
                job.completion_handle.cancel()
            job.completion_handle = self.engine.schedule(
                job.eta(now, new_frequency),
                EventPriority.JOB_COMPLETION,
                self._complete_job,
                job,
            )


__all__ = ["OmegaScheduler", "Framework", "PlacementListener", "CompletionListener"]
