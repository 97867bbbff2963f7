"""The scheduler's O(log N) placement index (``repro.scheduler.index``).

The index must answer exactly what the mask answers -- same count, same
k-th eligible position -- after any sequence of writes, so random
placement draws the same ``rng.integers(n)`` and lands on the same
server. These tests hold it to the mask directly; the hypothesis checks
in ``tests/test_backend_equivalence.py`` drive it through mutation
sequences, and the pinned digests there hold whole trajectories.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import result_to_dict
from repro.cluster.datacenter import build_row
from repro.cluster.state import ClusterState
from repro.core.safety import SafetyConfig
from repro.scheduler.index import EligibleSet
from repro.scheduler.omega import _FIT_CACHE_ENTRIES, OmegaScheduler
from repro.scheduler.policies import RandomAvailablePolicy
from repro.sim.audit import AuditorConfig
from repro.sim.engine import Engine
from repro.sim.experiment import ControlledExperiment, ExperimentConfig
from repro.sim.testbed import WorkloadSpec
from repro.workload.job import Job
from tests import scalar_oracle as oracle
from tests.scalar_oracle import placement_matches
from tests.test_durability import LEGACY_SNAPSHOT, result_json_without_config, tiny_config


def loaded_scheduler(n=24, rows=3, seed=0):
    """A scheduler over one row whose servers cycle through ``rows`` row
    ids in blocks of four, half full of two-core jobs."""
    row = build_row(0, racks=1, servers_per_rack=n)
    for i, server in enumerate(row.servers):
        server.row_id = (i // 4) % rows
    scheduler = OmegaScheduler(Engine(), row.servers, np.random.default_rng(seed))
    for job_id in range(n * 4):
        scheduler.submit(Job(job_id, 1e9, cores=2.0, memory_gb=4.0))
    return scheduler


# ---------------------------------------------------------------------------
# The Fenwick tree itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
def test_eligible_set_counts_and_selects_like_the_mask(n):
    rng = np.random.default_rng(n)
    mask = rng.random(n) < 0.4
    shape = EligibleSet(mask, (0.0, 0.0))
    for _ in range(3 * n):
        positions = np.flatnonzero(mask).tolist()
        assert shape.count == len(positions)
        assert [shape.kth(k) for k in range(len(positions))] == positions
        cut = int(rng.integers(n + 1))
        assert shape.prefix(cut) == int(mask[:cut].sum())
        flip = int(rng.integers(n))
        shape.flip(flip)
        mask[flip] = not mask[flip]
    assert shape.nodes == EligibleSet(mask, (0.0, 0.0)).nodes


# ---------------------------------------------------------------------------
# Agreement with the mask, and the draw
# ---------------------------------------------------------------------------


def test_index_matches_mask_after_placements_and_completions():
    scheduler = loaded_scheduler()
    assert placement_matches(scheduler)
    scheduler.engine.run(until=1.0)
    scheduler.fail_server(scheduler.servers[3].server_id)
    scheduler.freeze(scheduler.servers[5].server_id)
    assert placement_matches(scheduler)


def test_random_place_draws_like_select_over_candidates():
    scheduler = loaded_scheduler()
    policy = RandomAvailablePolicy()
    for cores, memory_gb in [(1.0, 2.0), (2.0, 4.0), (4.0, 8.0), (16.0, 64.0)]:
        for rows in (None, frozenset({0, 2}), frozenset({1})):
            fast, slow = np.random.default_rng(5), np.random.default_rng(5)
            candidates = scheduler.candidates(cores, memory_gb, rows)
            placed = policy.place(scheduler, cores, memory_gb, rows, fast)
            if len(candidates) == 0:
                assert placed is None
            else:
                assert placed == policy.select(scheduler, candidates, slow)
            assert fast.bit_generator.state == slow.bit_generator.state


def test_allowed_rows_spanning_non_adjacent_rows():
    scheduler = loaded_scheduler(n=24, rows=3)
    rows = frozenset({0, 2})
    assert scheduler.row_ranges(rows) == [(0, 4), (8, 16), (20, 24)]
    assert placement_matches(scheduler, row_sets=[rows, frozenset({1}), frozenset({7})])


def test_more_than_sixteen_shapes_evict_and_rebuild():
    scheduler = loaded_scheduler()
    index = scheduler.placement_index
    shapes = [(float(c), 2.0 * c) for c in range(1, _FIT_CACHE_ENTRIES + 6)]
    for cores, memory_gb in shapes:
        index.eligible(cores, memory_gb)
        assert len(index.shapes) <= _FIT_CACHE_ENTRIES
    scheduler.engine.run(until=1.0)  # writes land while shapes are evicted
    scheduler.fail_server(scheduler.servers[0].server_id)
    assert placement_matches(scheduler, demands=shapes)


def test_demand_that_fits_nowhere_draws_nothing():
    scheduler = loaded_scheduler()
    before = scheduler.rng.bit_generator.state
    scheduler.submit(Job(10_000, 60.0, cores=64.0, memory_gb=4.0))
    assert scheduler.queued_jobs == 1
    assert scheduler.rng.bit_generator.state == before
    assert scheduler.placement_index.eligible(64.0, 4.0).count == 0


# ---------------------------------------------------------------------------
# Dirty slots: one hook, per slot
# ---------------------------------------------------------------------------


def test_two_schedulers_on_one_store_see_only_their_own_dirty_slots():
    row = build_row(0, racks=1, servers_per_rack=8)
    engine = Engine()
    left = OmegaScheduler(engine, row.servers[:4], np.random.default_rng(0))
    right = OmegaScheduler(engine, row.servers[4:], np.random.default_rng(1))
    left_index, right_index = left.placement_index, right.placement_index
    row.servers[1].add_task(Job(1, 60.0, cores=2.0, memory_gb=4.0))
    row.servers[6].frozen = True
    row.state.fail_servers(np.array([2, 7]))
    row.state.set_frozen(np.array([0]), True)
    assert left_index._dirty == {0, 1, 2}
    assert right_index._dirty == {6, 7}
    left_index.eligible(1.0, 2.0)
    assert left_index._dirty == set() and right_index._dirty == {6, 7}
    assert placement_matches(left) and placement_matches(right)


@pytest.mark.parametrize(
    "column, value",
    [("used_cores", 15.0), ("used_memory_gb", 63.0), ("frozen", True),
     ("failed", True), ("powered_off", True)],
)
def test_each_placement_column_setter_marks_its_slot(column, value):
    scheduler = loaded_scheduler(n=8)
    index = scheduler.placement_index
    index.eligible(1.0, 2.0)
    assert index._dirty == set()
    setattr(scheduler.servers[5], column, value)
    assert index._dirty == {5}
    assert placement_matches(scheduler)


def test_rebind_detaches_the_old_index():
    scheduler = loaded_scheduler(n=8)
    old = scheduler.placement_index
    old.eligible(2.0, 4.0)
    scheduler._bind(scheduler.servers)
    assert scheduler._placement is None
    scheduler.servers[0].frozen = True
    assert old._dirty == set()  # no longer watching
    assert scheduler.state._watchers[0] == ()
    assert placement_matches(scheduler)


def test_row_filter_caches_are_bounded():
    scheduler = loaded_scheduler(n=40, rows=10)
    for k in range(100):
        rows = frozenset({k % 10, (k // 10) % 10, 100 + k})
        scheduler.submit(Job(1000 + k, 60.0, cores=1.0, memory_gb=2.0, allowed_rows=rows))
        assert len(scheduler._row_mask_cache) <= _FIT_CACHE_ENTRIES
        assert len(scheduler._row_range_cache) <= _FIT_CACHE_ENTRIES
    assert placement_matches(scheduler)


# ---------------------------------------------------------------------------
# place_task / release_task against the four-setter oracle
# ---------------------------------------------------------------------------

#: demands that drift (0.1 + 0.2 - 0.1 - 0.2 != 0), that fit exactly, and
#: that fit nowhere
TASK_DEMANDS = (0.1, 0.2, 0.3, 1.0, 2.0, 7.3, 16.0, 16.5)


def watched_row(n=6):
    """A row whose slots are watched by two dirty sets: one over every
    slot, one over the even slots only."""
    row = build_row(0, racks=1, servers_per_rack=n, cores=16, memory_gb=32.0)
    every, even = set(), set()
    row.state.watch(list(range(n)), every)
    row.state.watch(list(range(0, n, 2)), even)
    return row, (every, even)


def column_bits(state):
    return {
        name: getattr(state, name)[: state.n].tobytes()
        for name in ("used_cores", "used_memory_gb", "jobs_started",
                     "jobs_completed", "power_valid")
    }


operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "power"]),
        st.integers(0, 5),
        st.sampled_from(TASK_DEMANDS),
        st.sampled_from(TASK_DEMANDS),
        st.integers(0, 7),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(operations)
def test_store_task_writes_match_the_setter_oracle(ops):
    rows = [watched_row(), watched_row()]
    apply = [
        (lambda server, job: server.add_task(job), lambda server, job: server.remove_task(job)),
        (oracle.add_task, oracle.remove_task),
    ]
    for job_id, (kind, position, cores, memory_gb, pick) in enumerate(ops):
        outcomes = []
        for (row, dirty), (add, remove) in zip(rows, apply):
            server = row.servers[position]
            before = (column_bits(row.state), [set(d) for d in dirty])
            try:
                if kind == "add":
                    add(server, Job(job_id, 60.0, cores=cores, memory_gb=memory_gb))
                elif kind == "remove" and server.tasks:
                    running = sorted(server.tasks)
                    remove(server, server.tasks[running[pick % len(running)]])
                elif kind == "power":
                    server.power_watts()
            except ValueError:
                # A no-fit call writes nothing and marks nothing dirty.
                assert (column_bits(row.state), [set(d) for d in dirty]) == before
                outcomes.append("refused")
            else:
                outcomes.append("done")
        assert outcomes[0] == outcomes[1]
        (fast, fast_dirty), (slow, slow_dirty) = rows
        assert column_bits(fast.state) == column_bits(slow.state)
        assert fast_dirty == slow_dirty
        for dirty in fast_dirty + slow_dirty:
            dirty.clear()
        for a, b in zip(fast.servers, slow.servers):
            assert sorted(a.tasks) == sorted(b.tasks)


def test_release_clamps_drift_to_exact_zero():
    row, (every, even) = watched_row()
    server = row.servers[2]
    jobs = [Job(i, 60.0, cores=c, memory_gb=c) for i, c in enumerate((0.1, 0.2))]
    for job in jobs:
        server.add_task(job)
    assert 0.1 + 0.2 - 0.1 - 0.2 != 0.0
    every.clear(), even.clear()
    for job in jobs:
        server.remove_task(job)
    assert server.used_cores == 0.0 and server.used_memory_gb == 0.0
    assert every == even == {2}
    assert server.jobs_started == server.jobs_completed == 2


def test_place_task_that_does_not_fit_leaves_the_store_untouched():
    row, (every, _) = watched_row()
    state = row.state
    state.place_task(1, 15.0, 1.0)
    every.clear()
    before = column_bits(state)
    assert state.place_task(1, 1.5, 1.0) is False
    assert state.place_task(1, 1.0, 31.5) is False
    assert column_bits(state) == before and every == set()
    assert state.place_task(1, 1.0, 31.0) is True
    assert every == {1}


# ---------------------------------------------------------------------------
# Snapshots: the index and the watcher lists are never pickled
# ---------------------------------------------------------------------------


def test_index_and_watchers_are_not_pickled():
    scheduler = loaded_scheduler(n=8)
    scheduler.candidates(2.0, 4.0, frozenset({1}))  # fills the pickled caches
    plain = pickle.dumps(scheduler)
    scheduler.placement_index.eligible(2.0, 4.0)
    scheduler.row_ranges(frozenset({1}))
    assert pickle.dumps(scheduler) == plain
    restored = pickle.loads(plain)
    assert restored._placement is None
    assert restored.state._watchers == []
    assert placement_matches(restored)


def test_parent_build_store_gets_an_empty_watcher_list():
    state = ClusterState()
    legacy = state.__dict__.copy()
    del legacy["_watchers"]  # as pickled by a build without the index
    revived = ClusterState.__new__(ClusterState)
    revived.__setstate__(legacy)
    assert revived._watchers == []
    revived.touch(0)  # an unwatched store ignores writes


def pool_config():
    """A small single-pool run: bursts off, Ampere freezing, one seed."""
    return ExperimentConfig(
        n_servers=200,
        duration_hours=0.5,
        warmup_hours=0.25,
        over_provision_ratio=0.25,
        workload=WorkloadSpec(target_utilization=0.40, bursts_per_day=0),
        seed=3,
    )


def advanced_pool_run():
    experiment = ControlledExperiment(pool_config())
    experiment.start()
    experiment.advance(1500.0)
    scheduler = experiment.testbed.scheduler
    for server in scheduler.servers[:6]:
        scheduler.freeze(server.server_id)
    scheduler.fail_server(scheduler.servers[10].server_id)
    experiment.advance(1560.0)
    return experiment


def test_pool_snapshot_resume_is_byte_identical():
    uninterrupted = advanced_pool_run()
    mid = advanced_pool_run()
    scheduler = mid.testbed.scheduler
    assert scheduler._placement is not None and scheduler._placement.shapes
    assert scheduler.stats.placed > 0 and scheduler.frozen_server_ids()
    scheduler.freeze(scheduler.servers[20].server_id)  # a pending dirty slot
    uninterrupted.testbed.scheduler.freeze(scheduler.servers[20].server_id)
    assert scheduler._placement._dirty
    resumed = ControlledExperiment.restore(mid.snapshot())
    assert resumed.testbed.scheduler._placement is None
    want = result_to_dict(uninterrupted.finish(), include_series=True)
    got = result_to_dict(resumed.finish(), include_series=True)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_legacy_snapshot_resumes_through_a_rebuilt_index():
    restored = ControlledExperiment.restore(LEGACY_SNAPSHOT)
    restored.advance(2400.0)
    scheduler = restored.testbed.scheduler
    assert scheduler._placement is not None and scheduler._placement.shapes
    assert placement_matches(scheduler)
    auditor = restored.build_auditor(
        AuditorConfig(sample_fraction=1.0, on_violation="record")
    )
    assert auditor.audit(sample=False) == []
    uninterrupted = ControlledExperiment(tiny_config(safety=SafetyConfig())).run()
    assert result_json_without_config(restored.finish()) == result_json_without_config(
        uninterrupted
    )
