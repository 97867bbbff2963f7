"""Tests for job-trace recording and replay."""

import numpy as np
import pytest

from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.generator import BatchWorkloadGenerator, ConstantRateProfile
from repro.workload.job import Job
from repro.workload.replay import (
    JobTraceRecord,
    TraceRecorder,
    TraceReplayGenerator,
    read_job_trace,
    write_job_trace,
)
from tests.conftest import make_servers


def make_cluster(seed=0, n=8):
    engine = Engine()
    servers = make_servers(n)
    for server in servers:
        server.row_id = 0  # traces below carry allowed_rows={0}
    scheduler = OmegaScheduler(engine, servers, rng=np.random.default_rng(seed))
    return engine, scheduler


def record_some_jobs(until=600.0):
    engine, scheduler = make_cluster()
    recorder = TraceRecorder()
    generator = BatchWorkloadGenerator(
        engine, scheduler, ConstantRateProfile(0.2),
        rng=np.random.default_rng(7), product="p", allowed_rows=[0],
    )
    generator.listeners.append(recorder)
    generator.start(until)
    engine.run(until=until)
    return recorder.records


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        records = record_some_jobs()
        assert records
        path = tmp_path / "trace.csv"
        written = write_job_trace(records, path)
        assert written == len(records)
        loaded = read_job_trace(path)
        assert loaded == sorted(records, key=lambda r: r.arrival_time)

    def test_allowed_rows_round_trip(self, tmp_path):
        record = JobTraceRecord(1.0, 5, 100.0, 2.0, 4.0, "x", frozenset({2, 7}))
        path = tmp_path / "t.csv"
        write_job_trace([record], path)
        assert read_job_trace(path)[0].allowed_rows == frozenset({2, 7})

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            read_job_trace(path)

    def test_record_from_and_to_job(self):
        job = Job(9, 120.0, cores=2, memory_gb=4, arrival_time=33.0, product="q")
        record = JobTraceRecord.from_job(job)
        clone = record.to_job()
        assert clone.job_id == 9
        assert clone.work_seconds == 120.0
        assert clone.arrival_time == 33.0
        shifted = record.to_job(arrival_time=50.0)
        assert shifted.arrival_time == 50.0


class TestReplay:
    def test_replay_reproduces_submissions(self):
        records = record_some_jobs()
        engine, scheduler = make_cluster(seed=99)
        replay = TraceReplayGenerator(engine, scheduler, records)
        scheduled = replay.start()
        assert scheduled == len(records)
        engine.run(until=700.0)
        assert replay.jobs_submitted == len(records)
        assert scheduler.stats.submitted == len(records)

    def test_replay_is_bitwise_identical_across_runs(self):
        records = record_some_jobs()
        outcomes = []
        for seed in (1, 1):
            engine, scheduler = make_cluster(seed=seed)
            submitted = []
            scheduler.placement_listeners.append(
                lambda job, server: submitted.append((job.job_id, server.server_id))
            )
            TraceReplayGenerator(engine, scheduler, records).start()
            engine.run(until=700.0)
            outcomes.append(submitted)
        assert outcomes[0] == outcomes[1]

    def test_time_offset(self):
        records = record_some_jobs(until=120.0)
        engine, scheduler = make_cluster()
        engine.run(until=1000.0)  # clock already advanced
        replay = TraceReplayGenerator(engine, scheduler, records, time_offset=1000.0)
        replay.start()
        engine.run(until=1200.0)
        assert replay.jobs_submitted == len(records)

    def test_past_arrival_rejected(self):
        records = [JobTraceRecord(5.0, 1, 60.0, 1.0, 2.0)]
        engine, scheduler = make_cluster()
        engine.run(until=100.0)
        with pytest.raises(ValueError, match="in the past"):
            TraceReplayGenerator(engine, scheduler, records).start()

    def test_until_truncates(self):
        records = record_some_jobs(until=600.0)
        engine, scheduler = make_cluster()
        replay = TraceReplayGenerator(engine, scheduler, records)
        scheduled = replay.start(until=300.0)
        assert 0 < scheduled < len(records)

    def test_policy_comparison_on_identical_arrivals(self):
        """The use case: two policies see the same jobs, outcomes differ
        only by placement."""
        from repro.scheduler.policies import BestFitPolicy

        records = record_some_jobs()
        totals = {}
        for name, policy in (("random", None), ("bestfit", BestFitPolicy())):
            engine = Engine()
            servers = make_servers(8)
            for server in servers:
                server.row_id = 0
            scheduler = OmegaScheduler(
                engine, servers, rng=np.random.default_rng(3), default_policy=policy
            )
            TraceReplayGenerator(engine, scheduler, records).start()
            # Long enough for the slowest job (<= 50 min) to finish.
            engine.run(until=600.0 + 3100.0)
            totals[name] = scheduler.stats.completed
        # Same jobs in, same jobs completed -- only placement differed.
        assert totals["random"] == totals["bestfit"] == len(records)
