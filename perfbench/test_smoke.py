"""Smoke test of the benchmark at toy scale.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layer_trace  # noqa: E402
import run  # noqa: E402
from layer_trace import LayerTracer, TraceError  # noqa: E402

TOY = {
    "row-400": dict(servers=40, warmup_hours=0.05, duration_hours=0.1, chunk_seconds=60.0),
    "pool-20k": dict(servers=400, warmup_hours=0.05, duration_hours=0.05, chunk_seconds=60.0),
    "fleet-skew": dict(servers=40, rows=2, warmup_hours=0.05, duration_hours=0.2,
                       chunk_seconds=300.0),
}


@pytest.fixture(params=sorted(TOY))
def toy(request, monkeypatch):
    workload = replace(run.WORKLOADS[request.param], **TOY[request.param])
    monkeypatch.setitem(run.WORKLOADS, request.param, workload)
    return workload


def _result(capsys, workload, trace):
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    return result


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(capsys, toy, trace):
    result = _result(capsys, toy, trace)
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in run.metric_specs(trace)}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_traced_run_reproduces_the_untraced_digest(toy):
    log = run.measure(toy, seed=3, seconds=0, trace=1)
    plain, traced = log.sims
    assert not plain.traced and traced.traced
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest and traced.events == plain.events
    assert traced.layers["workload.jobs"] == sum(plain.chunk_jobs) > 0
    layers = run.per_layer(toy, log)
    assert layers["trace.attributed_share"] >= 0.95


def test_digest_depends_on_the_seed(toy):
    assert run.run_sim(toy, 3, False).digest != run.run_sim(toy, 4, False).digest


def test_a_vanished_method_fails_the_run(capsys, monkeypatch):
    workload = replace(run.WORKLOADS["row-400"], **TOY["row-400"])
    monkeypatch.setitem(run.WORKLOADS, "row-400", workload)
    monkeypatch.setattr(layer_trace, "SCHEDULER_METHODS", ("submit", "freeze", "thaw"))
    code = run.main(["--workload", "row-400", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] == 1


def test_a_vanished_method_fails_loudly():
    class Scheduler:
        def submit(self, job):
            pass

        def unfreeze(self, server_id):
            pass

    with pytest.raises(TraceError, match="freeze"):
        LayerTracer().attach_scheduler(Scheduler())
    with pytest.raises(TraceError, match="schedule"):
        LayerTracer().attach_engine(object())


def test_tracer_refuses_an_engine_with_pending_events():
    experiment = run.WORKLOADS["row-400"].build(1)
    experiment.start()
    with pytest.raises(TraceError, match="before start"):
        LayerTracer().attach_engine(run._engine(experiment))
