"""Tests for the AmpereController control loop (Algorithm 1 end to end)."""

import math

import numpy as np
import pytest

from repro.cluster.group import ServerGroup
from repro.core.config import AmpereConfig
from repro.core.controller import AmpereController
from repro.core.demand import ConstantDemandEstimator
from repro.core.freeze_model import FreezeEffectModel
from repro.monitor.power_monitor import PowerMonitor
from repro.scheduler.omega import OmegaScheduler
from repro.sim.engine import Engine
from repro.workload.job import Job
from tests.conftest import make_servers


class Harness:
    """A tiny cluster with direct control over server load."""

    def __init__(self, n=10, budget_scale=1.0):
        self.engine = Engine()
        self.servers = make_servers(n)
        self.scheduler = OmegaScheduler(
            self.engine, self.servers, rng=np.random.default_rng(3)
        )
        self.group = ServerGroup("row", self.servers)
        self.group.power_budget_watts *= budget_scale
        self.monitor = PowerMonitor(self.engine, noise_sigma=0.0)
        self.monitor.register_group(self.group)

    def load(self, server_index, cores):
        job = Job(1000 + server_index, 1e9, cores=cores, memory_gb=1.0)
        self.scheduler.place_pinned(job, server_index)

    def controller(self, **kwargs):
        defaults = dict(
            config=AmpereConfig(),
            freeze_model=FreezeEffectModel(0.02),
            demand_estimator=ConstantDemandEstimator(0.025),
        )
        defaults.update(kwargs)
        return AmpereController(
            self.engine, self.scheduler, self.monitor, [self.group], **defaults
        )


class TestThresholdBehaviour:
    def test_no_action_below_threshold(self):
        harness = Harness()
        controller = harness.controller()
        harness.monitor.sample_once()  # idle fleet: ~0.68 normalized
        controller.tick()
        assert harness.scheduler.frozen_server_ids() == frozenset()
        state = controller.state_of("row")
        assert state.u_history == [0.0]

    def test_freezes_when_above_threshold(self):
        harness = Harness(budget_scale=0.68)  # idle power now ~0.98 of budget
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        assert len(harness.scheduler.frozen_server_ids()) > 0
        state = controller.state_of("row")
        assert state.active_ticks == 1
        assert state.u_history[-1] > 0.0

    def test_u_max_respected(self):
        harness = Harness(budget_scale=0.5)  # wildly over budget
        controller = harness.controller(config=AmpereConfig(u_max=0.5))
        harness.monitor.sample_once()
        controller.tick()
        assert len(harness.scheduler.frozen_server_ids()) <= 5

    def test_unfreezes_when_power_recovers(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        assert harness.scheduler.frozen_server_ids()
        harness.group.power_budget_watts *= 2.0  # demand collapses
        harness.monitor.sample_once()
        controller.tick()
        assert harness.scheduler.frozen_server_ids() == frozenset()

    def test_skips_until_first_sample(self):
        harness = Harness(budget_scale=0.5)
        controller = harness.controller()
        controller.tick()  # no monitor sample yet
        assert harness.scheduler.frozen_server_ids() == frozenset()
        assert controller.state_of("row").u_history == []


class TestHorizon:
    def test_nstep_matches_onestep_when_feasible(self):
        """Closed-loop Lemma 3.1: the first control of the N-step PCP
        equals the one-step SPCP control when the horizon is feasible
        (k_r * u_max must outrun the constant E for feasibility)."""
        results = {}
        for horizon in (1, 5):
            harness = Harness(budget_scale=0.68)
            controller = harness.controller(
                config=AmpereConfig(horizon=horizon, u_max=1.0),
                freeze_model=FreezeEffectModel(0.1),
            )
            harness.monitor.start(until=601.0)
            controller.start(until=601.0)
            harness.engine.run(until=700.0)
            results[horizon] = controller.state_of("row").u_history
        assert results[1] == results[5]

    def test_nstep_saturates_when_constant_margin_is_infeasible(self):
        """With a conservative constant E_t, any active N-step plan is
        infeasible (power would need to shrink forever), so the N-step
        controller pessimistically saturates where the 1-step one does
        not -- documented behaviour, and the reason the paper's horizon
        is 1."""
        one = Harness(budget_scale=0.68)
        c1 = one.controller(config=AmpereConfig(horizon=1))
        one.monitor.sample_once()
        c1.tick()
        many = Harness(budget_scale=0.68)
        c5 = many.controller(config=AmpereConfig(horizon=5))
        many.monitor.sample_once()
        c5.tick()
        assert c5.state_of("row").u_history[-1] >= c1.state_of("row").u_history[-1]

    def test_infeasible_horizon_saturates(self):
        harness = Harness(budget_scale=0.5)  # hopelessly over budget
        controller = harness.controller(
            config=AmpereConfig(horizon=4, u_max=0.5)
        )
        harness.monitor.sample_once()
        controller.tick()
        state = controller.state_of("row")
        assert state.u_history[-1] == pytest.approx(0.5)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            AmpereConfig(horizon=0)

    @pytest.mark.parametrize(
        "field",
        [
            "control_interval",
            "default_e_t",
            "horizon",
            "max_staleness_seconds",
            "rpc_max_attempts",
            "rpc_backoff_base_seconds",
            "rpc_deadline_seconds",
            "history_window",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_refuses_nan_and_infinities(self, field, value):
        with pytest.raises(ValueError, match=field):
            AmpereConfig(**{field: value})


class TestTargetsHottestServers:
    def test_frozen_set_is_hottest(self):
        harness = Harness()
        for i in range(5):
            harness.load(i, cores=12)  # servers 0-4 hot
        harness.group.power_budget_watts = harness.group.power_watts() * 1.005
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        frozen = harness.scheduler.frozen_server_ids()
        assert frozen
        assert frozen <= {0, 1, 2, 3, 4}


class TestStatelessness:
    def test_recovers_frozen_set_from_scheduler(self):
        """A replacement controller picks up where the old one stopped."""
        harness = Harness(budget_scale=0.68)
        first = harness.controller()
        harness.monitor.sample_once()
        first.tick()
        frozen_before = harness.scheduler.frozen_server_ids()
        assert frozen_before
        # New controller instance, same scheduler/monitor: sees the frozen
        # set and unfreezes correctly when demand recovers.
        second = harness.controller()
        harness.group.power_budget_watts *= 2.0
        harness.monitor.sample_once()
        second.tick()
        assert harness.scheduler.frozen_server_ids() == frozenset()


class TestPredictionResiduals:
    def test_residuals_recorded_between_ticks(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.start(until=301.0)
        controller.start(until=301.0)
        harness.engine.run(until=400.0)
        state = controller.state_of("row")
        # 5 ticks -> 4 residuals (first tick has no prior prediction).
        assert len(state.prediction_residuals) == state.ticks - 1
        summary = state.residual_summary()
        assert summary["count"] == 4
        # Constant load + conservative E_t: actual rise is below the
        # prediction, so residuals are negative (documented bias).
        assert summary["mean"] < 0

    def test_empty_residual_summary(self):
        harness = Harness()
        controller = harness.controller()
        summary = controller.state_of("row").residual_summary()
        assert summary["count"] == 0
        assert summary["max_abs"] == 0.0


class TestBookkeeping:
    def test_freeze_ratio_series_written(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.sample_once()
        controller.tick()
        times, values = harness.monitor.db.query("freeze_ratio/row")
        assert len(times) == 1
        assert values[0] > 0

    def test_periodic_loop(self):
        harness = Harness(budget_scale=0.68)
        controller = harness.controller()
        harness.monitor.start(until=301.0)
        controller.start(until=301.0)
        harness.engine.run(until=400.0)
        state = controller.state_of("row")
        assert state.ticks == 5
        assert state.u_mean > 0

    def test_duplicate_group_raises(self):
        harness = Harness()
        with pytest.raises(ValueError, match="duplicate"):
            AmpereController(
                harness.engine,
                harness.scheduler,
                harness.monitor,
                [harness.group, harness.group],
            )

    def test_no_groups_raises(self):
        harness = Harness()
        with pytest.raises(ValueError, match="at least one"):
            AmpereController(harness.engine, harness.scheduler, harness.monitor, [])

    def test_unknown_state_raises(self):
        harness = Harness()
        controller = harness.controller()
        with pytest.raises(KeyError):
            controller.state_of("nope")
