"""Perf gate for multi-tenant power fairness (``repro.tenancy``).

Tenancy rides the per-minute control loop: every tick the controller
plans a freeze set, and with a tenant mix armed that seam runs the
fairness-aware DRF planner plus the per-tenant accountant instead of the
plain power-ordered sort. The contract, measured at 10k servers and
written to ``BENCH_tenancy.json`` for CI to publish:

* **Tick overhead** -- the tenancy-enabled freeze-planning path (fair
  DRF plan + accountant event handling) must cost within **5%** of the
  tenancy-blind baseline (``plan_freeze_set``) per control tick. The
  fair planner ranks servers with one numpy lexsort and splits the
  quota with a heap-based greedy, so in practice it undercuts the
  object-path baseline rather than taxing it.
* **State overhead** -- the tenant-id column adds one int64 per slot to
  the columnar store (8 bytes/server), nothing per-object.

The two ticks are timed in interleaved pairs (:func:`perf_gate.paired`),
each on fresh power readings with its own frozen set carried forward.
Fairness semantics are pinned in ``tests/test_tenancy.py``; this file
only pins the price.
"""

import numpy as np

from benchmarks import perf_gate
from repro.cluster.power import PowerModelParams
from repro.cluster.state import ClusterState
from repro.core.policy import plan_freeze_set
from repro.sim.engine import Engine
from repro.tenancy import (
    FairShareFreezePolicy,
    TenancyAccountant,
    TenancyConfig,
    TenantSpec,
    assign_to_tenants,
)

N_SERVERS = 10_000
N_FREEZE = 2_000
TICKS = 9
MAX_OVERHEAD = 0.05


def _mix() -> TenancyConfig:
    return TenancyConfig(
        tenants=(
            TenantSpec("alpha", sla="critical", share=0.2),
            TenantSpec("bravo", sla="standard", share=0.5),
            TenantSpec("charlie", sla="batch", share=0.3),
        )
    )


def _powers(rng: np.random.Generator) -> dict:
    return {
        sid: float(p)
        for sid, p in enumerate(rng.uniform(100.0, 300.0, N_SERVERS))
    }


def _steady_ticks(tick, rng: np.random.Generator):
    """Makers of timed freeze-planning ticks, run outside-in like the
    controller: fresh power readings every tick (drawn untimed), the
    previous tick's frozen set carried forward, so hysteresis churn,
    not a cold start, is what gets timed."""
    frozen = set()

    def make():
        powers = _powers(rng)

        def run():
            nonlocal frozen
            frozen = tick(powers, frozen)

        return run

    return make


def test_perf_tenancy_tick_overhead_under_5pct_at_10k():
    """Fair planning + accounting within 5% of the blind baseline."""
    config = _mix()
    tenant_of = assign_to_tenants(list(range(N_SERVERS)), config)

    def blind_tick(powers, frozen):
        return set(plan_freeze_set(powers, N_FREEZE, frozen).new_frozen)

    policy = FairShareFreezePolicy(
        tenant_of, config.weights(), config.names
    )
    accountant = TenancyAccountant(Engine(), config, tenant_of)

    def fair_tick(powers, frozen):
        plan = policy.plan(powers, N_FREEZE, frozen)
        for sid in plan.to_freeze:
            accountant.on_control_event("freeze", sid)
        for sid in plan.to_unfreeze:
            accountant.on_control_event("unfreeze", sid)
        return set(plan.new_frozen)

    pairs = perf_gate.paired(
        _steady_ticks(fair_tick, np.random.default_rng(7)),
        _steady_ticks(blind_tick, np.random.default_rng(7)),
        TICKS,
    )
    overhead = pairs.ratio - 1.0
    fair_s, blind_s = min(pairs.first), min(pairs.second)
    perf_gate.record(
        "tenancy", "tenancy_tick_overhead", overhead, MAX_OVERHEAD, "lower",
        [r - 1.0 for r in pairs.ratios], n_servers=N_SERVERS, n_freeze=N_FREEZE,
        pairs=TICKS, blind_ms_per_tick=round(blind_s * 1e3, 3),
        fair_ms_per_tick=round(fair_s * 1e3, 3),
    )
    assert overhead < MAX_OVERHEAD, (
        f"tenancy adds {overhead:.1%} per control tick at {N_SERVERS} "
        f"servers ({fair_s * 1e3:.2f} ms vs {blind_s * 1e3:.2f} ms); "
        "budget is 5%"
    )


def test_perf_tenant_column_is_8_bytes_per_slot():
    """The tenant-id column costs one int64 per slot, nothing more."""
    params = PowerModelParams()
    state = ClusterState(capacity=N_SERVERS)
    for i in range(N_SERVERS):
        state.add_server(i, 16, 64.0, params, 0.05)
    state.set_tenant(np.arange(0, N_SERVERS, 3), 1)
    per_slot = state.tenant_ids.nbytes / len(state.tenant_ids)
    perf_gate.record(
        "tenancy", "tenant_column_bytes_per_slot", per_slot, 8.0, "lower",
        [per_slot], total_bytes_per_server=round(state.bytes_per_server(), 1),
    )
    assert per_slot == 8.0
