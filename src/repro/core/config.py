"""Ampere configuration.

Defaults reproduce the paper's production settings: one-minute control
interval matching the monitoring frequency, stability ratio 0.8, and the
operational 50% ceiling on the freezing ratio ("considering some
operational maintenance issues of the scheduler, we limit the maximum
ratio of freezing servers to 50%", Section 4.1.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class AmpereConfig:
    """Tunable parameters of the Ampere controller.

    Attributes
    ----------
    control_interval:
        Seconds between control actions (60 = paper; matches monitoring).
    r_stable:
        Hysteresis ratio of Algorithm 1: a frozen server is swapped out
        only when another server's power exceeds the freeze set's floor by
        more than this factor. The paper finds performance insensitive to
        it and uses 0.8 throughout.
    u_max:
        Hard ceiling on the freezing ratio per row (0.5 = paper).
    control_target:
        Maximum allowed power as a fraction of the physical budget P_M.
        Operators may set < 1.0 for an extra safety margin; 1.0 = paper's
        controlled experiments.
    default_e_t:
        Fallback predicted one-interval power increase (normalized to P_M)
        used before the demand estimator has history for an hour-of-day.
        Matches the paper's observation that one-minute power changes stay
        within ~2.5% for 99% of minutes.
    horizon:
        RHC prediction horizon N in control intervals. 1 reproduces the
        paper's SPCP closed form; larger values solve the general PCP by
        iterated SPCP (optimal for the linear freeze model, Lemma 3.1) and
        apply only the first control.
    max_staleness_seconds:
        Fail-safe bound on the age of the power sample the controller is
        willing to act on. Beyond it the controller enters *degraded
        mode*: it conservatively holds the frozen set (re-asserting
        intended freezes, never unfreezing on fiction) and leaves budget
        safety to the reactive capping net until fresh data arrives. The
        default tolerates one missed monitor sweep but not two.
    rpc_max_attempts:
        Bounded retry budget for one freeze/unfreeze RPC within a tick
        (first try included). Exhausted intents are left to next-tick
        reconciliation against the scheduler's authoritative frozen set.
    rpc_backoff_base_seconds:
        First retry back-off; doubles per attempt (exponential back-off).
    rpc_deadline_seconds:
        Total wall-clock the controller may burn on RPCs in one tick
        (latency plus back-off). The control loop must never overrun its
        interval chasing a dead scheduler endpoint.
    history_window:
        Retention bound (in control ticks) on the per-row commanded-u /
        timestamp / residual histories. 0 keeps everything (the default,
        matching the historical behaviour pinned by the goldens); a
        positive value turns the histories into ring buffers whose
        ``u_mean`` / ``u_max`` / ``residual_summary`` statistics are
        exact over the retained window. Long fleet campaigns set this to
        bound controller memory.
    """

    control_interval: float = 60.0
    r_stable: float = 0.8
    u_max: float = 0.5
    control_target: float = 1.0
    default_e_t: float = 0.025
    horizon: int = 1
    max_staleness_seconds: float = 150.0
    rpc_max_attempts: int = 4
    rpc_backoff_base_seconds: float = 0.5
    rpc_deadline_seconds: float = 15.0
    history_window: int = 0

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        inf = math.inf
        checks = (
            ("control_interval", 0.0 < self.control_interval < inf, "positive and finite"),
            ("r_stable", 0.0 < self.r_stable <= 1.0, "in (0, 1]"),
            ("u_max", 0.0 < self.u_max <= 1.0, "in (0, 1]"),
            ("control_target", 0.0 < self.control_target <= 1.0, "in (0, 1]"),
            ("default_e_t", 0.0 <= self.default_e_t < inf, "non-negative and finite"),
            ("horizon", 1 <= self.horizon < inf, "finite and >= 1"),
            ("max_staleness_seconds", 0.0 < self.max_staleness_seconds < inf,
             "positive and finite"),
            ("rpc_max_attempts", 1 <= self.rpc_max_attempts < inf, "finite and >= 1"),
            ("rpc_backoff_base_seconds", 0.0 <= self.rpc_backoff_base_seconds < inf,
             "non-negative and finite"),
            ("rpc_deadline_seconds", 0.0 < self.rpc_deadline_seconds < inf,
             "positive and finite"),
            ("history_window", 0 <= self.history_window < inf, "finite and >= 0"),
        )
        for name, valid, expected in checks:
            if not valid:
                raise ValueError(f"{name} must be {expected}, got {getattr(self, name)}")


__all__ = ["AmpereConfig"]
