"""Two-level job scheduler substrate with the freeze/unfreeze API.

The scheduler mirrors the paper's custom Omega-like system: a low level
tracks resources and exposes exactly two control operations -- ``freeze``
(advise: place no new jobs on this server) and ``unfreeze`` -- while an
upper level of per-product frameworks decides placement with pluggable
policies. Ampere interacts with this package *only* through
:class:`~repro.scheduler.base.SchedulerInterface`.
"""

from repro.scheduler.base import SchedulerInterface, SchedulerStats
from repro.scheduler.policies import (
    PlacementPolicy,
    RandomAvailablePolicy,
    LeastLoadedPolicy,
    BestFitPolicy,
)
from repro.scheduler.omega import Framework, OmegaScheduler

__all__ = [
    "SchedulerInterface",
    "SchedulerStats",
    "PlacementPolicy",
    "RandomAvailablePolicy",
    "LeastLoadedPolicy",
    "BestFitPolicy",
    "Framework",
    "OmegaScheduler",
]
