"""Per-iteration step-size schedules.

Every schedule exposes rates(t) -> (eta_w, eta_a), the step sizes used to
move from iterate t to iterate t + 1, and step_sizes(), every pair that
rates can return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Warmup length of the 1/k^2 convention (WarmupSchedule.for_k), the sweep's resnet_ssw.
STAGE1_ITERS = 1000


@dataclass(frozen=True)
class WarmupSchedule:
    """Two-phase schedule with a conservative filter step during warmup."""

    eta_a_stage1: float
    eta_w_stage1: float
    stage1_iters: int
    eta_a_stage2: float
    eta_w_stage2: float

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.eta_a_stage1, self.eta_w_stage1,
                                                 self.eta_a_stage2, self.eta_w_stage2)):
            raise ValueError("step sizes must be positive and finite")
        if self.stage1_iters < 0:
            raise ValueError("stage1_iters must be >= 0")

    def rates(self, t: int) -> tuple[float, float]:
        if t < self.stage1_iters:
            return self.eta_w_stage1, self.eta_a_stage1
        return self.eta_w_stage2, self.eta_a_stage2

    def step_sizes(self) -> tuple[tuple[float, float], ...]:
        return tuple(self.rates(t) for t in sorted({0, self.stage1_iters}))

    @classmethod
    def for_k(cls, k: int) -> "WarmupSchedule":
        """The convention eta_a = 1/k^2 with eta_w = eta_a^2 during STAGE1_ITERS warmup steps."""
        eta_a = 1.0 / k**2
        return cls(
            eta_a_stage1=eta_a,
            eta_w_stage1=eta_a * eta_a,
            stage1_iters=STAGE1_ITERS,
            eta_a_stage2=eta_a,
            eta_w_stage2=eta_a,
        )


class ConstantSchedule(WarmupSchedule):
    """The step sizes (eta_w, eta_a) at every iteration: a warmup schedule with no warmup."""

    def __init__(self, eta_a: float, eta_w: float) -> None:
        super().__init__(eta_a, eta_w, 0, eta_a, eta_w)

    @classmethod
    def for_k(cls, k: int) -> "ConstantSchedule":
        eta = 1.0 / k**2
        return cls(eta_a=eta, eta_w=eta)
