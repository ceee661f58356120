"""Vectorized many-trial engine for success-rate sweeps.

The update closes on three scalars per trial: the cosine x of the filter to
v_star (the filter stays in the plane of its start direction and v_star)
and, with d = a - a_star, the error coordinates 1^T d and a_star^T d (d moves
as d' = alpha d + beta ones + gamma a_star with per-trial beta and gamma).
landscape.closed_rows reads each start row alone, as run() reads its one.
Each iteration costs O(n) for n trials, independent of k and p, through
optimizer.closed_step on arrays, the step run() takes on floats. A trial is
decided at the first step its state lies in one of two boxes proven
absorbing (README, "Sweep-engine internals"); run() and cnn_run, which also
carry ||d||^2 for the 1e-6 test, enter the same box at the same step. The
boxes are tested once per window of WINDOW steps, on every state of the
window, so each trial still gets its first step in a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import ESCAPE_MAX_ANGLE, TWO_PI, closed_rows, relu_kernel_at_cos
from .model import TeacherSpec
from .optimizer import KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED, MAX_ITERS, closed_step
from .schedules import WarmupSchedule

X_PLUS = float(np.cos(ESCAPE_MAX_ANGLE))  # the filter faces of R+ and R-
X_MINUS = -0.2
_G_PLUS = relu_kernel_at_cos(X_PLUS)[1]
_G_MINUS = relu_kernel_at_cos(X_MINUS)[1]
# The KIND_* codes as int8, the dtype run_batch stores kinds in.
_CONVERGED, _TRAPPED, _UNDECIDED = map(np.int8, (KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED))


# The largest filter steps the boxes absorb, (C2) and (C3) of README "Sweep-engine internals".
_E_PLUS_MAX = 1.0 / np.cos(ESCAPE_MAX_ANGLE) ** 2 + 12.0 * np.tan(ESCAPE_MAX_ANGLE) / np.pi
_T_MINUS = float(np.arccos(-X_MINUS))
_E_MINUS_MAX = np.tan(_T_MINUS) / (np.pi / 2.0 - _T_MINUS) ** 2

# run_batch steps the active rows WINDOW times between two box tests and then
# tests the WINDOW states at once: one Regions.kinds call per window in place of
# one per step. 8 keeps the stacked states at 3 * 8 floats per trial.
WINDOW = 8


@dataclass(frozen=True)
class Regions:
    """The absorbing boxes of one teacher under one schedule.

    With s = 1^T a_star, (m, M) the teacher's alignment bounds and
    u = s 1^T d, a state (x, a_star^T a, u) lies in

      R+ (converged_global) when x >= cos(5pi/12), m <= a_star^T a <= M
         and -big_b <= u <= b_plus;
      R- (trapped_spurious) when x <= -0.2, -M <= a_star^T a <= 0
         and |u| <= b_minus.

    for_schedule proves both invariant under closed_step at each of the
    schedule's step sizes (README, "Sweep-engine internals"), or raises.
    """

    m: float
    big_m: float
    s: float
    b_plus: float
    big_b: float
    b_minus: float

    @classmethod
    def for_schedule(cls, teacher: TeacherSpec, schedule: WarmupSchedule) -> "Regions":
        """The boxes, after checking conditions C1-C5 at every pair of schedule.step_sizes().

        Raises ValueError when a pair fails one: the boxes are then not
        proven absorbing, and a trial in one is not decided.
        """
        n2, s, k = teacher.a_star_norm_sq, teacher.sum_a_star, teacher.k
        b_plus = (_G_PLUS - 1.0) * n2 - (np.pi - 1.0) * teacher.alignment_lower
        steps = [(eta_w, eta_a, eta_a / TWO_PI) for eta_w, eta_a in schedule.step_sizes()]
        # 1^T d' = rho 1^T d + ...; rho < 0 narrows the lower u face of R+
        rhos = [1.0 - c * (k + np.pi - 1.0) for _, _, c in steps]
        big_b = min([n2] + [b_plus / -rho for rho in rhos if rho < 0.0])
        box = cls(teacher.alignment_lower, teacher.alignment_upper, s,
                  b_plus, big_b, (1.0 - _G_MINUS) * n2)
        for (eta_w, eta_a, c), rho in zip(steps, rhos):
            failed = [name for name, holds in (
                ("C1", 1.0 - c * (np.pi - 1.0) >= 0.0),
                ("C2", eta_w * box.big_m / 2.0 <= _E_PLUS_MAX),
                ("C3", eta_w * box.big_m / TWO_PI <= _E_MINUS_MAX),
                ("C4", max(rho * big_b, -rho * b_plus) + c * s * s * (np.pi - _G_PLUS) <= big_b),
                ("C5", abs(rho) * box.b_minus + c * np.pi * s * s <= box.b_minus),
            ) if not holds]
            if failed:
                raise ValueError(
                    f"step sizes (eta_w, eta_a) = ({eta_w:g}, {eta_a:g}) fail "
                    f"{', '.join(failed)} at k={k}: the outcome boxes are not proven absorbing"
                )
        return box

    def kinds(self, x: np.ndarray, adot: np.ndarray, e1: np.ndarray) -> np.ndarray:
        """Per trial, KIND_CONVERGED in R+, KIND_TRAPPED in R-, else KIND_UNDECIDED.

        x is the filter cosine, adot = a_star^T a and e1 = 1^T d.
        """
        u = self.s * e1
        plus = ((x >= X_PLUS) & (adot >= self.m) & (adot <= self.big_m)
                & (u >= -self.big_b) & (u <= self.b_plus))
        minus = (x <= X_MINUS) & (adot >= -self.big_m) & (adot <= 0.0) & (np.abs(u) <= self.b_minus)
        # R+ and R- are disjoint (X_MINUS < X_PLUS): one int8 sum in place of a select
        return _UNDECIDED + (_CONVERGED - _UNDECIDED) * plus + (_TRAPPED - _UNDECIDED) * minus


@dataclass
class BatchResult:
    kinds: np.ndarray  # per trial, an optimizer.KIND_* code
    iters: np.ndarray  # the step at which the trial entered its region, or max_iters


def run_batch(
    v0: np.ndarray,
    a0: np.ndarray,
    teacher: TeacherSpec,
    schedule: WarmupSchedule,
    max_iters: int,
) -> BatchResult:
    """Run n independent trials of the normalized GD update until each enters R+ or R-.

    v0: (n, p) unit rows (the initial normalized filter directions);
    a0: (n, k) initial output weights. Every trial sees the same schedule.
    landscape.closed_rows reads and checks the starts; a max_iters outside
    [0, MAX_ITERS] or a schedule under whose step sizes the boxes are not
    proven absorbing (Regions.for_schedule) raises ValueError. A trial in
    neither box after max_iters steps is undecided.
    """
    if not 0 <= max_iters <= MAX_ITERS:
        raise ValueError(f"max_iters must be >= 0 and at most {MAX_ITERS}, got {max_iters}")
    x, e1, es, _ = closed_rows(np.atleast_2d(np.asarray(v0, dtype=float)),
                               np.atleast_2d(np.asarray(a0, dtype=float)), teacher)
    regions = Regions.for_schedule(teacher, schedule)
    nrm2 = teacher.a_star_norm_sq

    kinds = np.full(x.size, KIND_UNDECIDED, dtype=np.int8)
    iters = np.full(x.size, max_iters, dtype=np.int64)
    idx = np.arange(x.size)
    cols = np.arange(x.size)  # cols[:m] picks each active row's column of the window
    # block[:, j] holds the states (x, 1^T d, a_star^T d) at step t + j of the active rows
    block = np.empty((3, WINDOW, x.size))
    block[:, 0] = x, e1, es
    t = 0  # the step of the window's first state, the one not yet tested
    while True:
        w, m = min(WINDOW, max_iters - t + 1), idx.size  # the last window ends at max_iters
        states = block[:, :w, :m]
        for j in range(1, w):
            states[:, j] = closed_step(*states[:, j - 1], teacher, *schedule.rates(t + j - 1))[0]
        # each row's first state in a box, which a test at every step would find
        found = regions.kinds(states[0], states[2] + nrm2, states[1])
        first = (found != KIND_UNDECIDED).argmax(axis=0)  # 0 where no state is in a box
        kind = found[first, cols[:m]]
        hit = kind != KIND_UNDECIDED
        kinds[idx[hit]] = kind[hit]
        iters[idx[hit]] = t + first[hit]
        t += w
        keep = ~hit
        idx = idx[keep]
        if not idx.size or t > max_iters:
            break
        # the next window starts one step after this one's last state
        block[:, 0, :idx.size] = closed_step(
            *states[:, w - 1, keep], teacher, *schedule.rates(t - 1))[0]
    return BatchResult(kinds=kinds, iters=iters)
