"""Normalized gradient descent on the population loss, with outcome classification.

One update is simultaneous: the filter moves against its gradient and is
renormalized onto the manifold, the output weights move against their
gradient evaluated at the same old iterate. run() iterates it on the closed
state (README, "Single-trajectory internals"): the update closes exactly on
the filter's plane pair (x, y), x = cos(phi), and, with d = a - a_star, on
1^T d, a_star^T d and ||d||^2; closed_step is that step, on floats and on
arrays. A run ends once it satisfies the global test or, when polled, the
spurious or basin test, and is otherwise classified at its iteration budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .landscape import (
    ARRAYS, FLOATS, TWO_PI, Backend, basin_bounds, closed_coordinates, closed_loss,
    relu_kernel_at_cos, spurious_coefficients,
)
from .model import StudentState, TeacherSpec, ball_points, keyed_rngs, unit_rows
from .schedules import ConstantSchedule, Schedule

# Outcome tests: squared parameter error at most GLOBAL_TOL is global; a filter angle
# within PHI_TOL of pi and output weights within A_REL_TOL max(1, ||a_bar||) of the
# spurious ones a_bar is spurious.
GLOBAL_TOL = 1e-6
PHI_TOL = 0.1
A_REL_TOL = 0.1
# run() polls the spurious test every SPURIOUS_CHECK_EVERY steps, and the basin test
# (with basin_success) from BASIN_CHECK_AFTER steps on.
SPURIOUS_CHECK_EVERY = 200
BASIN_CHECK_AFTER = 2000
# Iteration budgets: DEFAULT_MAX_ITERS is every entry point's default, and run(),
# run_batch and SweepConfig refuse more than MAX_ITERS. On a 2-vCPU host (Python 3.11,
# numpy 2.4) a run() step from the tabulated k=25 start takes about 4 us (5 us when it
# records every step) and a run_batch step of one undecided k=100 trial 25-35 us (40-48
# with a box test at every step), so a budget at the bound is under 1 minute of run()
# and 6 of one batch row. run() also refuses more than MAX_ROWS recorded rows
# (max_iters // record_stride): a row holds about 0.5 KB at peak, while its CSV text
# is formatted and encoded, and writes about 100 bytes of CSV and 70 of SVG, so up to
# about 0.5 GB and 170 MB.
DEFAULT_MAX_ITERS = 1_000_000
MAX_ITERS = 10 * DEFAULT_MAX_ITERS
MAX_ROWS = 1_000_000

# Outcome kinds; a kind's index is its KIND_* code, the form the batch engine stores.
KINDS = ("converged_global", "trapped_spurious", "undecided")
KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED = range(len(KINDS))


@dataclass(frozen=True)
class Outcome:
    kind: str  # one of KINDS
    iters: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"outcome kind must be one of {KINDS}, got {self.kind!r}")


@dataclass
class Trajectory:
    """Diagnostics recorded every record_stride iterations plus the final iterate."""

    t: np.ndarray
    phi: np.ndarray
    a_dot_astar: np.ndarray
    w_err_sq: np.ndarray
    a_err_sq: np.ndarray
    loss: np.ndarray
    sum_a: np.ndarray
    final_state: StudentState
    outcome: Outcome


def closed_step(x, e1, es, teacher: TeacherSpec, eta_w: float, eta_a: float,
                lib: Backend = ARRAYS, sin_sq=None):
    """One update of the closed state (x, 1^T d, a_star^T d), elementwise over trials.

    With g = (pi - phi) x + sin(phi) and e = (eta_w / 2pi) a_star^T a (pi - phi), the
    filter v = x v_star + y u becomes ((1 - e x) v + e v_star) / norm, with
    norm = sqrt(1 + e^2 y^2), and d becomes alpha d + beta 1 + gamma a_star,
    with c = eta_a / 2pi, alpha = 1 - c (pi - 1), beta = -c 1^T d and
    gamma = c (g - pi). Returns (x', 1^T d', a_star^T d') and these coefficients
    (e, norm, alpha, beta, gamma). lib is ARRAYS for numpy arrays, FLOATS for
    floats. sin_sq = y^2 defaults to 1 - x^2, which cannot resolve a filter
    within about 1e-8 of +-v_star, where x rounds to +-1; run() passes its y^2.
    """
    c = eta_a / TWO_PI
    n2, s = teacher.a_star_norm_sq, teacher.sum_a_star
    # g reads 1 - x^2 even when y is given: near x = +-1 the rounding of acos(x)
    # then cancels in g to first order, as it does in (pi - phi) cos(phi) + sin(phi).
    one_minus_x_sq = 1.0 - x * x
    pi_minus_phi, g = relu_kernel_at_cos(x, lib, one_minus_x_sq)
    e = (eta_w / TWO_PI) * (es + n2) * pi_minus_phi
    e_sin_sq = e * (one_minus_x_sq if sin_sq is None else sin_sq)
    norm = lib.sqrt(1.0 + e * e_sin_sq)
    alpha, beta, gamma = 1.0 - c * (np.pi - 1.0), -c * e1, c * (g - np.pi)
    rho = alpha - c * teacher.k  # 1^T d' = alpha 1^T d + beta k + gamma s = rho 1^T d + gamma s
    return (
        lib.clip((x + e_sin_sq) / norm),
        rho * e1 + gamma * s,
        alpha * es + beta * s + gamma * n2,
    ), (e, norm, alpha, beta, gamma)


def _combination_sq(alpha, beta, gamma, dsq, e1, es, teacher: TeacherSpec):
    """||alpha d + beta 1 + gamma a_star||^2 from ||d||^2, 1^T d and a_star^T d."""
    return (
        alpha * alpha * dsq + beta * beta * teacher.k + gamma * gamma * teacher.a_star_norm_sq
        + 2.0 * (alpha * beta * e1 + alpha * gamma * es + beta * gamma * teacher.sum_a_star)
    )


def _closed_kind(x: float, e1: float, es: float, dsq: float, teacher: TeacherSpec, *,
                 spurious: bool = True, basin: bool = False) -> str:
    """The outcome tests at closed coordinates; ||w - w_star||^2 = 2 - 2x on the manifold.

    The global test always; with spurious, the spurious test; with basin, the
    basin test: the angle and a_star^T a within landscape.basin_bounds.
    """
    if dsq + (2.0 - 2.0 * x) <= GLOBAL_TOL:
        return "converged_global"
    if spurious:
        # a - a_bar = d - p 1 + (1 - q) a_star, with a_bar = p 1 + q a_star
        p, q = spurious_coefficients(teacher)  # bar_sq below is ||a_bar||^2
        gap_sq = _combination_sq(1.0, -p, 1.0 - q, dsq, e1, es, teacher)
        bar_sq = _combination_sq(0.0, p, q, 0.0, 0.0, 0.0, teacher)
        if (
            math.acos(x) >= np.pi - PHI_TOL
            and gap_sq <= A_REL_TOL * A_REL_TOL * max(1.0, bar_sq)
        ):
            return "trapped_spurious"
    if basin and all(lower <= value <= upper for value, (lower, upper) in
                     zip((math.acos(x), es + teacher.a_star_norm_sq), basin_bounds(teacher))):
        return "converged_global"
    return "undecided"


# Output-weight laws: uniform in the radius |1^T a_star| / sqrt(k) ball, or i.i.d. N(0, 1/k).
INIT_LAWS = ("ball", "gaussian")


def draw_starts(
    teacher: TeacherSpec, seeds: Sequence[int], init_law: str, *, plain_filter: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Start rows (v0, a0) of the trials seeds[0], seeds[1], ..., each drawn on make_rng(seed, 0).

    The filter v0 starts at the shortcut (w = 0) or, with plain_filter, is
    drawn first, uniform on the unit sphere; the output weights a0 then
    follow init_law, one of INIT_LAWS. Seeds outside [0, 2^64) raise
    ValueError as in make_rng.

    Draws are per key: each trial fills its row of normals (p for the filter,
    then k for a0) with one call on its own stream, then draws the ball law's
    uniform. Arithmetic is per block: the filters are normalised, and a0
    scaled, once over all rows, in place. Each row keeps the bits it has
    alone (model.unit_rows, model.ball_points). v0 and a0 may be views of one
    (n, p + k) array.
    """
    if init_law not in INIT_LAWS:
        raise ValueError(f"unknown init law {init_law!r}; the laws are {list(INIT_LAWS)}")
    n, k, p = len(seeds), teacher.k, teacher.p
    radius = abs(teacher.sum_a_star) / math.sqrt(k)
    ball = init_law == "ball"
    origin = ball and radius == 0.0  # the zero-radius ball: a0 = 0, with nothing drawn for it
    filter_width = p if plain_filter else 0
    z = np.empty((n, filter_width + (0 if origin else k)))
    uniforms = ball and not origin
    u = np.empty(n)
    for row, rng in enumerate(keyed_rngs((seed, 0) for seed in seeds)):
        rng.standard_normal(out=z[row])
        if uniforms:
            u[row] = rng.random()
    v0 = unit_rows(z[:, :p]) if plain_filter else np.tile(teacher.shortcut, (n, 1))
    a0 = z[:, filter_width:]
    if origin:
        a0 = np.zeros((n, k))
    elif ball:
        ball_points(a0, u, radius)
    else:
        a0 /= math.sqrt(k)
    return v0, a0


def sample_init(teacher: TeacherSpec, seed: int) -> StudentState:
    """Zero filter offset; output weights uniform in the ball of radius |1^T a_star| / sqrt(k).

    Any draw satisfies |1^T a_0| <= |1^T a_star|, the base case of the
    running-sum envelope. A teacher with 1^T a_star = 0 gets a_0 = 0.
    """
    return StudentState(w=np.zeros(teacher.p), a=draw_starts(teacher, (seed,), "ball")[1][0])


def gaussian_init(teacher: TeacherSpec, seed: int) -> StudentState:
    """Zero filter offset; output weights i.i.d. N(0, 1/k).

    Matches common fan-in initialization scaling (component scale 1/sqrt(k),
    total norm about 1 for any k); this is the law the reference success-rate
    tables and the tabulated k=25 start vector are consistent with.
    """
    return StudentState(w=np.zeros(teacher.p), a=draw_starts(teacher, (seed,), "gaussian")[1][0])


def sample_cnn_init(
    teacher: TeacherSpec, seed: int, init_law: str = "gaussian"
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform unit-sphere filter plus output weights from the chosen law."""
    v0, a0 = draw_starts(teacher, (seed,), init_law, plain_filter=True)
    return v0[0], a0[0]


def run(
    init: StudentState,
    teacher: TeacherSpec,
    schedule: Schedule,
    max_iters: int = DEFAULT_MAX_ITERS,
    record_stride: int = 1,
    *,
    stop_on_spurious: bool = False,
    basin_success: bool = False,
) -> Trajectory:
    """Iterate the normalized GD update from init, recording diagnostics every record_stride steps.

    Stops early as converged_global once the squared parameter error falls
    below GLOBAL_TOL. With stop_on_spurious, the spurious test (and, when
    basin_success is set, the basin test from BASIN_CHECK_AFTER steps on) is
    also polled every SPURIOUS_CHECK_EVERY iterations and ends the run early;
    otherwise the run is classified only at max_iters. A step whose state is
    not finite (a diverging step size) ends the run as undecided at the
    last finite iterate. A max_iters above MAX_ITERS, or one that would
    record more than MAX_ROWS rows, raises ValueError before any step.

    The start is read once, through closed_coordinates, which validates
    it. The loop then steps the closed state (x, y, 1^T d, a_star^T d,
    ||d||^2) on floats, where the filter is x v_star + y u with u the unit
    part of the initial filter orthogonal to v_star, and accumulates
    d_T = A d_0 + P 1 + Q a_star. The outcome tests read the closed state,
    and each recorded step appends it to five lists; final_state is rebuilt
    from it, and the last row is read from final_state. The Trajectory
    columns are evaluated once, on those lists, after the loop.
    """
    x, e1, es, dsq = closed_coordinates(init, teacher)
    if max_iters < 1 or record_stride < 1:
        raise ValueError("max_iters and record_stride must be positive")
    if max_iters > MAX_ITERS:
        raise ValueError(f"max_iters must be at most {MAX_ITERS}, got {max_iters}")
    if max_iters // record_stride > MAX_ROWS:
        raise ValueError(
            f"max_iters // record_stride must be at most {MAX_ROWS} recorded rows, "
            f"got {max_iters // record_stride}"
        )
    v_star = teacher.v_star
    u = init.v / np.linalg.norm(init.v) - x * v_star
    u -= float(u @ v_star) * v_star
    y = float(np.linalg.norm(u))  # 0 to rounding when v_0 = +-v_star: no plane
    if y > 0.0:
        u /= y
    big_a, big_p, big_q = 1.0, 0.0, 0.0

    # the recorded closed states (t, x, 1^T d, a_star^T d, ||d||^2), one list each
    cols = ts, xs, e1s, ess, dsqs = ([0], [x], [e1], [es], [dsq])
    t = 0
    kind = _closed_kind(x, e1, es, dsq, teacher, spurious=stop_on_spurious)
    while kind == "undecided" and t < max_iters:
        (x1, e1_1, es_1), (e, norm, alpha, beta, gamma) = closed_step(
            x, e1, es, teacher, *schedule.rates(t), lib=FLOATS, sin_sq=y * y
        )
        dsq_1 = _combination_sq(alpha, beta, gamma, dsq, e1, es, teacher)
        y_1 = (1.0 - e * x) * y / norm
        if not math.isfinite(norm + x1 + y_1 + e1_1 + es_1 + dsq_1):
            break  # overflow: with norm = inf, x and y would read 0 and leave the circle
        x, e1, es, dsq, y = x1, e1_1, es_1, dsq_1, y_1
        big_a, big_p, big_q = alpha * big_a, alpha * big_p + beta, alpha * big_q + gamma
        t += 1
        if t % record_stride == 0:
            ts.append(t)
            xs.append(x)
            e1s.append(e1)
            ess.append(es)
            dsqs.append(dsq)
        poll = stop_on_spurious and t % SPURIOUS_CHECK_EVERY == 0
        kind = _closed_kind(x, e1, es, dsq, teacher, spurious=poll,
                            basin=poll and basin_success and t >= BASIN_CHECK_AFTER)

    iters = t
    if kind == "undecided" and t == max_iters:
        kind = _closed_kind(x, e1, es, dsq, teacher, basin=basin_success)
    if t == 0:
        final_state = init
    else:
        d0 = init.a - teacher.a_star
        final_state = StudentState(
            w=x * v_star + y * u - teacher.shortcut,
            a=teacher.a_star + (big_a * d0 + big_p + big_q * teacher.a_star),
        )
    if ts[-1] == t:
        for col in cols:
            col.pop()
    for col, value in zip(cols, (t, *closed_coordinates(final_state, teacher))):
        col.append(value)
    return Trajectory(*_recorded_columns(*cols, teacher), final_state, Outcome(kind, iters))


def _recorded_columns(ts: list, xs: list, e1s: list, ess: list, dsqs: list,
                      teacher: TeacherSpec) -> tuple:
    """The columns (t, phi, a_star^T a, ||w - w_star||^2, ||a - a_star||^2, loss, 1^T a).

    phi is math.acos of each x, not np.arccos, which can differ from it in
    the last bit; the other columns are elementwise IEEE arithmetic, so each
    entry has the bits the same formula gives on floats. A diverging run's
    loss may overflow to inf or nan, which float arithmetic gives silently.
    """
    x, e1, es, dsq = map(np.array, (xs, e1s, ess, dsqs))
    phi = np.array(list(map(math.acos, xs)))
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.array(ts, dtype=np.int64), phi, es + teacher.a_star_norm_sq, 2.0 - 2.0 * x,
                dsq, closed_loss(x, e1, es, dsq, teacher, ARRAYS, phi), e1 + teacher.sum_a_star)


def cnn_run(
    init_v: np.ndarray,
    init_a: np.ndarray,
    teacher: TeacherSpec,
    eta: float = 0.1,
    max_iters: int = DEFAULT_MAX_ITERS,
    record_stride: int = 1,
    *,
    stop_on_spurious: bool = True,
    basin_success: bool = True,
) -> Trajectory:
    """Plain-filter baseline: the same normalized update applied to v directly.

    Substituting v = shortcut + w gives identical update mathematics, so this
    delegates to run() with w = init_v - shortcut; trajectory w-quantities
    then read as v-quantities (w_err_sq is ||v - v_star||^2, and the spurious
    filter direction is -v_star). basin_success defaults on because the
    baseline step size eta = 0.1 exceeds 4 / ||a_star||^2 for larger k, where
    the iterate orbits the global optimum instead of entering the GLOBAL_TOL
    ball. run() reads the start through closed_coordinates, so an init_v off
    the unit sphere raises OffManifoldError.
    """
    init = StudentState(w=np.asarray(init_v, float) - teacher.shortcut, a=init_a)
    return run(
        init,
        teacher,
        ConstantSchedule(eta_a=eta, eta_w=eta),
        max_iters=max_iters,
        record_stride=record_stride,
        stop_on_spurious=stop_on_spurious,
        basin_success=basin_success,
    )
