"""Normalized gradient descent on the population loss, with outcome classification.

One run iterates the simultaneous update: the filter moves against its
gradient and is renormalized onto the manifold, the output weights move
against their gradient evaluated at the same old iterate. Runs terminate
early once the squared parameter error drops below the global tolerance,
and are otherwise classified at the iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDirectionError
from .geometry import angle_from_dot, relu_kernel, renormalize_shortcut, shortcut_direction
from .landscape import (
    ESCAPE_MAX_ANGLE, _grad_a, _grad_w, _loss, filter_angle, spurious_output_weights,
)
from .model import (
    StudentState, TeacherSpec, check_shapes, make_rng, require_manifold, require_unit_norm,
)
from .schedules import ConstantSchedule, Schedule


@dataclass(frozen=True)
class Thresholds:
    """Classification tolerances.

    global_tol   squared parameter error below which the run has converged
    phi_tol      angular distance from pi for the spurious filter test
    w_err_tol    tolerance on | ||w - w_star||^2 - 4 | at the spurious point
    a_rel_tol    relative tolerance on ||a - a_bar|| at the spurious point
    """

    global_tol: float = 1e-6
    phi_tol: float = 0.1
    w_err_tol: float = 0.2
    a_rel_tol: float = 0.1


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
    record_stride: int
    final_state: StudentState
    outcome: Outcome


class _Iterate(NamedTuple):
    """An iterate (w, a) on plain arrays with the values its uses share.

    v_norm is checked against MANIFOLD_TOL only where a closed form reads
    the iterate, as the validating public closed forms would check it.
    """

    w: np.ndarray
    a: np.ndarray
    v: np.ndarray  # shortcut + w
    v_norm: float  # ||v||
    v_dot: float  # v^T v_star
    phi: float  # angle between v and v_star
    g: float  # relu_kernel(phi)
    adot: float  # a^T a_star
    sa: float  # 1^T a


def _iterate(
    w: np.ndarray, a: np.ndarray, teacher: TeacherSpec, shortcut: np.ndarray, v_star_norm: float
) -> _Iterate:
    v = shortcut + w
    v_norm = np.linalg.norm(v)
    v_dot = float(v @ teacher.v_star)
    phi = angle_from_dot(v_dot, v_norm, v_star_norm)
    return _Iterate(
        w, a, v, float(v_norm), v_dot, phi, relu_kernel(phi),
        float(a @ teacher.a_star), float(a.sum()),
    )


def _step(
    it: _Iterate, teacher: TeacherSpec, eta_w: float, eta_a: float
) -> tuple[np.ndarray, np.ndarray]:
    """The simultaneous update of (w, a); both gradients are taken at it."""
    if eta_w <= 0 or eta_a <= 0:
        raise ValueError("step sizes must be positive")
    require_unit_norm(it.v_norm)
    gw = _grad_w(it.v, it.v_dot, it.phi, it.adot, teacher)
    ga = _grad_a(it.a, it.sa, it.g, teacher)
    return renormalize_shortcut(it.w - eta_w * gw), it.a - eta_a * ga


def gd_step(
    state: StudentState, teacher: TeacherSpec, eta_w: float, eta_a: float
) -> StudentState:
    """One simultaneous update; both gradients are taken at the old iterate.

    Validates the shapes, the step sizes and the manifold, then applies the
    same private step that run() loops over.
    """
    check_shapes(state, teacher)
    it = _iterate(state.w, state.a, teacher, teacher.shortcut, np.linalg.norm(teacher.v_star))
    w_next, a_next = _step(it, teacher, eta_w, eta_a)
    return StudentState(w=w_next, a=a_next)


# Output-weight laws: i.i.d. N(0, 1/k), or uniform in the radius |1^T a_star| / sqrt(k) ball.
INIT_LAWS = ("gaussian", "ball")


def sample_init(teacher: TeacherSpec, seed: int) -> StudentState:
    """Zero filter offset; output weights uniform in the ball of radius |1^T a_star| / sqrt(k).

    Any draw satisfies |1^T a_0| <= |1^T a_star|, the base case of the
    running-sum envelope. A teacher with 1^T a_star = 0 gets a_0 = 0.
    """
    rng = make_rng(seed, 0)
    radius = abs(teacher.sum_a_star) / np.sqrt(teacher.k)
    a0 = _ball_draw(rng, teacher.k, radius)
    return StudentState(w=np.zeros(teacher.p), a=a0)


def gaussian_init(teacher: TeacherSpec, seed: int) -> StudentState:
    """Zero filter offset; output weights i.i.d. N(0, 1/k).

    Matches common fan-in initialization scaling (component scale 1/sqrt(k),
    total norm about 1 for any k); this is the law the reference success-rate
    tables and the tabulated k=25 start vector are consistent with.
    """
    rng = make_rng(seed, 0)
    a0 = rng.standard_normal(teacher.k) / np.sqrt(teacher.k)
    return StudentState(w=np.zeros(teacher.p), a=a0)


def sample_cnn_init(
    teacher: TeacherSpec, seed: int, init_law: str = "gaussian"
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform unit-sphere filter plus output weights from the chosen law."""
    if init_law not in INIT_LAWS:
        raise ValueError(f"unknown init law {init_law!r}")
    rng = make_rng(seed, 0)
    z = rng.standard_normal(teacher.p)
    v0 = z / np.linalg.norm(z)
    if init_law == "gaussian":
        a0 = rng.standard_normal(teacher.k) / np.sqrt(teacher.k)
    else:
        a0 = _ball_draw(rng, teacher.k, abs(teacher.sum_a_star) / np.sqrt(teacher.k))
    return v0, a0


def _ball_draw(rng: np.random.Generator, k: int, radius: float) -> np.ndarray:
    if radius == 0.0:
        return np.zeros(k)
    z = rng.standard_normal(k)
    direction = z / np.linalg.norm(z)
    r = radius * rng.random() ** (1.0 / k)
    return r * direction


def classify_outcome(
    state: StudentState,
    teacher: TeacherSpec,
    thresholds: Thresholds = Thresholds(),
    *,
    iters: int = 0,
    basin_success: bool = False,
) -> Outcome:
    """Classify a final iterate.

    Global: squared parameter error within global_tol. Spurious: filter angle
    within phi_tol of pi, ||w - w_star||^2 within w_err_tol of 4, and output
    weights within the relative tolerance of the spurious solution. With
    basin_success, an iterate locked in the attraction basin of the global
    optimum (angle <= 5pi/12 and alignment above the teacher's lower bound)
    also counts as global; use this for step sizes too large to enter the
    global_tol ball (roughly eta > 4 / ||a_star||^2).
    """
    check_shapes(state, teacher)
    err = float(np.sum((state.a - teacher.a_star) ** 2)) + float(
        np.sum((state.w - teacher.w_star) ** 2)
    )
    if err <= thresholds.global_tol:
        return Outcome("converged_global", iters)
    phi = filter_angle(state, teacher)
    w_err = float(np.sum((state.w - teacher.w_star) ** 2))
    a_bar = spurious_output_weights(teacher)
    a_tol = thresholds.a_rel_tol * max(1.0, float(np.linalg.norm(a_bar)))
    if (
        phi >= np.pi - thresholds.phi_tol
        and abs(w_err - 4.0) <= thresholds.w_err_tol
        and float(np.linalg.norm(state.a - a_bar)) <= a_tol
    ):
        return Outcome("trapped_spurious", iters)
    if basin_success:
        adot = float(state.a @ teacher.a_star)
        if phi <= ESCAPE_MAX_ANGLE and adot >= teacher.alignment_lower:
            return Outcome("converged_global", iters)
    return Outcome("undecided", iters)


def run(
    init: StudentState,
    teacher: TeacherSpec,
    schedule: Schedule,
    max_iters: int = 1_000_000,
    record_stride: int = 1,
    thresholds: Thresholds = Thresholds(),
    *,
    stop_on_spurious: bool = False,
    spurious_check_every: int = 200,
    basin_success: bool = False,
    basin_check_after: int = 2000,
) -> Trajectory:
    """Iterate the gd_step update from init, recording diagnostics every record_stride steps.

    Stops early as converged_global once the squared parameter error falls
    below thresholds.global_tol. With stop_on_spurious, the spurious (and,
    when basin_success is set, basin-locked after basin_check_after steps)
    classification is also polled every spurious_check_every iterations and
    ends the run early; otherwise the run is classified only at max_iters. A
    degenerate normalization ends the run as undecided with the trajectory
    recorded so far.

    The inputs are validated once, here. The loop then steps on plain
    arrays: each iterate computes shortcut + w, its norm and the filter
    angle once, and those values feed both gradients, the recorded row and
    the convergence test. The norm is still compared with the manifold
    tolerance wherever a closed form reads the iterate, so an off-manifold
    iterate raises OffManifoldError as gd_step would. The result is bit for
    bit what looping gd_step and the public closed forms gives.
    """
    check_shapes(init, teacher)
    require_manifold(init)
    if max_iters < 1 or record_stride < 1:
        raise ValueError("max_iters and record_stride must be positive")
    shortcut = teacher.shortcut
    v_star_norm = np.linalg.norm(teacher.v_star)

    records: list[tuple] = []

    def record(t: int, it: _Iterate, sq_err: tuple[float, float]) -> None:
        require_unit_norm(it.v_norm)
        a_err, w_err = sq_err
        loss = _loss(it.g, it.sa, it.adot, float(it.a @ it.a), teacher)
        records.append((t, it.phi, it.adot, w_err, a_err, loss, it.sa))

    def squared_errors(it: _Iterate) -> tuple[float, float]:
        return (
            float(np.sum((it.a - teacher.a_star) ** 2)),
            float(np.sum((it.w - teacher.w_star) ** 2)),
        )

    it = _iterate(init.w, init.a, teacher, shortcut, v_star_norm)
    sq_err = squared_errors(it)
    record(0, it, sq_err)
    outcome: Outcome | None = None

    if sq_err[0] + sq_err[1] <= thresholds.global_tol:
        outcome = Outcome("converged_global", 0)
    elif stop_on_spurious:
        probe = classify_outcome(init, teacher, thresholds, iters=0, basin_success=False)
        if probe.kind != "undecided":
            outcome = probe

    t = 0
    while outcome is None and t < max_iters:
        eta_w, eta_a = schedule.rates(t)
        try:
            w, a = _step(it, teacher, eta_w, eta_a)
        except DegenerateDirectionError:
            outcome = Outcome("undecided", t)
            break
        it = _iterate(w, a, teacher, shortcut, v_star_norm)
        sq_err = squared_errors(it)
        t += 1
        if t % record_stride == 0:
            record(t, it, sq_err)
        if sq_err[0] + sq_err[1] <= thresholds.global_tol:
            outcome = Outcome("converged_global", t)
            break
        if stop_on_spurious and t % spurious_check_every == 0:
            probe = classify_outcome(
                StudentState(w=w, a=a), teacher, thresholds, iters=t,
                basin_success=basin_success and t >= basin_check_after,
            )
            if probe.kind != "undecided":
                outcome = probe
                break

    final_state = init if t == 0 else StudentState(w=it.w, a=it.a)
    if outcome is None:
        outcome = classify_outcome(
            final_state, teacher, thresholds, iters=max_iters, basin_success=basin_success
        )
    if records[-1][0] != t:
        record(t, it, sq_err)

    cols = list(zip(*records))
    return Trajectory(
        t=np.array(cols[0], dtype=np.int64),
        phi=np.array(cols[1]),
        a_dot_astar=np.array(cols[2]),
        w_err_sq=np.array(cols[3]),
        a_err_sq=np.array(cols[4]),
        loss=np.array(cols[5]),
        sum_a=np.array(cols[6]),
        record_stride=record_stride,
        final_state=final_state,
        outcome=outcome,
    )


def cnn_run(
    init_v: np.ndarray,
    init_a: np.ndarray,
    teacher: TeacherSpec,
    eta: float = 0.1,
    max_iters: int = 1_000_000,
    record_stride: int = 1,
    thresholds: Thresholds = Thresholds(),
    *,
    stop_on_spurious: bool = True,
    spurious_check_every: int = 200,
    basin_success: bool = True,
) -> Trajectory:
    """Plain-filter baseline: the same normalized update applied to v directly.

    Substituting v = shortcut + w gives identical update mathematics, so this
    delegates to run() with w = init_v - shortcut; trajectory w-quantities
    then read as v-quantities (w_err_sq is ||v - v_star||^2, and the spurious
    filter direction is -v_star). basin_success defaults on because the
    baseline step size eta = 0.1 exceeds 4 / ||a_star||^2 for larger k, where
    the iterate orbits the global optimum instead of entering the global_tol
    ball.
    """
    init_v = np.asarray(init_v, dtype=float)
    if abs(np.linalg.norm(init_v) - 1.0) > 1e-9:
        raise ValueError("init_v must be unit norm")
    init = StudentState(w=init_v - shortcut_direction(teacher.p), a=np.asarray(init_a, float))
    return run(
        init,
        teacher,
        ConstantSchedule(eta_a=eta, eta_w=eta),
        max_iters=max_iters,
        record_stride=record_stride,
        thresholds=thresholds,
        stop_on_spurious=stop_on_spurious,
        spurious_check_every=spurious_check_every,
        basin_success=basin_success,
    )
