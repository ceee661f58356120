"""Closed-form population loss, its gradients, critical points, and regions.

With z ~ N(0, I) per patch, squared-error population loss between the
teacher and the normalized student reduces to scalars of the state: the
angle phi between shortcut + w and v_star enters only through the ReLU
correlation kernel, and the output weights enter through inner products.
With d = a - a_star these are the closed coordinates (x, 1^T d, a_star^T d,
||d||^2), x = cos(phi), on which the optimizer runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .geometry import FLOATS, angle_between, relu_kernel, relu_kernel_at_cos
from .model import StudentState, TeacherSpec, check_shapes, require_manifold

TWO_PI = 2.0 * np.pi


def filter_angle(state: StudentState, teacher: TeacherSpec) -> float:
    """Angle between the student's normalized filter and v_star."""
    return angle_between(state.v, teacher.v_star)


def closed_coordinates(
    state: StudentState, teacher: TeacherSpec
) -> tuple[float, float, float, float]:
    """(x, 1^T d, a_star^T d, ||d||^2) of a state, x = cos(filter_angle) and d = a - a_star.

    Checks nothing; x is NaN when the state is.
    """
    return (filter_cos(state.v, teacher), *error_coordinates(state.a, teacher))


def filter_cos(v: np.ndarray, teacher: TeacherSpec) -> float:
    """x = cos of the angle between v = shortcut + w and v_star, as filter_angle computes it."""
    x = float(np.dot(v, teacher.v_star) / (np.linalg.norm(v) * np.linalg.norm(teacher.v_star)))
    return FLOATS.clip(x)


def error_coordinates(a: np.ndarray, teacher: TeacherSpec) -> tuple[float, float, float]:
    """(1^T d, a_star^T d, ||d||^2) with d = a - a_star (np.add.reduce(d) is d.sum())."""
    d = a - teacher.a_star
    return float(np.add.reduce(d)), float(d.dot(teacher.a_star)), float(d.dot(d))


def population_loss(state: StudentState, teacher: TeacherSpec) -> float:
    """Mean squared teacher-student gap over Gaussian inputs, in closed form.

    Validates the shapes and the manifold, then evaluates _loss at the
    state's closed coordinates.
    """
    check_shapes(state, teacher)
    require_manifold(state)
    return _loss(*closed_coordinates(state, teacher), teacher)


def grad_a(state: StudentState, teacher: TeacherSpec) -> np.ndarray:
    """Gradient of the population loss in the output weights.

    Equals (1/2pi) [(J + (pi-1) I) a - (J + (g(phi)-1) I) a_star] with
    J the all-ones matrix; both scalar terms multiply the identity.
    Validates the shapes and the manifold, then evaluates _grad_a.
    """
    check_shapes(state, teacher)
    require_manifold(state)
    a = state.a
    return _grad_a(a, float(a.sum()), relu_kernel(filter_angle(state, teacher)), teacher)


def grad_w(state: StudentState, teacher: TeacherSpec) -> np.ndarray:
    """Gradient of the population loss in the filter offset.

    Equals -(a^T a_star (pi-phi) / 2pi) (I - v v^T) v_star with
    v = shortcut + w; the output is tangent to the unit sphere at v.
    Validates the shapes and the manifold, then evaluates _grad_w.
    """
    check_shapes(state, teacher)
    require_manifold(state)
    v = state.v
    adot = float(state.a @ teacher.a_star)
    return _grad_w(v, float(v @ teacher.v_star), filter_angle(state, teacher), adot, teacher)


# The kernels below evaluate the closed forms on values the caller has
# already computed and validated: the closed coordinates (x, e1 = 1^T d,
# es = a_star^T d, dsq = ||d||^2), sa = 1^T a, adot = a^T a_star,
# v = shortcut + w and v_dot = v^T v_star. They check nothing.


def _loss(x: float, e1: float, es: float, dsq: float, teacher: TeacherSpec) -> float:
    """0.5 [(pi - 1) ||d||^2 / 2pi + (pi - g) a_star^T a / pi + (1^T d)^2 / 2pi]."""
    g = relu_kernel_at_cos(x)[1]
    return 0.5 * (
        (np.pi - 1.0) / TWO_PI * dsq
        + (np.pi - g) / np.pi * (es + teacher.a_star_norm_sq)
        + e1 * e1 / TWO_PI
    )


def _grad_a(a: np.ndarray, sa: float, g: float, teacher: TeacherSpec) -> np.ndarray:
    return (sa + (np.pi - 1.0) * a - teacher.sum_a_star - (g - 1.0) * teacher.a_star) / TWO_PI


def _grad_w(
    v: np.ndarray, v_dot: float, phi: float, adot: float, teacher: TeacherSpec
) -> np.ndarray:
    projected = teacher.v_star - v_dot * v
    return -(adot * (np.pi - phi) / TWO_PI) * projected


@dataclass(frozen=True)
class CriticalPair:
    """The two critical points of the constrained landscape.

    The global optimum is (w_star, a_star). At the spurious optimum the
    normalized filter points to -v_star and the output weights solve
    (J + (pi-1) I) a = (J - I) a_star.
    """

    global_w: np.ndarray
    global_a: np.ndarray
    spurious_w: np.ndarray
    spurious_a: np.ndarray


def spurious_coefficients(teacher: TeacherSpec) -> tuple[float, float]:
    """(p, q) with the spurious output weights p ones + q a_star.

    They solve (J + (pi-1) I) a = (J - I) a_star: p = pi s / ((pi - 1)(k + pi - 1))
    with s = 1^T a_star, and q = -1 / (pi - 1).
    """
    return (
        np.pi * teacher.sum_a_star / ((np.pi - 1.0) * (teacher.k + np.pi - 1.0)),
        -1.0 / (np.pi - 1.0),
    )


def spurious_output_weights(teacher: TeacherSpec) -> np.ndarray:
    """The output weights of the spurious optimum, p ones + q a_star."""
    p, q = spurious_coefficients(teacher)
    return p + q * teacher.a_star


def critical_points(teacher: TeacherSpec) -> CriticalPair:
    return CriticalPair(
        global_w=teacher.w_star.copy(),
        global_a=teacher.a_star.copy(),
        spurious_w=-teacher.shortcut - teacher.v_star,
        spurious_a=spurious_output_weights(teacher),
    )


# Largest filter angle admitted by the escape region and by the basin hypotheses.
ESCAPE_MAX_ANGLE = 5.0 * np.pi / 12.0


def sum_envelope(s: float) -> tuple[float, float]:
    """Bounds (-3 s^2, 0) on the running-sum drift s 1^T a - s^2 = s 1^T d, s = 1^T a_star."""
    return -3.0 * s * s, 0.0


class Region:
    """A dissipativity region. Each subclass defines, once, its membership
    contains(x, e1, es, dsq) at the closed coordinates (x, 1^T d, a_star^T d,
    ||d||^2) of closed_coordinates, reading a^T a_star as a_star^T d + N with
    N = ||a_star||^2; draw_filter_angle(rng), the sampler's law for the angle
    to v_star, drawn directly so that thin shells at the boundary are covered
    (only coverage matters for falsification); and the inequality
    <-grad, target - current> >= constant ||target - current||^2 - offset,
    on w (grad_w) when on_filter is set, on a (grad_a) otherwise.
    """

    teacher: TeacherSpec
    on_filter: ClassVar[bool] = False
    offset: ClassVar[float] = 0.0


@dataclass(frozen=True)
class EscapeRegion(Region):
    """States where the output-weight gradient is dissipative far from a_star.

    Membership: the output weights are weakly aligned (a^T a_star <= N/20) or
    far from a_star/2 (||a - a_star/2||^2 = ||d||^2 + a_star^T d + N/4 >= N),
    the running sum satisfies the envelope -3 s^2 <= s 1^T d <= 0, and the
    filter angle arccos x is at most 5pi/12 (drawn uniform on [0, 5pi/12]).
    Inequality: grad_a with constant 1/(10 pi).
    """

    teacher: TeacherSpec
    constant: ClassVar[float] = 1.0 / (10.0 * np.pi)

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        n = self.teacher.a_star_norm_sq
        lower, upper = sum_envelope(self.teacher.sum_a_star)
        return (
            (es + n <= n / 20.0 or dsq + es + n / 4.0 >= n)
            and lower <= self.teacher.sum_a_star * e1 <= upper
            and float(np.arccos(x)) <= ESCAPE_MAX_ANGLE
        )

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        return rng.uniform(0.0, ESCAPE_MAX_ANGLE)


@dataclass(frozen=True)
class FilterBasinRegion(Region):
    """States where the filter gradient makes progress toward w_star.

    Membership: a^T a_star >= min_alignment and the filter lies in the v_star
    half-space, v^T v_star >= 0, which is x >= 0 (angle drawn uniform on
    [0, pi/2]). Inequality: grad_w with constant min_alignment / 8.
    """

    teacher: TeacherSpec
    min_alignment: float
    on_filter: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.min_alignment <= 0:
            raise ValueError("min_alignment must be positive")

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        return es + self.teacher.a_star_norm_sq >= self.min_alignment and x >= 0.0

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        return rng.uniform(0.0, np.pi / 2.0)

    @property
    def constant(self) -> float:
        return self.min_alignment / 8.0


@dataclass(frozen=True)
class RefinementRegion(Region):
    """Near-convergence states with bounded alignment and accurate filter.

    Membership: a^T a_star in [min_alignment, max_alignment] and
    ||w - w_star||^2 = 2 - 2x <= filter_err_bound. For a state off the
    manifold by up to MANIFOLD_TOL the filter test reads ||v/||v|| - v_star||^2,
    with v = shortcut + w. cos(phi) is drawn uniform on
    [max(-1, 1 - filter_err_bound/2), 1]. Inequality: grad_a with constant
    (pi - 1)/(2 pi) and offset filter_err_bound / 5.
    """

    teacher: TeacherSpec
    min_alignment: float
    max_alignment: float
    filter_err_bound: float
    constant: ClassVar[float] = (np.pi - 1.0) / (2.0 * np.pi)

    def __post_init__(self) -> None:
        if self.min_alignment <= 0:
            raise ValueError("min_alignment must be positive")
        if self.max_alignment < self.min_alignment:
            raise ValueError("max_alignment must be >= min_alignment")
        if self.filter_err_bound <= 0:
            raise ValueError("filter_err_bound must be positive")

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        adot = es + self.teacher.a_star_norm_sq
        return (
            self.min_alignment <= adot <= self.max_alignment
            and 2.0 - 2.0 * x <= self.filter_err_bound
        )

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        cos_min = max(-1.0, 1.0 - self.filter_err_bound / 2.0)
        return float(np.arccos(rng.uniform(cos_min, 1.0)))

    @property
    def offset(self) -> float:
        return self.filter_err_bound / 5.0


def region_membership(state: StudentState, region: Region) -> bool:
    """The region's predicate (closed inequalities, no slack) at a state on the manifold."""
    teacher = region.teacher
    check_shapes(state, teacher)
    return state.on_manifold() and region.contains(*closed_coordinates(state, teacher))
