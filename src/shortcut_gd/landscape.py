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
from typing import Union

import numpy as np

from .geometry import FLOATS, angle_between, relu_kernel, relu_kernel_at_cos
from .model import MANIFOLD_TOL, StudentState, TeacherSpec, check_shapes, require_manifold

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
    v = state.v
    x = float(np.dot(v, teacher.v_star) / (np.linalg.norm(v) * np.linalg.norm(teacher.v_star)))
    d = state.a - teacher.a_star
    return FLOATS.clip(x), float(d.sum()), float(d @ teacher.a_star), float(d @ d)


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


@dataclass(frozen=True)
class EscapeRegion:
    """States where the output-weight gradient is dissipative far from a_star.

    Membership: the output weights are weakly aligned (a^T a_star small) or
    far from a_star/2, the filter angle is at most 5pi/12, and the running
    sum satisfies the envelope -3 s^2 <= s 1^T a - s^2 <= 0 with s = 1^T a_star.
    """

    teacher: TeacherSpec


@dataclass(frozen=True)
class FilterBasinRegion:
    """States where the filter gradient makes progress toward w_star.

    Membership: a^T a_star >= min_alignment and the filter direction lies in
    the v_star half-space.
    """

    teacher: TeacherSpec
    min_alignment: float

    def __post_init__(self) -> None:
        if self.min_alignment <= 0:
            raise ValueError("min_alignment must be positive")


@dataclass(frozen=True)
class RefinementRegion:
    """Near-convergence states with bounded alignment and accurate filter.

    Membership: a^T a_star in [min_alignment, max_alignment] and
    ||w - w_star||^2 <= filter_err_bound.
    """

    teacher: TeacherSpec
    min_alignment: float
    max_alignment: float
    filter_err_bound: float

    def __post_init__(self) -> None:
        if self.min_alignment <= 0:
            raise ValueError("min_alignment must be positive")
        if self.max_alignment < self.min_alignment:
            raise ValueError("max_alignment must be >= min_alignment")
        if self.filter_err_bound <= 0:
            raise ValueError("filter_err_bound must be positive")


Region = Union[EscapeRegion, FilterBasinRegion, RefinementRegion]

# Largest filter angle admitted by the escape region.
ESCAPE_MAX_ANGLE = 5.0 * np.pi / 12.0


def region_membership(state: StudentState, region: Region, *, tol: float = MANIFOLD_TOL) -> bool:
    """Evaluate the region's defining predicates (closed inequalities, no slack)."""
    teacher = region.teacher
    check_shapes(state, teacher)
    if not state.on_manifold(tol):
        return False
    a, a_star = state.a, teacher.a_star
    adot = float(a @ a_star)
    if isinstance(region, EscapeRegion):
        s = teacher.sum_a_star
        norm_sq = teacher.a_star_norm_sq
        far = adot <= norm_sq / 20.0 or float(np.sum((a - a_star / 2.0) ** 2)) >= norm_sq
        envelope = -3.0 * s * s <= s * float(a.sum()) - s * s <= 0.0
        return far and envelope and filter_angle(state, teacher) <= ESCAPE_MAX_ANGLE
    if isinstance(region, FilterBasinRegion):
        half_space = float(state.v @ teacher.v_star) >= 0.0
        return adot >= region.min_alignment and half_space
    if isinstance(region, RefinementRegion):
        w_err = float(np.sum((state.w - teacher.w_star) ** 2))
        return (
            region.min_alignment <= adot <= region.max_alignment
            and w_err <= region.filter_err_bound
        )
    raise TypeError(f"unknown region type {type(region)!r}")
