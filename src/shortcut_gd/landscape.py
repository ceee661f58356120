"""Closed-form population loss, its gradients, critical points, and regions.

With z ~ N(0, I) per patch, squared-error population loss between the
teacher and the normalized student reduces to scalars of the state: the
angle phi between shortcut + w and v_star enters only through the ReLU
correlation kernel, and the output weights enter through inner products.
With d = a - a_star these are the closed coordinates (x, 1^T d, a_star^T d,
||d||^2), x = cos(phi). closed_rows is their one checked reader, for n rows
and, through closed_coordinates, for the state every public function reads;
the kernel, defined here, is read through relu_kernel_at_cos at x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .model import MANIFOLD_TOL, StudentState, TeacherSpec, row_dots

TWO_PI = 2.0 * np.pi


class Backend(NamedTuple):
    """The operations of the closed-state formulas that are not arithmetic.

    ARRAYS applies them elementwise to numpy arrays, FLOATS to one Python
    float (several times faster there). clip maps onto [-1, 1] and keeps NaN.
    """

    acos: Callable
    sqrt: Callable
    clip: Callable


# Written with comparisons, which are false for NaN: max(-1.0, nan) would return -1.0.
FLOATS = Backend(math.acos, math.sqrt, lambda c: -1.0 if c < -1.0 else (1.0 if c > 1.0 else c))
ARRAYS = Backend(np.arccos, np.sqrt, lambda c: np.minimum(np.maximum(c, -1.0), 1.0))


def relu_kernel_at_cos(x, lib: Backend = FLOATS, sin_sq=None, phi=None):
    """(pi - phi, g) at x = cos(phi), on floats or, with ARRAYS, arrays.

    g = (pi - phi) cos(phi) + sin(phi) is the correlation kernel of ReLU pairs
    at angle phi, strictly decreasing from pi at phi = 0 to 0 at phi = pi.
    sin_sq = sin(phi)^2 defaults to 1 - x^2, and phi to lib.acos(x).
    """
    pi_minus_phi = np.pi - (lib.acos(x) if phi is None else phi)
    return pi_minus_phi, pi_minus_phi * x + lib.sqrt(1.0 - x * x if sin_sq is None else sin_sq)


class OffManifoldError(ValueError):
    """A student state violates the unit-norm constraint on shortcut + filter."""


def closed_rows(v: np.ndarray, a: np.ndarray, teacher: TeacherSpec) -> tuple[np.ndarray, ...]:
    """(x, 1^T d, a_star^T d, ||d||^2) per row of filters v = shortcut + w, (n, p), and
    output weights a, (n, k), x = cos(phi) and d = a - a_star: the one checked reader
    of states. ValueError when the shapes do not match the teacher's, OffManifoldError
    off the manifold (filter_rows), then ValueError when an output weight is not
    finite. A row reads the same bits alone or among any other rows."""
    if v.shape != (len(v), teacher.p) or a.shape != (len(v), teacher.k):
        raise ValueError(f"rows of shapes {v.shape} and {a.shape} do not match the "
                         f"teacher's (n, {teacher.p}) and (n, {teacher.k})")
    x = filter_rows(v, teacher)
    if not np.isfinite(a).all():
        raise ValueError("output weights are not all finite")
    return (x, *error_rows(a, teacher))


def filter_rows(v: np.ndarray, teacher: TeacherSpec) -> np.ndarray:
    """x = v . v_star / (||v|| ||v_star||) in [-1, 1] per row of v = shortcut + w, (..., p).
    Each row's norm, np.linalg.norm's bits, also serves the manifold test: OffManifoldError
    when a row is not unit norm within MANIFOLD_TOL (or is NaN)."""
    norms = np.sqrt(row_dots(v, v))
    err = float(np.abs(norms - 1.0).max(initial=0.0))
    if not err <= MANIFOLD_TOL:  # also NaN
        raise OffManifoldError(f"||shortcut + w|| deviates from 1 by {err:.3e} "
                               f"(tol {MANIFOLD_TOL:.1e})")
    return ARRAYS.clip(row_dots(v, teacher.v_star) / (norms * np.linalg.norm(teacher.v_star)))


def error_rows(a: np.ndarray, teacher: TeacherSpec) -> tuple[np.ndarray, ...]:
    """(1^T d, a_star^T d, ||d||^2) per row of a, (..., k), d = a - a_star; checks nothing."""
    d = a - teacher.a_star
    return d.sum(axis=-1), row_dots(d, teacher.a_star), row_dots(d, d)


def closed_coordinates(state: StudentState, teacher: TeacherSpec) -> tuple[float, ...]:
    """closed_rows of a state's one row, as floats; ValueError when one overflows."""
    coords = tuple(float(c[0]) for c in closed_rows(state.v[None], state.a[None], teacher))
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"closed coordinates {coords} are not all finite")
    return coords


def population_loss(state: StudentState, teacher: TeacherSpec) -> float:
    """Mean squared teacher-student gap over Gaussian inputs: closed_loss at the closed
    coordinates."""
    return closed_loss(*closed_coordinates(state, teacher), teacher)


def grad_a(state: StudentState, teacher: TeacherSpec) -> np.ndarray:
    """Gradient of the population loss in the output weights.

    Equals ((1^T d) 1 + (pi - 1) d + (pi - g) a_star) / 2pi with d = a - a_star
    and g = (pi - phi) cos(phi) + sin(phi), the ReLU kernel.
    """
    x, e1, _, _ = closed_coordinates(state, teacher)
    g = relu_kernel_at_cos(x)[1]
    return (e1 + (np.pi - 1.0) * (state.a - teacher.a_star)
            + (np.pi - g) * teacher.a_star) / TWO_PI


def grad_w(state: StudentState, teacher: TeacherSpec) -> np.ndarray:
    """Gradient of the population loss in the filter offset.

    Equals -((a_star^T d + ||a_star||^2) (pi - phi) / 2pi) (v_star - (v . v_star) v)
    with v = shortcut + w; the projection is taken on the vectors, so the
    output is tangent to the unit sphere at v.
    """
    x, _, es, _ = closed_coordinates(state, teacher)
    v = state.v
    projected = teacher.v_star - float(v @ teacher.v_star) * v
    adot = es + teacher.a_star_norm_sq
    return -(adot * relu_kernel_at_cos(x)[0] / TWO_PI) * projected


# The functions below evaluate closed forms at closed coordinates (x, e1 = 1^T d,
# es = a_star^T d, dsq = ||d||^2) that the caller has already read. They check nothing.


def closed_loss(x: float, e1: float, es: float, dsq: float, teacher: TeacherSpec,
                lib: Backend = FLOATS, phi=None) -> float:
    """0.5 [(pi - 1) ||d||^2 / 2pi + (pi - g) a_star^T a / pi + (1^T d)^2 / 2pi].

    On floats or, with ARRAYS, arrays; phi = acos(x), as relu_kernel_at_cos reads it.
    """
    g = relu_kernel_at_cos(x, lib, phi=phi)[1]
    return 0.5 * (
        (np.pi - 1.0) / TWO_PI * dsq
        + (np.pi - g) / np.pi * (es + teacher.a_star_norm_sq)
        + e1 * e1 / TWO_PI
    )


# The regions' inequalities rest on two identities at the closed coordinates:
#   <-grad_a, a_star - a> = ((1^T d)^2 + (pi - 1) ||d||^2 + (pi - g) a_star^T d) / 2pi,
#     from grad_a's form, since ||a_star - a||^2 = ||d||^2;
#   <-grad_w, w_star - w> = a_star^T a (pi - phi) (1 - x^2) / 2pi,
#     since (v_star - x v) . (v_star - v) = 1 - x^2 for v = shortcut + w and v_star unit,
#     and ||w_star - w||^2 = ||v_star - v||^2 = 2 - 2x.


def _descent_a(x: float, e1: float, es: float, dsq: float) -> float:
    """<-grad_a, a_star - a> at the closed coordinates."""
    g = relu_kernel_at_cos(x)[1]
    return (e1 * e1 + (np.pi - 1.0) * dsq + (np.pi - g) * es) / TWO_PI


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


def critical_points(teacher: TeacherSpec) -> CriticalPair:
    p, q = spurious_coefficients(teacher)
    return CriticalPair(
        global_w=teacher.w_star.copy(),
        global_a=teacher.a_star.copy(),
        spurious_w=-teacher.shortcut - teacher.v_star,
        spurious_a=p + q * teacher.a_star,
    )


# Largest filter angle admitted by the escape region and by the basin hypotheses.
ESCAPE_MAX_ANGLE = 5.0 * np.pi / 12.0


def sum_envelope(s: float) -> tuple[float, float]:
    """Bounds (-3 s^2, 0) on the running-sum drift s 1^T a - s^2 = s 1^T d, s = 1^T a_star."""
    return -3.0 * s * s, 0.0


def basin_bounds(teacher: TeacherSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """The basin hypotheses of the convergence analysis as (lower, upper) bounds on the
    filter angle phi and on a^T a_star: phi <= 5pi/12 and
    alignment_lower <= a^T a_star <= alignment_upper."""
    return (-np.inf, ESCAPE_MAX_ANGLE), (teacher.alignment_lower, teacher.alignment_upper)


class Region:
    """A dissipativity region. Each subclass defines, once, at the closed
    coordinates (x, 1^T d, a_star^T d, ||d||^2) of closed_coordinates, reading
    a^T a_star as a_star^T d + N with N = ||a_star||^2: its membership
    contains(x, e1, es, dsq); draw_filter_angle(rng), the sampler's law for the
    angle to v_star, drawn directly so that thin shells at the boundary are
    covered (only coverage matters for falsification); and slack(x, e1, es, dsq),
    the left side less the right side of its inequality
    <-grad, target - current> >= constant ||target - current||^2 - offset,
    on the output weights or on the filter, by the identities above _descent_a.
    """

    teacher: TeacherSpec


@dataclass(frozen=True)
class EscapeRegion(Region):
    """States where the output-weight gradient is dissipative far from a_star.

    Membership: the output weights are weakly aligned (a^T a_star <= N/20) or
    far from a_star/2 (||a - a_star/2||^2 = ||d||^2 + a_star^T d + N/4 >= N),
    the running sum satisfies the envelope -3 s^2 <= s 1^T d <= 0, and the
    filter angle arccos x is at most 5pi/12 (drawn uniform on [0, 5pi/12]).
    Inequality: on a, with constant 1/(10 pi).
    """

    teacher: TeacherSpec
    constant: ClassVar[float] = 1.0 / (10.0 * np.pi)

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        n = self.teacher.a_star_norm_sq
        lower, upper = sum_envelope(self.teacher.sum_a_star)
        return (
            (es + n <= n / 20.0 or dsq + es + n / 4.0 >= n)
            and lower <= self.teacher.sum_a_star * e1 <= upper
            and math.acos(x) <= ESCAPE_MAX_ANGLE
        )

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        return rng.uniform(0.0, ESCAPE_MAX_ANGLE)

    def slack(self, x: float, e1: float, es: float, dsq: float) -> float:
        return _descent_a(x, e1, es, dsq) - self.constant * dsq


@dataclass(frozen=True)
class FilterBasinRegion(Region):
    """States where the filter gradient makes progress toward w_star.

    Membership: a^T a_star >= min_alignment and the filter lies in the v_star
    half-space, v^T v_star >= 0, which is x >= 0 (angle drawn uniform on
    [0, pi/2]). Inequality: on w, with constant m / 8, m = min_alignment. Its
    slack (1 - x) [a^T a_star (pi - phi)(1 + x) / 2pi - m/4] is >= 0 for every
    x >= 0 and a^T a_star >= m, and 0 at x = 1 and at x = 0, a^T a_star = m.
    """

    teacher: TeacherSpec
    min_alignment: float

    def __post_init__(self) -> None:
        if not 0.0 < self.min_alignment < math.inf:  # also NaN
            raise ValueError("min_alignment must be positive and finite")

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        return es + self.teacher.a_star_norm_sq >= self.min_alignment and x >= 0.0

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        return rng.uniform(0.0, np.pi / 2.0)

    def slack(self, x: float, e1: float, es: float, dsq: float) -> float:
        pi_minus_phi = relu_kernel_at_cos(x)[0]
        adot = es + self.teacher.a_star_norm_sq
        return (1.0 - x) * (adot * pi_minus_phi * (1.0 + x) / TWO_PI - 2.0 * self.constant)

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
    [max(-1, 1 - filter_err_bound/2), 1]. Inequality: on a, with constant
    (pi - 1)/(2 pi) and offset filter_err_bound / 5.
    """

    teacher: TeacherSpec
    min_alignment: float
    max_alignment: float
    filter_err_bound: float
    constant: ClassVar[float] = (np.pi - 1.0) / (2.0 * np.pi)

    def __post_init__(self) -> None:
        if not 0.0 < self.min_alignment < math.inf:  # each test also refuses NaN
            raise ValueError("min_alignment must be positive and finite")
        if not self.max_alignment >= self.min_alignment:
            raise ValueError("max_alignment must be >= min_alignment")
        if not 0.0 < self.filter_err_bound < math.inf:  # an infinite offset passes vacuously
            raise ValueError("filter_err_bound must be positive and finite")

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        adot = es + self.teacher.a_star_norm_sq
        return (
            self.min_alignment <= adot <= self.max_alignment
            and 2.0 - 2.0 * x <= self.filter_err_bound
        )

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        cos_min = max(-1.0, 1.0 - self.filter_err_bound / 2.0)
        return float(np.arccos(rng.uniform(cos_min, 1.0)))

    def slack(self, x: float, e1: float, es: float, dsq: float) -> float:
        return _descent_a(x, e1, es, dsq) - self.constant * dsq + self.filter_err_bound / 5.0
