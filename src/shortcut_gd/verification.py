"""Numerical certification of the dissipativity inequalities and run monitors.

Each region of landscape.py states its membership on the closed coordinates
(x = cos(phi), 1^T d, a_star^T d, ||d||^2), its sampler's filter-angle law and
its inequality <-grad, target - current> >= constant ||target - current||^2 - offset.
The sampler draws one filter per point, takes its x once from the state's own
shortcut + w, then draws output weights uniformly in a ball until the closed
coordinates lie in the region. One report loop, shared with the negative
control, collects the minimum slack (left side minus right side) and the
violating points; passing means min_slack >= -1e-9. The trajectory monitors
read the running-sum envelope and the basin bounds, each stated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import InfeasibleRegionError
from .landscape import (
    ESCAPE_MAX_ANGLE,
    FilterBasinRegion,
    Region,
    error_coordinates,
    filter_cos,
    grad_a,
    grad_w,
    region_membership,  # noqa: F401  (re-exported: part of this module's interface)
    sum_envelope,
)
from .model import StudentState, TeacherSpec, make_rng
from .optimizer import Trajectory

# Additive tolerance absorbing floating-point slack at exact-equality points.
INEQUALITY_TOL = 1e-9
# Output-weight proposals drawn for one point before the region counts as infeasible.
MAX_PROPOSALS = 100_000

MONITOR_IDS = ("sum_envelope", "basin_persistence", "filter_contraction")


@dataclass(frozen=True)
class DissipativityReport:
    region: Region
    n_points: int
    min_slack: float
    constant_used: float
    violating_points: list[StudentState] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.min_slack >= -INEQUALITY_TOL

    def to_dict(self) -> dict:
        region = self.region
        return {
            "region": type(region).__name__,
            "region_params": {f.name: getattr(region, f.name)
                              for f in fields(region) if f.name != "teacher"},
            "teacher": {"k": region.teacher.k, "p": region.teacher.p},
            "n_points": self.n_points,
            "min_slack": self.min_slack,
            "constant_used": self.constant_used,
            "n_violations": len(self.violating_points),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class MonitorViolation:
    monitor: str
    t: int
    quantity: str
    observed: float
    bound: float


def _filter_direction_at(teacher: TeacherSpec, phi: float, rng: np.random.Generator) -> np.ndarray:
    """Unit filter direction at angle phi to v_star, turned toward a uniform random direction."""
    if teacher.p == 1:
        return teacher.v_star.copy()
    z = rng.standard_normal(teacher.p)
    z -= (z @ teacher.v_star) * teacher.v_star
    nz = np.linalg.norm(z)
    while nz == 0.0:
        z = rng.standard_normal(teacher.p)
        z -= (z @ teacher.v_star) * teacher.v_star
        nz = np.linalg.norm(z)
    return np.cos(phi) * teacher.v_star + np.sin(phi) * (z / nz)


def _sample_region_rng(region: Region, rng: np.random.Generator) -> StudentState:
    """One filter at the region's angle law, then output weights uniform in a ball until
    the closed coordinates lie in the region."""
    teacher = region.teacher
    w = _filter_direction_at(teacher, region.draw_filter_angle(rng), rng) - teacher.shortcut
    x = filter_cos(teacher.shortcut + w, teacher)
    radius = 3.0 * max(np.sqrt(teacher.a_star_norm_sq), 1.0)
    k, contains = teacher.k, region.contains
    for _ in range(MAX_PROPOSALS):
        z = rng.standard_normal(k)
        # math.sqrt(z . z) is np.linalg.norm(z), bit for bit, at a third of the cost.
        a = radius * rng.random() ** (1.0 / k) * (z / math.sqrt(z.dot(z)))
        if contains(x, *error_coordinates(a, teacher)):
            return StudentState(w=w, a=a)
    raise InfeasibleRegionError(
        f"no acceptable output weights for {type(region).__name__} "
        f"after {MAX_PROPOSALS} proposals"
    )


def sample_region(region: Region, seed: int) -> StudentState:
    """One state from the region, deterministic per seed (rejection on the a-part)."""
    return _sample_region_rng(region, make_rng(seed, 7))


def dissipativity_slack(state: StudentState, region: Region) -> tuple[float, float]:
    """(left side - right side, constant) of the region's inequality at one state."""
    teacher = region.teacher
    if region.on_filter:
        grad, diff = grad_w(state, teacher), teacher.w_star - state.w
    else:
        grad, diff = grad_a(state, teacher), teacher.a_star - state.a
    lhs = float(-grad @ diff)
    rhs = region.constant * float(diff @ diff) - region.offset
    return lhs - rhs, region.constant


def _report(region: Region, n_points: int, draw: Callable) -> DissipativityReport:
    """Evaluate the region's inequality at the states draw(0), ..., draw(n_points - 1)."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    min_slack = np.inf
    violations: list[StudentState] = []
    for i in range(n_points):
        state = draw(i)
        slack, _ = dissipativity_slack(state, region)
        if slack < min_slack:
            min_slack = slack
        if slack < -INEQUALITY_TOL:
            violations.append(state)
    return DissipativityReport(
        region=region,
        n_points=n_points,
        min_slack=float(min_slack),
        constant_used=region.constant,
        violating_points=violations,
    )


def check_dissipativity(region: Region, n_points: int, seed: int) -> DissipativityReport:
    """Sample the region and evaluate its inequality at every point.

    Points use independent per-index streams, so the report is deterministic
    per seed and merging by min-reduction is order independent.
    """
    return _report(
        region, n_points, lambda i: _sample_region_rng(region, make_rng(seed, 1_000_000 + i))
    )


def _negative_state(teacher: TeacherSpec, rng: np.random.Generator) -> StudentState:
    v = _filter_direction_at(teacher, rng.uniform(0.1, np.pi / 2.0), rng)
    for _ in range(10_000):
        z = rng.standard_normal(teacher.k)
        a = 3.0 * (z / np.linalg.norm(z))
        if float(a @ teacher.a_star) < -1e-3:
            return StudentState(w=v - teacher.shortcut, a=a)
    raise InfeasibleRegionError("could not draw negative-alignment output weights")


def negative_control_filter_basin(
    teacher: TeacherSpec, min_alignment: float, n_points: int, seed: int
) -> DissipativityReport:
    """Evaluate the filter inequality on states sampled OUTSIDE its region.

    Output weights are forced to negative alignment (a^T a_star < 0), where
    the filter gradient pushes away from w_star; the report is expected to
    contain violations, confirming the checker can detect failures.
    """
    region = FilterBasinRegion(teacher=teacher, min_alignment=min_alignment)
    return _report(
        region, n_points, lambda i: _negative_state(teacher, make_rng(seed, 2_000_000 + i))
    )


def _basin_bounds(traj: Trajectory, teacher: TeacherSpec) -> tuple:
    """The basin hypotheses as (quantity, recorded column, lower, upper) per bound:
    phi <= 5pi/12 and alignment_lower <= a^T a_star <= alignment_upper."""
    return (
        ("phi", traj.phi, -np.inf, ESCAPE_MAX_ANGLE),
        ("a.a_star", traj.a_dot_astar, teacher.alignment_lower, teacher.alignment_upper),
    )


def _outside(
    monitor: str, quantity: str, ts: np.ndarray, values: np.ndarray, lower: float, upper: float
) -> list[MonitorViolation]:
    """A violation at every recorded value beyond [lower, upper] by more than INEQUALITY_TOL."""
    return [
        MonitorViolation(monitor, int(ts[i]), quantity, float(values[i]), bound)
        for bound, beyond in ((upper, values > upper + INEQUALITY_TOL),
                              (lower, values < lower - INEQUALITY_TOL))
        for i in np.flatnonzero(beyond)
    ]


def basin_entry_index(traj: Trajectory, teacher: TeacherSpec) -> int | None:
    """First recorded index where the iterate satisfies the basin hypotheses.

    The persistence guarantee restarts its clock at such a point: angle at
    most 5pi/12 and alignment within the teacher's [lower, upper] bounds,
    each with additive tolerance INEQUALITY_TOL. Returns None when the
    trajectory never enters.
    """
    ok = np.ones(traj.t.shape, dtype=bool)
    for _, values, lower, upper in _basin_bounds(traj, teacher):
        ok &= (values >= lower - INEQUALITY_TOL) & (values <= upper + INEQUALITY_TOL)
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def monitor_trajectory(
    traj: Trajectory,
    teacher: TeacherSpec,
    monitors: set[str] | tuple[str, ...] = MONITOR_IDS,
) -> list[MonitorViolation]:
    """Evaluate invariant bounds at every recorded iterate.

    sum_envelope        -3 s^2 <= s 1^T a_t - s^2 <= 0 at every t
    basin_persistence   once the basin hypotheses hold, they keep holding
    filter_contraction  ||v_t - v_star|| non-increasing after basin entry

    An empty list means every selected bound held with additive tolerance
    INEQUALITY_TOL.
    """
    unknown = set(monitors) - set(MONITOR_IDS)
    if unknown:
        raise ValueError(f"unknown monitor ids: {sorted(unknown)}")
    violations: list[MonitorViolation] = []
    s = teacher.sum_a_star

    if "sum_envelope" in monitors:
        violations += _outside("sum_envelope", "s*sum_a - s^2", traj.t, s * traj.sum_a - s * s,
                               *sum_envelope(s))

    needs_entry = {"basin_persistence", "filter_contraction"} & set(monitors)
    if needs_entry:
        entry = basin_entry_index(traj, teacher)
        if entry is not None:
            ts = traj.t[entry:]
            if "basin_persistence" in monitors:
                for quantity, values, lower, upper in _basin_bounds(traj, teacher):
                    violations += _outside("basin_persistence", quantity, ts, values[entry:],
                                           lower, upper)
            if "filter_contraction" in monitors:
                v_err = np.sqrt(traj.w_err_sq[entry:])
                increases = np.flatnonzero(np.diff(v_err) > INEQUALITY_TOL)
                for i in increases:
                    violations.append(
                        MonitorViolation("filter_contraction", int(ts[i + 1]),
                                         "||v - v_star||", float(v_err[i + 1]),
                                         float(v_err[i]))
                    )
    violations.sort(key=lambda v: (v.t, v.monitor))
    return violations
