"""Numerical certification of the dissipativity inequalities and run monitors.

Each region of landscape.py states its membership, its sampler's filter-angle
law and the slack of its inequality
<-grad, target - current> >= constant ||target - current||^2 - offset
(left side minus right side) on the closed coordinates (x = cos(phi), 1^T d,
a_star^T d, ||d||^2). The sampler draws one filter per point, takes its x once
from the state's own shortcut + w, then draws output weights uniformly in a
ball until the closed coordinates lie in the region; the slack is evaluated at
exactly those coordinates. One report loop, shared with the negative control,
collects the minimum slack and the violating points; passing means
min_slack >= -1e-9. The trajectory monitors read the running-sum envelope and
the basin bounds, each stated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .landscape import (
    FilterBasinRegion,
    OffManifoldError,
    Region,
    basin_bounds,
    closed_coordinates,
    error_rows,
    filter_rows,
    sum_envelope,
)
from .model import StudentState, TeacherSpec, ball_points, direction_at_angle, keyed_rngs
from .optimizer import Trajectory

# Additive tolerance absorbing floating-point slack at exact-equality points.
INEQUALITY_TOL = 1e-9
# Output-weight proposals drawn for one point before the region counts as infeasible.
MAX_PROPOSALS = 100_000
# Proposals the region sampler draws before it reads them at once. certify's escape,
# filter-basin and refinement regions accept about 15 %, 44 % and 37 % of proposals, and
# reading a block costs about as much as drawing 8 to 10 proposals (k <= 25, one core).
# A point then costs (8..10 + B) / (1 - (1 - rate)^B) draws' time, which, summed over
# the three rates, is least at B = 5 or 6.
PROPOSAL_BLOCK = 6
# Most points one report evaluates. A report keeps every violating point (393 bytes
# each at k=5, p=4), so one at the bound holds up to about 39 MB of them.
MAX_POINTS = 100_000


class InfeasibleRegionError(RuntimeError):
    """Rejection sampling exhausted its proposal budget for a region."""


@dataclass(frozen=True)
class DissipativityReport:
    region: Region
    n_points: int
    min_slack: float
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
            "constant_used": region.constant,
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


def region_membership(state: StudentState, region: Region) -> bool:
    """The region's predicate (closed inequalities, no slack) at a state; False off the
    manifold. Raises ValueError when the shapes do not match the region's teacher."""
    try:
        coords = closed_coordinates(state, region.teacher)
    except OffManifoldError:
        return False
    return region.contains(*coords)


def _sample_region_rng(region: Region, rng: np.random.Generator) -> tuple[StudentState, tuple]:
    """One filter at the region's angle law, then output weights uniform in a ball until
    the closed coordinates lie in the region; returns the state and those coordinates.

    The proposals are drawn one at a time, in blocks of PROPOSAL_BLOCK, and each block is
    read at once; the first row in draw order that the region contains is the draw. The
    rows drawn after it only advance this point's own stream, and a row reads the same
    bits in any block, so the draw is that of a one-at-a-time sampler.
    """
    teacher = region.teacher
    w = direction_at_angle(teacher.v_star, region.draw_filter_angle(rng), rng) - teacher.shortcut
    x = float(filter_rows(teacher.shortcut + w, teacher))
    radius = 3.0 * max(np.sqrt(teacher.a_star_norm_sq), 1.0)
    contains = region.contains
    z, u = np.empty((PROPOSAL_BLOCK, teacher.k)), np.empty(PROPOSAL_BLOCK)
    for drawn in range(0, MAX_PROPOSALS, PROPOSAL_BLOCK):
        n = min(PROPOSAL_BLOCK, MAX_PROPOSALS - drawn)
        for row in range(n):
            rng.standard_normal(out=z[row])
            u[row] = rng.random()
        a = ball_points(z[:n], u[:n], radius)
        for row, coords in enumerate(zip(*(c.tolist() for c in error_rows(a, teacher)))):
            if contains(x, *coords):
                return StudentState(w=w, a=a[row]), (x, *coords)
    raise InfeasibleRegionError(
        f"no acceptable output weights for {type(region).__name__} "
        f"after {MAX_PROPOSALS} proposals"
    )


def _report(
    region: Region, n_points: int, seed: int, first_stream: int, draw: Callable
) -> DissipativityReport:
    """Evaluate the region's slack at n_points draws, each a state and its closed
    coordinates; point i is draw(rng) on the stream make_rng(seed, first_stream + i)."""
    if not 1 <= n_points <= MAX_POINTS:
        raise ValueError(f"n_points must lie in [1, {MAX_POINTS}], got {n_points}")
    min_slack = np.inf
    violations: list[StudentState] = []
    for rng in keyed_rngs((seed, first_stream + i) for i in range(n_points)):
        state, coords = draw(rng)
        slack = region.slack(*coords)
        if slack < min_slack:
            min_slack = slack
        if slack < -INEQUALITY_TOL:
            violations.append(state)
    return DissipativityReport(
        region=region,
        n_points=n_points,
        min_slack=float(min_slack),
        violating_points=violations,
    )


def check_dissipativity(region: Region, n_points: int, seed: int) -> DissipativityReport:
    """Sample the region and evaluate its inequality at every point.

    Points use independent per-index streams, so the report is deterministic
    per seed and merging by min-reduction is order independent.
    """
    return _report(region, n_points, seed, 1_000_000, partial(_sample_region_rng, region))


def _negative_state(teacher: TeacherSpec, rng: np.random.Generator) -> tuple[StudentState, tuple]:
    v = direction_at_angle(teacher.v_star, rng.uniform(0.1, np.pi / 2.0), rng)
    for _ in range(10_000):
        z = rng.standard_normal(teacher.k)
        a = 3.0 * (z / np.linalg.norm(z))
        if float(a @ teacher.a_star) < -1e-3:
            state = StudentState(w=v - teacher.shortcut, a=a)
            return state, closed_coordinates(state, teacher)
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
    return _report(region, n_points, seed, 2_000_000, partial(_negative_state, teacher))


def _basin_bounds(traj: Trajectory, teacher: TeacherSpec) -> tuple:
    """The basin hypotheses of landscape.basin_bounds as (quantity, recorded column,
    lower, upper) per bound."""
    (phi_lower, phi_upper), (a_lower, a_upper) = basin_bounds(teacher)
    return (
        ("phi", traj.phi, phi_lower, phi_upper),
        ("a.a_star", traj.a_dot_astar, a_lower, a_upper),
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


def monitor_trajectory(traj: Trajectory, teacher: TeacherSpec) -> list[MonitorViolation]:
    """Evaluate invariant bounds at every recorded iterate.

    sum_envelope        -3 s^2 <= s 1^T a_t - s^2 <= 0 at every t
    basin_persistence   once the basin hypotheses hold, they keep holding
    filter_contraction  ||v_t - v_star|| non-increasing after basin entry

    An empty list means every bound held with additive tolerance
    INEQUALITY_TOL; a caller after one monitor filters on v.monitor.
    """
    s = teacher.sum_a_star
    violations = _outside("sum_envelope", "s*sum_a - s^2", traj.t, s * traj.sum_a - s * s,
                          *sum_envelope(s))
    entry = basin_entry_index(traj, teacher)
    if entry is not None:
        ts = traj.t[entry:]
        for quantity, values, lower, upper in _basin_bounds(traj, teacher):
            violations += _outside("basin_persistence", quantity, ts, values[entry:], lower, upper)
        v_err = np.sqrt(traj.w_err_sq[entry:])
        increases = np.flatnonzero(np.diff(v_err) > INEQUALITY_TOL)
        for i in increases:
            violations.append(
                MonitorViolation("filter_contraction", int(ts[i + 1]),
                                 "||v - v_star||", float(v_err[i + 1]), float(v_err[i]))
            )
    violations.sort(key=lambda v: (v.t, v.monitor))
    return violations
