"""Numerical certification of the dissipativity inequalities and run monitors.

Each region of landscape.py states its membership, its sampler's filter-angle
law and the slack of its inequality
<-grad, target - current> >= constant ||target - current||^2 - offset
(left side minus right side) on the closed coordinates (x = cos(phi), 1^T d,
a_star^T d, ||d||^2). The sampler draws one filter per point, takes its x once
from the state's own shortcut + w, then draws output weights uniformly in a
ball until the closed coordinates lie in the region; the slack is evaluated at
exactly those coordinates. It draws per key (each point on its own stream) and
computes per block of points, so a point has the bits it has alone. The
negative control samples the same way, from a private region outside the
filter basin. One report loop collects the minimum slack and the violating
points; passing means min_slack >= -1e-9. The trajectory monitors
read the running-sum envelope and the basin bounds, each stated once.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from itertools import islice

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
# Proposals a point draws on its stream per pass of its block; any size keeps every point's
# bits. A larger one draws more rows past the accepted one, a smaller one sends more points
# through another pass (a saved state restored and saved again). Timed on certify's three
# regions (acceptance about 15 %, 44 % and 37 %; 1000 points each, sizes interleaved in one
# process over 16 rounds, one core of a 2-vCPU host), their sum took 78.7, 75.4, 76.1, 77.0,
# 79.1 and 86.7 ms at 2, 3, 4, 5, 6 and 8 proposals; 4 keeps the escape teacher that keeps
# 1 proposal in 48 cheaper than 3 (161 against 182 ms per 1000 points).
PROPOSAL_BLOCK = 4
# Floats of normals and proposals, p + PROPOSAL_BLOCK (k + 1) per point, that one block of
# a report holds, with at least one point (_block_points): 256 KB. Blocks of 2^12, 2^14,
# 2^15 and 2^17 floats took 90.5, 75.6, 73.7 and 73.2 ms on the timing above. With each
# point's saved stream state and floats, a report of 1000 certify points peaks at about
# 2.2 MB traced; at k = p = MAX_DIM a block is one point of 50 004 floats (0.4 MB).
POINT_BLOCK_FLOATS = 2**15
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


def _block_points(teacher: TeacherSpec) -> int:
    """Points in one block of a report: as many as POINT_BLOCK_FLOATS holds at
    p + PROPOSAL_BLOCK (k + 1) floats per point, its normals and proposals; at least one."""
    return max(1, POINT_BLOCK_FLOATS // (teacher.p + PROPOSAL_BLOCK * (teacher.k + 1)))


@dataclass(frozen=True)
class _NegativeAlignment(Region):
    """The negative control's sampling law: a filter angle uniform in [0.1, pi/2] and output
    weights with a^T a_star < -1e-3. There x <= cos 0.1, so FilterBasinRegion's slack
    (1 - x) [a^T a_star (pi - phi)(1 + x) / 2pi - m/4] is below -1e-9 for every m > 0."""

    teacher: TeacherSpec

    def contains(self, x: float, e1: float, es: float, dsq: float) -> bool:
        return es + self.teacher.a_star_norm_sq < -1e-3

    def draw_filter_angle(self, rng: np.random.Generator) -> float:
        return rng.uniform(0.1, np.pi / 2.0)


def _region_block(region: Region, keys: list[tuple[int, int]]) -> Iterable[tuple]:
    """For each (seed, stream) key, a point of the region drawn on make_rng(seed, stream):
    its closed coordinates (floats), its w and its a.

    The filter is drawn at the region's angle law and x read from the state's own
    shortcut + w; output weights are drawn uniform in a ball until the closed coordinates
    lie in the region. In three steps:
    1. draw per key, in a one-point sampler's order: the filter angle, the p direction
       normals and the first PROPOSAL_BLOCK proposals (k normals, then a uniform, each),
       saving the stream's state;
    2. compute per block: the directions (direction_at_angle), their x, the ball points and
       their error rows;
    3. accept per point, on floats: the first row in draw order that contains accepts. A
       point with none resumes its saved stream for the next PROPOSAL_BLOCK proposals, up
       to MAX_PROPOSALS in all.
    The rows drawn after the accepted one only advance the point's own stream, and a row
    reads the same bits in any block, so each point is the one a one-proposal-at-a-time
    sampler draws, whichever points share its block.
    """
    teacher = region.teacher
    n, k, contains = len(keys), teacher.k, region.contains
    cos_sin, normals = np.empty((n, 2)), np.empty((n, teacher.p))
    z, u, states = np.empty((n, PROPOSAL_BLOCK, k)), np.empty((n, PROPOSAL_BLOCK)), [None] * n
    m = min(PROPOSAL_BLOCK, MAX_PROPOSALS)

    def propose(i, rng):
        for row in range(m):
            rng.standard_normal(out=z[i, row])
            u[i, row] = rng.random()
        states[i] = rng.bit_generator.state

    for i, rng in enumerate(keyed_rngs(keys)):
        angle = region.draw_filter_angle(rng)
        cos_sin[i] = np.cos(angle), np.sin(angle)
        rng.standard_normal(out=normals[i])
        propose(i, rng)
    w = direction_at_angle(teacher.v_star, cos_sin, normals) - teacher.shortcut
    x = filter_rows(teacher.shortcut + w, teacher).tolist()
    radius = 3.0 * max(np.sqrt(teacher.a_star_norm_sq), 1.0)
    a, coords = np.empty((n, k)), [None] * n
    pending, drawn = list(range(n)), 0
    while True:
        rows = ball_points(z[pending, :m].reshape(-1, k), u[pending, :m].ravel(), radius)
        e1, es, dsq = (c.reshape(-1, m).tolist() for c in error_rows(rows, teacher))
        drawn += m
        left, accepted, chosen = [], [], []
        for j, i in enumerate(pending):
            for row, c in enumerate(zip(e1[j], es[j], dsq[j])):
                if contains(x[i], *c):
                    accepted.append(i)
                    chosen.append(j * m + row)
                    coords[i] = (x[i], *c)
                    break
            else:
                left.append(i)
        a[accepted] = rows[chosen]
        if not left:
            return zip(coords, w, a)
        if drawn >= MAX_PROPOSALS:
            raise InfeasibleRegionError(
                f"no acceptable output weights for {type(region).__name__} "
                f"after {MAX_PROPOSALS} proposals"
            )
        m = min(PROPOSAL_BLOCK, MAX_PROPOSALS - drawn)
        for i in left:
            rng.bit_generator.state = states[i]
            propose(i, rng)
        pending = left


def _report(
    region: Region, sampled: Region, n_points: int, seed: int, first_stream: int
) -> DissipativityReport:
    """Evaluate region's slack at n_points points of sampled's law, point i on the stream
    make_rng(seed, first_stream + i), in blocks of _block_points (_region_block). A state is
    built only for a violating point."""
    if not 1 <= n_points <= MAX_POINTS:
        raise ValueError(f"n_points must lie in [1, {MAX_POINTS}], got {n_points}")
    min_slack = np.inf
    violations: list[StudentState] = []
    keys = ((seed, first_stream + i) for i in range(n_points))
    size = _block_points(sampled.teacher)
    while block := list(islice(keys, size)):
        for coords, w, a in _region_block(sampled, block):
            slack = region.slack(*coords)
            if slack < min_slack:
                min_slack = slack
            if slack < -INEQUALITY_TOL:
                violations.append(StudentState(w=w, a=a))
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
    return _report(region, region, n_points, seed, 1_000_000)


def negative_control_filter_basin(
    teacher: TeacherSpec, min_alignment: float, n_points: int, seed: int
) -> DissipativityReport:
    """Evaluate the filter inequality on states sampled OUTSIDE its region.

    Output weights are forced to negative alignment (a^T a_star < -1e-3, _NegativeAlignment),
    where the filter gradient pushes away from w_star; every point is expected to violate,
    confirming the checker can detect failures.
    """
    region = FilterBasinRegion(teacher=teacher, min_alignment=min_alignment)
    return _report(region, _NegativeAlignment(teacher), n_points, seed, 2_000_000)


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
