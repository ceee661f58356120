"""Numerical certification of the dissipativity inequalities and run monitors.

Each region comes with an inequality of the form

    <-grad, target - current>  >=  constant * ||current - target||^2 - slack

which is checked pointwise on states sampled from the region. A report
collects the minimum slack (left side minus right side) over the sample and
any violating points; passing means min_slack >= -1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleRegionError
from .landscape import (
    ESCAPE_MAX_ANGLE,
    EscapeRegion,
    FilterBasinRegion,
    RefinementRegion,
    Region,
    grad_a,
    grad_w,
    region_membership,
)
from .model import StudentState, TeacherSpec, make_rng
from .optimizer import Trajectory

# Additive tolerance absorbing floating-point slack at exact-equality points.
INEQUALITY_TOL = 1e-9

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
        params: dict[str, float] = {}
        if isinstance(region, FilterBasinRegion):
            params["min_alignment"] = region.min_alignment
        elif isinstance(region, RefinementRegion):
            params = {
                "min_alignment": region.min_alignment,
                "max_alignment": region.max_alignment,
                "filter_err_bound": region.filter_err_bound,
            }
        return {
            "region": type(region).__name__,
            "region_params": params,
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


def _filter_direction(region: Region, teacher: TeacherSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a unit filter direction satisfying the region's angle constraint.

    The angle to v_star is sampled directly (uniform over the admissible
    interval) so that thin shells near the boundary are covered; only
    coverage matters for falsification, not the exact sampling law.
    """
    if isinstance(region, EscapeRegion):
        phi = rng.uniform(0.0, ESCAPE_MAX_ANGLE)
    elif isinstance(region, FilterBasinRegion):
        phi = rng.uniform(0.0, np.pi / 2.0)
    else:
        cos_min = 1.0 - region.filter_err_bound / 2.0
        phi = float(np.arccos(rng.uniform(cos_min, 1.0)))
    return _filter_direction_at(teacher, phi, rng)


def _filter_direction_at(teacher: TeacherSpec, phi: float, rng: np.random.Generator) -> np.ndarray:
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


def _a_accepted(a: np.ndarray, region: Region, teacher: TeacherSpec) -> bool:
    adot = float(a @ teacher.a_star)
    if isinstance(region, EscapeRegion):
        s = teacher.sum_a_star
        norm_sq = teacher.a_star_norm_sq
        far = adot <= norm_sq / 20.0 or float(np.sum((a - teacher.a_star / 2.0) ** 2)) >= norm_sq
        return far and -3.0 * s * s <= s * float(a.sum()) - s * s <= 0.0
    if isinstance(region, FilterBasinRegion):
        return adot >= region.min_alignment
    return region.min_alignment <= adot <= region.max_alignment


def _sample_region_rng(region: Region, rng: np.random.Generator, max_proposals: int) -> StudentState:
    teacher = region.teacher
    v = _filter_direction(region, teacher, rng)
    w = v - teacher.shortcut
    radius = 3.0 * max(np.sqrt(teacher.a_star_norm_sq), 1.0)
    for _ in range(max_proposals):
        z = rng.standard_normal(teacher.k)
        a = radius * rng.random() ** (1.0 / teacher.k) * (z / np.linalg.norm(z))
        if _a_accepted(a, region, teacher):
            state = StudentState(w=w, a=a)
            if region_membership(state, region):
                return state
    raise InfeasibleRegionError(
        f"no acceptable output weights for {type(region).__name__} "
        f"after {max_proposals} proposals"
    )


def sample_region(region: Region, seed: int, *, max_proposals: int = 100_000) -> StudentState:
    """One state from the region, deterministic per seed (rejection on the a-part)."""
    return _sample_region_rng(region, make_rng(seed, 7), max_proposals)


def dissipativity_slack(state: StudentState, region: Region) -> tuple[float, float]:
    """(left side - right side, constant) of the region's inequality at one state."""
    teacher = region.teacher
    a_diff = teacher.a_star - state.a
    if isinstance(region, EscapeRegion):
        const = 1.0 / (10.0 * np.pi)
        lhs = float(-grad_a(state, teacher) @ a_diff)
        rhs = const * float(a_diff @ a_diff)
    elif isinstance(region, FilterBasinRegion):
        const = region.min_alignment / 8.0
        w_diff = teacher.w_star - state.w
        lhs = float(-grad_w(state, teacher) @ w_diff)
        rhs = const * float(w_diff @ w_diff)
    elif isinstance(region, RefinementRegion):
        const = (np.pi - 1.0) / (2.0 * np.pi)
        lhs = float(-grad_a(state, teacher) @ a_diff)
        rhs = const * float(a_diff @ a_diff) - region.filter_err_bound / 5.0
    else:
        raise TypeError(f"unknown region type {type(region)!r}")
    return lhs - rhs, const


def check_dissipativity(
    region: Region, n_points: int, seed: int, *, max_proposals: int = 100_000
) -> DissipativityReport:
    """Sample the region and evaluate its inequality at every point.

    Points use independent per-index streams, so the report is deterministic
    per seed and merging by min-reduction is order independent.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    min_slack = np.inf
    constant = 0.0
    violations: list[StudentState] = []
    for i in range(n_points):
        state = _sample_region_rng(region, make_rng(seed, 1_000_000 + i), max_proposals)
        slack, constant = dissipativity_slack(state, region)
        if slack < min_slack:
            min_slack = slack
        if slack < -INEQUALITY_TOL:
            violations.append(state)
    return DissipativityReport(
        region=region,
        n_points=n_points,
        min_slack=float(min_slack),
        constant_used=constant,
        violating_points=violations,
    )


def negative_control_filter_basin(
    teacher: TeacherSpec, min_alignment: float, n_points: int, seed: int
) -> DissipativityReport:
    """Evaluate the filter inequality on states sampled OUTSIDE its region.

    Output weights are forced to negative alignment (a^T a_star < 0), where
    the filter gradient pushes away from w_star; the report is expected to
    contain violations, confirming the checker can detect failures.
    """
    region = FilterBasinRegion(teacher=teacher, min_alignment=min_alignment)
    min_slack = np.inf
    constant = 0.0
    violations: list[StudentState] = []
    for i in range(n_points):
        rng = make_rng(seed, 2_000_000 + i)
        phi = rng.uniform(0.1, np.pi / 2.0)
        v = _filter_direction_at(teacher, phi, rng)
        a = None
        for _ in range(10_000):
            z = rng.standard_normal(teacher.k)
            cand = 3.0 * (z / np.linalg.norm(z))
            if float(cand @ teacher.a_star) < -1e-3:
                a = cand
                break
        if a is None:
            raise InfeasibleRegionError("could not draw negative-alignment output weights")
        state = StudentState(w=v - teacher.shortcut, a=a)
        slack, constant = dissipativity_slack(state, region)
        if slack < min_slack:
            min_slack = slack
        if slack < -INEQUALITY_TOL:
            violations.append(state)
    return DissipativityReport(
        region=region,
        n_points=n_points,
        min_slack=float(min_slack),
        constant_used=constant,
        violating_points=violations,
    )


def basin_entry_index(
    traj: Trajectory, teacher: TeacherSpec, *, tol: float = INEQUALITY_TOL
) -> int | None:
    """First recorded index where the iterate satisfies the basin hypotheses.

    The persistence guarantee restarts its clock at such a point: angle at
    most 5pi/12 and alignment within the teacher's [lower, upper] bounds.
    Returns None when the trajectory never enters.
    """
    ok = (
        (traj.phi <= ESCAPE_MAX_ANGLE + tol)
        & (traj.a_dot_astar >= teacher.alignment_lower - tol)
        & (traj.a_dot_astar <= teacher.alignment_upper + tol)
    )
    hits = np.flatnonzero(ok)
    return int(hits[0]) if hits.size else None


def monitor_trajectory(
    traj: Trajectory,
    teacher: TeacherSpec,
    monitors: set[str] | tuple[str, ...] = MONITOR_IDS,
    *,
    tol: float = INEQUALITY_TOL,
) -> list[MonitorViolation]:
    """Evaluate invariant bounds at every recorded iterate.

    sum_envelope        -3 s^2 <= s 1^T a_t - s^2 <= 0 at every t
    basin_persistence   once the basin hypotheses hold, they keep holding
    filter_contraction  ||v_t - v_star|| non-increasing after basin entry

    An empty list means every selected bound held with additive tolerance.
    """
    unknown = set(monitors) - set(MONITOR_IDS)
    if unknown:
        raise ValueError(f"unknown monitor ids: {sorted(unknown)}")
    violations: list[MonitorViolation] = []
    s = teacher.sum_a_star

    if "sum_envelope" in monitors:
        drift = s * traj.sum_a - s * s
        lower = -3.0 * s * s
        for i in np.flatnonzero(drift > tol):
            violations.append(
                MonitorViolation("sum_envelope", int(traj.t[i]), "s*sum_a - s^2",
                                 float(drift[i]), 0.0)
            )
        for i in np.flatnonzero(drift < lower - tol):
            violations.append(
                MonitorViolation("sum_envelope", int(traj.t[i]), "s*sum_a - s^2",
                                 float(drift[i]), lower)
            )

    needs_entry = {"basin_persistence", "filter_contraction"} & set(monitors)
    if needs_entry:
        entry = basin_entry_index(traj, teacher, tol=tol)
        if entry is not None:
            if "basin_persistence" in monitors:
                phi = traj.phi[entry:]
                adot = traj.a_dot_astar[entry:]
                ts = traj.t[entry:]
                for i in np.flatnonzero(phi > ESCAPE_MAX_ANGLE + tol):
                    violations.append(
                        MonitorViolation("basin_persistence", int(ts[i]), "phi",
                                         float(phi[i]), ESCAPE_MAX_ANGLE)
                    )
                for i in np.flatnonzero(adot < teacher.alignment_lower - tol):
                    violations.append(
                        MonitorViolation("basin_persistence", int(ts[i]), "a.a_star",
                                         float(adot[i]), teacher.alignment_lower)
                    )
                for i in np.flatnonzero(adot > teacher.alignment_upper + tol):
                    violations.append(
                        MonitorViolation("basin_persistence", int(ts[i]), "a.a_star",
                                         float(adot[i]), teacher.alignment_upper)
                    )
            if "filter_contraction" in monitors:
                v_err = np.sqrt(traj.w_err_sq[entry:])
                ts = traj.t[entry:]
                increases = np.flatnonzero(np.diff(v_err) > tol)
                for i in increases:
                    violations.append(
                        MonitorViolation("filter_contraction", int(ts[i + 1]),
                                         "||v - v_star||", float(v_err[i + 1]),
                                         float(v_err[i]))
                    )
    violations.sort(key=lambda v: (v.t, v.monitor))
    return violations
