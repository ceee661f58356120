import dataclasses
import math
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shortcut_gd import model, verification
from shortcut_gd.cli import cli_main
from shortcut_gd.landscape import (
    ESCAPE_MAX_ANGLE,
    EscapeRegion,
    FilterBasinRegion,
    RefinementRegion,
    closed_coordinates,
    grad_a,
    grad_w,
)
from shortcut_gd.model import (
    MANIFOLD_TOL, MAX_DIM, StudentState, TeacherSpec, direction_at_angle, make_rng, random_teacher,
    shortcut_direction,
)
from shortcut_gd.optimizer import Outcome, Trajectory, run, sample_init
from shortcut_gd.schedules import ConstantSchedule, WarmupSchedule
from shortcut_gd.verification import (
    INEQUALITY_TOL,
    MAX_POINTS,
    MAX_PROPOSALS,
    POINT_BLOCK_FLOATS,
    PROPOSAL_BLOCK,
    DissipativityReport,
    InfeasibleRegionError,
    basin_entry_index,
    check_dissipativity,
    monitor_trajectory,
    negative_control_filter_basin,
    region_membership,
)


def _regions_for(teacher):
    norm_sq = teacher.a_star_norm_sq
    return [
        EscapeRegion(teacher=teacher),
        FilterBasinRegion(teacher=teacher, min_alignment=0.2 * norm_sq),
        RefinementRegion(
            teacher=teacher,
            min_alignment=0.2 * norm_sq,
            max_alignment=teacher.alignment_upper,
            filter_err_bound=0.05,
        ),
    ]


def _laws_for(teacher):
    """The three regions of _regions_for and the negative control's law."""
    return [*_regions_for(teacher), verification._NegativeAlignment(teacher)]


def _sample(region, keys):
    """The region sampler's points for the (seed, stream) keys, in one block, as states."""
    return [StudentState(w=w, a=a) for _, w, a in verification._region_block(region, list(keys))]


def test_sample_region_membership_and_determinism():
    for seed, (k, p) in enumerate([(2, 2), (5, 4), (25, 8)]):
        teacher = random_teacher(k, p, seed)
        for region in _regions_for(teacher):
            keys = [(40 + seed, 7 + i) for i in range(5)]
            for state, again in zip(_sample(region, keys), _sample(region, keys)):
                assert region_membership(state, region)
                assert np.array_equal(state.w, again.w)
                assert np.array_equal(state.a, again.a)


def test_dissipativity_small_suites():
    for seed, (k, p) in enumerate([(2, 4), (5, 2), (5, 8)]):
        teacher = random_teacher(k, p, 7 + seed)
        for region in _regions_for(teacher):
            report = check_dissipativity(region, n_points=800, seed=seed)
            assert report.passed, (type(region).__name__, report.min_slack)
            assert report.violating_points == []
            assert report.n_points == 800


def test_dissipativity_reports_deterministic():
    teacher = random_teacher(5, 4, 3)
    region = FilterBasinRegion(teacher=teacher, min_alignment=0.2)
    r1 = check_dissipativity(region, n_points=300, seed=12)
    r2 = check_dissipativity(region, n_points=300, seed=12)
    assert r1.min_slack == r2.min_slack


def test_escape_slack_with_silent_student():
    # with a = 0 the inequality's slack reduces to
    # s^2/(2pi) + (g(phi)-1)/(2pi) ||a_star||^2 - ||a_star||^2/(10pi) >= 0
    teacher = random_teacher(4, 4, 1)
    u = teacher.v_star
    state = StudentState(w=u - shortcut_direction(4), a=np.zeros(4))
    region = EscapeRegion(teacher=teacher)
    coords = closed_coordinates(state, teacher)
    slack = region.slack(*coords)
    phi = math.acos(coords[0])
    g = (np.pi - phi) * np.cos(phi) + np.sin(phi)
    s = teacher.sum_a_star
    nrm2 = teacher.a_star_norm_sq
    expected = s * s / (2 * np.pi) + (g - 1.0) / (2 * np.pi) * nrm2 - nrm2 / (10 * np.pi)
    assert slack == pytest.approx(expected, abs=1e-12)
    assert slack >= 0.0
    assert region.constant == pytest.approx(1.0 / (10 * np.pi), abs=1e-15)


def test_filter_basin_slack_zero_at_truth():
    teacher = random_teacher(3, 5, 2)
    state = StudentState(w=teacher.w_star, a=teacher.a_star)
    slack = FilterBasinRegion(teacher, 0.2).slack(*closed_coordinates(state, teacher))
    assert slack == pytest.approx(0.0, abs=1e-15)


def test_refinement_slack_at_error_boundary():
    teacher = random_teacher(4, 4, 5)
    delta = 0.05
    region = RefinementRegion(
        teacher=teacher, min_alignment=0.2, max_alignment=teacher.alignment_upper,
        filter_err_bound=delta,
    )
    # place the filter at squared error delta (nudged inside by rounding headroom)
    z = np.array([0.0, 1.0, 0.0, 0.0])
    u = z - (z @ teacher.v_star) * teacher.v_star
    u /= np.linalg.norm(u)
    phi = np.arccos(1.0 - delta / 2.0 + 1e-12)
    v = np.cos(phi) * teacher.v_star + np.sin(phi) * u
    state = StudentState(w=v - teacher.shortcut, a=teacher.a_star)
    assert region_membership(state, region)
    assert region.slack(*closed_coordinates(state, teacher)) >= -1e-9


def test_negative_control_detects_violations():
    """Every point violates, and point i's filter is drawn on make_rng(1, 2_000_000 + i) at
    an angle uniform in [0.1, pi/2]."""
    teacher = random_teacher(5, 4, 9)
    report = negative_control_filter_basin(teacher, min_alignment=0.2, n_points=200, seed=1)
    assert len(report.violating_points) == report.n_points == 200
    assert report.min_slack < -1e-9
    for i, state in enumerate(report.violating_points):
        rng = make_rng(1, 2_000_000 + i)
        want = _reference_direction_at(teacher, rng.uniform(0.1, np.pi / 2.0), rng)
        assert state.w.tobytes() == (want - teacher.shortcut).tobytes()


@settings(max_examples=300, deadline=None)
@given(x=st.floats(0.0, math.cos(0.1)),
       alignment=st.floats(-1e6, -1e-3, exclude_max=True),
       m=st.floats(0.0, 1e6, exclude_min=True),
       a_norm=st.sampled_from([1e-4, 1.0, 30.0]))
def test_the_filter_slack_is_negative_wherever_the_control_samples(x, alignment, m, a_norm):
    """(1 - x) [a^T a_star (pi - phi)(1 + x) / 2pi - m/4] < -1e-9 for x in [0, cos 0.1],
    a^T a_star < -1e-3 and m > 0: every point of the control violates, whatever the law of
    its output weights."""
    teacher = random_teacher(3, 4, 0, a_norm=a_norm)
    es = alignment - teacher.a_star_norm_sq
    assume(es + teacher.a_star_norm_sq < -1e-3)  # what the control's law accepts
    assert FilterBasinRegion(teacher, m).slack(x, 0.0, es, 0.0) < -1e-9


def test_report_serialization():
    teacher = random_teacher(2, 2, 0)
    report = check_dissipativity(FilterBasinRegion(teacher=teacher, min_alignment=0.1),
                                 n_points=50, seed=0)
    blob = report.to_dict()
    assert blob["region"] == "FilterBasinRegion"
    assert blob["passed"] is True
    assert blob["n_points"] == 50
    assert blob["region_params"]["min_alignment"] == 0.1
    assert blob["constant_used"] == report.region.constant == 0.1 / 8


def test_monitors_clean_on_warmup_run():
    teacher = TeacherSpec(
        v_star=np.array([0.8, 0.6, 0.0, 0.0]),
        a_star=np.array([1.0, 1.0, -1.0, 0.5, 0.5]),
    )
    init = sample_init(teacher, 3)
    schedule = dataclasses.replace(WarmupSchedule.for_k(5), stage1_iters=200)
    traj = run(init, teacher, schedule, max_iters=40_000)
    assert traj.outcome.kind == "converged_global"
    violations = monitor_trajectory(traj, teacher)
    assert violations == []
    assert basin_entry_index(traj, teacher) is not None


_MONITORED = TeacherSpec(v_star=np.array([0.8, 0.6, 0.0, 0.0]),
                         a_star=np.array([1.0, 1.0, -1.0, 0.5, 0.5]))


def test_a_report_whose_minimum_slack_is_minus_1e_6_fails():
    """INEQUALITY_TOL absorbs rounding at equality points, not a slack of -1e-6."""
    region = FilterBasinRegion(teacher=_MONITORED, min_alignment=0.2)
    assert not DissipativityReport(region, n_points=1, min_slack=-1e-6).passed
    assert DissipativityReport(region, n_points=1, min_slack=-1e-12).passed


def _monitored_trajectory(phi, a_dot_astar, w_err_sq, sum_a):
    n = len(phi)
    return Trajectory(
        t=np.arange(n), phi=np.array(phi), a_dot_astar=np.array(a_dot_astar),
        w_err_sq=np.array(w_err_sq), a_err_sq=np.zeros(n), loss=np.zeros(n),
        sum_a=np.array(sum_a), final_state=StudentState(w=_MONITORED.w_star, a=_MONITORED.a_star),
        outcome=Outcome("undecided", n - 1),
    )


def test_a_monitor_value_1e_6_past_its_bound_is_a_violation():
    """At t=0 in the basin; at t=1, s 1^T a - s^2 = 1e-6 > 0 and a^T a_star is 1e-6 above
    the teacher's upper bound, each past its bound by more than INEQUALITY_TOL."""
    teacher = _MONITORED
    s, upper = teacher.sum_a_star, teacher.alignment_upper
    traj = _monitored_trajectory(phi=[0.1, 0.1], a_dot_astar=[upper - 1.0, upper + 1e-6],
                                 w_err_sq=[0.01, 0.01], sum_a=[s, s + 1e-6 / s])
    assert basin_entry_index(traj, teacher) == 0
    violations = monitor_trajectory(traj, teacher)
    assert [(v.monitor, v.t, v.quantity) for v in violations] == [
        ("basin_persistence", 1, "a.a_star"), ("sum_envelope", 1, "s*sum_a - s^2")]


def test_a_monitor_value_within_inequality_tol_of_its_bound_holds():
    """At t=0 the angle is 5pi/12 + 5e-10 and a^T a_star its upper bound + 5e-10; at t=1,
    s 1^T a - s^2 = 5e-10 > 0. Each lies past its bound by less than INEQUALITY_TOL, so
    the basin is entered at t=0 and no monitor fires."""
    teacher = _MONITORED
    s, upper = teacher.sum_a_star, teacher.alignment_upper
    traj = _monitored_trajectory(phi=[ESCAPE_MAX_ANGLE + 5e-10, 0.1],
                                 a_dot_astar=[upper + 5e-10, upper - 1.0],
                                 w_err_sq=[0.01, 0.01], sum_a=[s, s + 2.5e-10])
    assert 0.0 < s * traj.sum_a[1] - s * s < INEQUALITY_TOL
    assert basin_entry_index(traj, teacher) == 0
    assert monitor_trajectory(traj, teacher) == []


def test_filter_contraction_is_checked_from_the_basin_entry_row_on():
    """The basin is entered at t=1: ||v - v_star|| rising from t=0 to t=1 is no violation,
    rising from t=1 to t=2 (0.2 to 0.3) is."""
    teacher = _MONITORED
    s, upper = teacher.sum_a_star, teacher.alignment_upper
    traj = _monitored_trajectory(phi=[1.5, 0.1, 0.1, 0.1], a_dot_astar=[upper - 1.0] * 4,
                                 w_err_sq=[0.01, 0.04, 0.09, 0.09], sum_a=[s] * 4)
    assert basin_entry_index(traj, teacher) == 1
    violations = monitor_trajectory(traj, teacher)
    assert [(v.monitor, v.t) for v in violations] == [("filter_contraction", 2)]
    assert (violations[0].observed, violations[0].bound) == pytest.approx((0.3, 0.2))


def test_monitor_negative_control_huge_step():
    teacher = random_teacher(5, 4, 11)
    init = sample_init(teacher, 1)
    # far above the stability threshold 2pi/(k+pi-1): the running sum explodes
    traj = run(init, teacher, ConstantSchedule(eta_a=10.0, eta_w=1e-6), max_iters=50)
    violations = monitor_trajectory(traj, teacher)
    assert any(v.monitor == "sum_envelope" for v in violations)


def test_stage_two_contraction_from_basin_start(analytic_schedule):
    teacher = random_teacher(5, 4, 13)
    sched = dataclasses.replace(analytic_schedule(teacher), stage1_iters=0)
    # start inside the basin: aligned output weights, small angle
    a0 = 0.5 * teacher.a_star
    u = np.zeros(4)
    u[np.argmin(np.abs(teacher.v_star))] = 1.0
    u -= (u @ teacher.v_star) * teacher.v_star
    u /= np.linalg.norm(u)
    v0 = np.cos(0.6) * teacher.v_star + np.sin(0.6) * u
    init = StudentState(w=v0 - teacher.shortcut, a=a0)
    assert float(a0 @ teacher.a_star) >= teacher.alignment_lower
    traj = run(init, teacher, sched, max_iters=30_000)
    violations = monitor_trajectory(traj, teacher)
    assert [v for v in violations if v.monitor != "sum_envelope"] == []
    assert basin_entry_index(traj, teacher) == 0


def test_refinement_filter_bound_above_four_covers_every_filter():
    # ||w - w_star||^2 <= 4 on the manifold, so filter_err_bound = 5 admits every
    # filter; cos(phi) is drawn on [max(-1, 1 - delta/2), 1] = [-1, 1], not on [-1.5, 1].
    teacher = random_teacher(5, 4, 0)
    region = RefinementRegion(teacher, 0.2 * teacher.a_star_norm_sq, teacher.alignment_upper, 5.0)
    report = check_dissipativity(region, 50, 0)
    assert report.n_points == 50 and report.passed
    state = _sample(region, [(3, 7)])[0]
    assert region_membership(state, region)


@pytest.mark.parametrize("n_points", [0, -1])
def test_reports_reject_fewer_than_one_point(n_points, tmp_path):
    teacher = random_teacher(5, 4, 9)
    with pytest.raises(ValueError):
        check_dissipativity(FilterBasinRegion(teacher, 0.2), n_points, 0)
    with pytest.raises(ValueError):
        negative_control_filter_basin(teacher, 0.2, n_points, 0)
    out = tmp_path / "r.json"
    argv = ["verify", "--negative-control", "1", "--points", str(n_points), "--out", str(out)]
    assert cli_main(argv) == 1
    assert not out.exists()


class _Sampling(Exception):
    """Raised in place of the first point's generator: the report got past its checks."""


@pytest.mark.parametrize("entry", ["check_dissipativity", "negative_control",
                                   "cli-region", "cli-negative-control"])
def test_reports_bound_the_point_count(entry, tmp_path, monkeypatch):
    def reached(keys):
        raise _Sampling
        yield

    monkeypatch.setattr(verification, "keyed_rngs", reached)
    teacher = random_teacher(5, 4, 9)
    out = tmp_path / "r.json"

    def report(n_points):
        if entry == "check_dissipativity":
            return check_dissipativity(FilterBasinRegion(teacher, 0.2), n_points, 0)
        if entry == "negative_control":
            return negative_control_filter_basin(teacher, 0.2, n_points, 0)
        flag = ["--negative-control", "1"] if entry == "cli-negative-control" else []
        return cli_main(["verify", *flag, "--points", str(n_points), "--out", str(out)])

    assert MAX_POINTS == 100_000
    with pytest.raises(_Sampling):
        report(MAX_POINTS)
    if entry.startswith("cli"):
        assert report(MAX_POINTS + 1) == 1
        assert not out.exists()
    else:
        with pytest.raises(ValueError, match="n_points"):
            report(MAX_POINTS + 1)


# The vector predicates the regions were first written with: the reference for
# the closed-coordinate predicates of landscape.py.


def _manifold_error(state):
    return abs(float(np.linalg.norm(state.v)) - 1.0)


def _reference_a_accepted(a, region, teacher):
    adot = float(a @ teacher.a_star)
    if isinstance(region, verification._NegativeAlignment):
        return adot < -1e-3
    if isinstance(region, EscapeRegion):
        s = teacher.sum_a_star
        norm_sq = teacher.a_star_norm_sq
        far = adot <= norm_sq / 20.0 or float(np.sum((a - teacher.a_star / 2.0) ** 2)) >= norm_sq
        return far and -3.0 * s * s <= s * float(a.sum()) - s * s <= 0.0
    if isinstance(region, FilterBasinRegion):
        return adot >= region.min_alignment
    return region.min_alignment <= adot <= region.max_alignment


def _reference_membership(state, region):
    teacher = region.teacher
    if not _manifold_error(state) <= MANIFOLD_TOL:
        return False
    a, a_star = state.a, teacher.a_star
    adot = float(a @ a_star)
    if isinstance(region, verification._NegativeAlignment):
        return adot < -1e-3
    if isinstance(region, EscapeRegion):
        s = teacher.sum_a_star
        norm_sq = teacher.a_star_norm_sq
        far = adot <= norm_sq / 20.0 or float(np.sum((a - a_star / 2.0) ** 2)) >= norm_sq
        envelope = -3.0 * s * s <= s * float(a.sum()) - s * s <= 0.0
        phi = math.acos(closed_coordinates(state, teacher)[0])
        return far and envelope and phi <= ESCAPE_MAX_ANGLE
    if isinstance(region, FilterBasinRegion):
        half_space = float(state.v @ teacher.v_star) >= 0.0
        return adot >= region.min_alignment and half_space
    w_err = float(np.sum((state.w - teacher.w_star) ** 2))
    return (
        region.min_alignment <= adot <= region.max_alignment
        and w_err <= region.filter_err_bound
    )


def _reference_direction_at(teacher, phi, rng):
    """The sampler's filter direction as first written: the reference for direction_at_angle
    (a draw with nothing orthogonal to v_star, of probability zero, has its own test)."""
    z = rng.standard_normal(teacher.p)
    z -= (z @ teacher.v_star) * teacher.v_star
    return np.cos(phi) * teacher.v_star + np.sin(phi) * (z / np.linalg.norm(z))


def test_direction_at_angle_matches_the_reference():
    angles = make_rng(0, 8).uniform(0.0, np.pi, 200)
    cos_sin = np.array([[np.cos(angle), np.sin(angle)] for angle in angles])
    for seed, (k, p) in enumerate([(2, 3), (2, 2), (5, 4), (25, 8)]):
        teacher = random_teacher(k, p, 80 + seed)
        rngs = [make_rng(i, 7) for i in range(len(angles))]
        z = np.array([rng.standard_normal(p) for rng in rngs])
        # all rows in one block, then in blocks of 7 and of 1
        blocks = [direction_at_angle(teacher.v_star, cos_sin, z.copy())]
        for size in (7, 1):
            blocks.append(np.concatenate([
                direction_at_angle(teacher.v_star, cos_sin[i:i + size], z[i:i + size].copy())
                for i in range(0, len(angles), size)]))
        for i, (angle, rng) in enumerate(zip(angles, rngs)):
            ref = make_rng(i, 7)
            want = _reference_direction_at(teacher, angle, ref).tobytes()
            assert all(got[i].tobytes() == want for got in blocks)
            assert rng.random() == ref.random()  # the same draws were used


def test_direction_at_angle_gives_a_row_along_the_axis_the_part_of_e_j_at_its_least_entry():
    # along e_0, the least |axis_j| is at j = 1, and e_1 is orthogonal to the axis already
    z = np.array([[3.0, 0.0, 0.0], [1.0, 2.0, 2.0], [-2.0, 0.0, 0.0]])
    v = direction_at_angle(np.array([1.0, 0.0, 0.0]), np.array([[0.6, 0.8]] * 3), z)
    assert np.allclose(v, [[0.6, 0.8, 0.0], [0.6, 0.8 / np.sqrt(2), 0.8 / np.sqrt(2)],
                           [0.6, 0.8, 0.0]], rtol=0, atol=1e-15)
    # along (2, -1, 2) / 3 the least entry is j = 1: e_1 + axis / 3 = (2, 8, 2) / 9, unit
    # (1, 4, 1) / sqrt(18); an all-zero row of normals has nothing orthogonal either
    axis = np.array([2.0, -1.0, 2.0]) / 3.0
    z = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    v = direction_at_angle(axis, np.array([[0.6, 0.8]] * 2), z)
    fallback, kept = np.array([1.0, 4.0, 1.0]) / np.sqrt(18.0), np.array([1.0, 0.0, -1.0])
    assert np.allclose(v, [0.6 * axis + 0.8 * fallback, 0.6 * axis + 0.8 * kept / np.sqrt(2)],
                       rtol=0, atol=1e-15)


class _ScriptedRng:
    """A stream whose filter angle is 0.3, whose fills of the p = 2 direction normals come
    from a script and whose proposals are all z = 1 at u = 1/8; each uniform is logged with
    the key and the normal fills drawn before it."""

    def __init__(self, key, fills, log):
        self.key, self.fills, self.log, self.used = key, list(fills), log, 0
        self.bit_generator = SimpleNamespace(state=None)  # never resumed here

    def uniform(self, low, high):
        return 0.3

    def standard_normal(self, out):
        if out.size == 1:
            out[:] = 1.0
        else:
            out[:] = self.fills[self.used]
            self.used += 1

    def random(self):
        self.log.append((self.key, self.used))
        return 0.125


def test_a_point_whose_normals_lie_along_v_star_draws_its_proposals_after_one_fill_of_them(
        monkeypatch):
    scripts, log = {(0, 0): [[2.0, 0.0]], (0, 1): [[1.0, -1.0]]}, []
    monkeypatch.setattr(verification, "keyed_rngs",
                        lambda keys: (_ScriptedRng(key, scripts[key], log) for key in keys))
    teacher = TeacherSpec(np.array([1.0, 0.0]), np.array([1.0]))
    block = list(verification._region_block(FilterBasinRegion(teacher, 0.2), list(scripts)))
    # each point draws its proposals right after its one fill of normals
    assert log == [((0, 0), 1)] * PROPOSAL_BLOCK + [((0, 1), 1)] * PROPOSAL_BLOCK
    # the point along v_star = e_0 takes e_1, the part of e_1 orthogonal to v_star
    v = np.array([[np.cos(0.3), np.sin(0.3)], [np.cos(0.3), -np.sin(0.3)]])
    assert np.allclose([w for _, w, _ in block] + teacher.shortcut, v, rtol=0, atol=1e-15)
    # the first proposal, 3 (1/8) = 0.375 >= 0.2, is accepted
    assert [a.tolist() for _, _, a in block] == [[0.375], [0.375]]


def _reference_sample(region, seed, stream=7):
    """The region sampler's draws on make_rng(seed, stream), accepted by the reference
    predicates, one proposal at a time."""
    teacher = region.teacher
    rng = make_rng(seed, stream)
    w = _reference_direction_at(teacher, region.draw_filter_angle(rng), rng) - teacher.shortcut
    radius = 3.0 * max(np.sqrt(teacher.a_star_norm_sq), 1.0)
    for _ in range(MAX_PROPOSALS):
        z = rng.standard_normal(teacher.k)
        a = radius * rng.random() ** (1.0 / teacher.k) * (z / np.linalg.norm(z))
        if _reference_a_accepted(a, region, teacher):
            state = StudentState(w=w, a=a)
            if _reference_membership(state, region):
                return state
    raise AssertionError("no reference draw")


def test_sampler_draws_what_the_reference_predicates_accept():
    cases = [(region, seed) for seed, (k, p) in enumerate([(2, 2), (5, 4), (25, 8), (1, 3)])
             for region in _laws_for(random_teacher(k, p, 60 + seed))]
    # at ||a_star|| = 1e-3, one proposal of the control in six has a^T a_star in (-1e-3, 0)
    cases.append((verification._NegativeAlignment(random_teacher(1, 3, 64, a_norm=1e-3)), 4))
    for region, seed in cases:
        keys = [(100 * seed + point, 7) for point in range(40)]
        for key, got in zip(keys, _sample(region, keys), strict=True):
            want = _reference_sample(region, *key)
            assert got.w.tobytes() == want.w.tobytes()
            assert got.a.tobytes() == want.a.tobytes()


class _CountingRng:
    """A generator that counts the sampler's draws: its uniforms and its fills of a row
    (standard_normal with out=)."""

    def __init__(self, rng):
        self.rng, self.uniforms, self.fills = rng, 0, 0

    def random(self):
        self.uniforms += 1
        return self.rng.random()

    def standard_normal(self, *, out):
        self.fills += 1
        return self.rng.standard_normal(out=out)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _count_draws(monkeypatch):
    """Wrap the generator keyed_rngs re-keys for each point of a block, and that resumes the
    block's saved streams, in one _CountingRng per block; returns the list of them."""
    counters = []

    def keyed(keys):
        for rng in model.keyed_rngs(keys):
            if not counters or counters[-1].rng is not rng:
                counters.append(_CountingRng(rng))
            yield counters[-1]

    monkeypatch.setattr(verification, "keyed_rngs", keyed)
    return counters


def test_block_sampler_matches_the_reference_where_acceptance_falls_past_the_first_blocks(
        monkeypatch):
    # this escape teacher keeps about 1 proposal in 48
    region = EscapeRegion(teacher=random_teacher(2, 2, seed=14300))
    counters = _count_draws(monkeypatch)
    keys = [(point, 7) for point in range(40)]
    drawn = []
    for key in keys:
        got = _sample(region, [key])[0]
        want = _reference_sample(region, *key)
        assert got.w.tobytes() == want.w.tobytes()
        assert got.a.tobytes() == want.a.tobytes()
        rng = counters[-1]
        # one fill for the filter's normals, then one per proposal, each with its uniform
        assert rng.fills == rng.uniforms + 1 and rng.uniforms % PROPOSAL_BLOCK == 0
        drawn.append(rng.uniforms)
    assert max(drawn) >= 10 * PROPOSAL_BLOCK
    together = _sample(region, keys)
    assert counters[-1].uniforms == sum(drawn)
    for got, want in zip(together, (_sample(region, [key])[0] for key in keys), strict=True):
        assert got.w.tobytes() == want.w.tobytes() and got.a.tobytes() == want.a.tobytes()


# budgets below one proposal block, at a multiple of it and cutting the last block
@pytest.mark.parametrize("budget", [1, 6, 13])
def test_a_region_that_never_accepts_is_refused_after_exactly_max_proposals(monkeypatch, budget):
    assert MAX_PROPOSALS == 100_000  # the budget README and model.MAX_DIM's bound state
    monkeypatch.setattr(verification, "MAX_PROPOSALS", budget)
    regions = [
        # a^T a_star <= ||a|| ||a_star|| stays far below this alignment on the proposal ball
        FilterBasinRegion(random_teacher(5, 4, 3), min_alignment=1e6),
        # |a^T a_star| <= 3 ||a_star|| = 3e-4 on the control's ball, never below -1e-3
        verification._NegativeAlignment(random_teacher(5, 4, 3, a_norm=1e-4)),
    ]
    counters = _count_draws(monkeypatch)
    for region in regions:
        for n_points in (1, 3):
            with pytest.raises(InfeasibleRegionError, match=f"after {budget} proposals"):
                _sample(region, [(0, 7 + i) for i in range(n_points)])
            rng = counters[-1]
            assert rng.uniforms == rng.fills - n_points == n_points * budget
    with pytest.raises(InfeasibleRegionError, match=f"after {budget} proposals"):
        negative_control_filter_basin(regions[1].teacher, 0.2, 1, 0)


def test_a_point_reads_the_same_bits_whichever_points_share_its_block(monkeypatch):
    sample, block_points, reads = verification._region_block, verification._block_points, []
    monkeypatch.setattr(verification, "ball_points",
                        lambda *args: reads.append(1) or model.ball_points(*args))

    def recording(region, keys):
        reads.clear()
        block = list(sample(region, keys))
        rounds.append(len(reads))
        points.extend((tuple(map(float.hex, c)), w.tobytes(), a.tobytes()) for c, w, a in block)
        return block

    monkeypatch.setattr(verification, "_region_block", recording)
    # the escape teacher of 1 kept proposal in 48 resumes points through 10 or more blocks
    slow = EscapeRegion(random_teacher(2, 2, seed=14300))
    teacher = random_teacher(5, 4, 3)
    reports = [(region, partial(check_dissipativity, region))
               for region in [*_regions_for(teacher), slow]]
    reports.append((FilterBasinRegion(teacher, 0.2),
                    partial(negative_control_filter_basin, teacher, 0.2)))
    for region, report_of in reports:
        default = block_points(region.teacher)
        assert default > 60
        runs = []
        for size in (default, 1, 7):
            points, rounds = [], []
            monkeypatch.setattr(verification, "_block_points", lambda teacher, size=size: size)
            report = report_of(60, 5)
            assert len(points) == 60 and len(rounds) == -(-60 // size)
            runs.append((points, report.min_slack.hex(), len(report.violating_points)))
            if size == 1 and region is slow:
                assert max(rounds) >= 10
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_point_block_holds_at_most_its_float_bound_at_max_points(monkeypatch):
    class Sampled(Exception):
        pass

    def first_block(region, keys):
        sizes.append(len(keys))
        raise Sampled

    monkeypatch.setattr(verification, "_region_block", first_block)
    assert POINT_BLOCK_FLOATS == 2**15
    big = TeacherSpec(np.full(MAX_DIM, 0.01), np.ones(MAX_DIM))
    firsts = []
    for teacher in (big, random_teacher(1, 2, 0), random_teacher(25, 8, 0)):
        sizes = []
        with pytest.raises(Sampled):
            check_dissipativity(EscapeRegion(teacher), MAX_POINTS, 0)
        per_point = teacher.p + PROPOSAL_BLOCK * (teacher.k + 1)
        assert sizes == [max(1, POINT_BLOCK_FLOATS // per_point)]
        assert sizes[0] * per_point <= max(POINT_BLOCK_FLOATS, per_point)
        firsts += sizes
    # at k = p = MAX_DIM a block is one point: 10^4 normals and 4 (10^4 + 1) proposals
    assert firsts == [1, 3276, 292]


_U = 2.0 ** -53  # unit roundoff of float64


def _exact(x):
    return [Fraction(float(v)) for v in np.asarray(x, dtype=float)]


def _face_margins(state, region):
    """(exact quantity - threshold, band) for every face whose two predicates differ in arithmetic.

    The reference and the closed predicate compute each face's quantity from
    the same floats in different orders. A floating-point sum of n products
    is within gamma_n sum |terms| of the exact value, gamma_n = n u / (1 - n u)
    <= 2 n u. Each side is a combination of at most four such sums of at most
    k + 3 rounded operations each (the differences d = a - a_star, the dot
    products, the stored N = ||a_star||^2 and s = 1^T a_star, the final
    additions), and every |term| sum is at most S = (k + 1)(||a|| + ||a_star||)^2:
    |a^T a_star|, ||d|| ||a_star||, N and ||a - a_star/2||^2 are at most
    (||a|| + ||a_star||)^2, and |s| ||a||_1, |s| ||d||_1 and s^2 at most k times
    that. So each side is within 4 gamma_{k+3} S of the exact quantity, and the
    predicates can differ only within 8 gamma_{k+3} S <= 16 (k + 3) u S of the
    threshold.

    The refinement filter face compares ||w - w_star||^2 (reference) with
    2 - 2x (closed). The reference sum is within gamma_{p+2} W of the exact
    value, W = (||w|| + ||w_star||)^2; rounding w_star = v_star - shortcut moves
    it by at most 3 u W; x is within gamma_{2p+7} of the exact cosine, so
    2 - 2x is within 2 gamma_{2p+9}. Off the unit sphere by e = |(||v|| - 1)| +
    |(||v_star|| - 1)|, ||v - v_star||^2 and 2 - 2 cos differ by at most
    4 e + e^2. Together: 8 (p + 5) u (W + 1) + 4 e + e^2.

    The other faces (the manifold test, the escape angle arccos x and the
    half-space sign of v^T v_star) are computed from the same floats by the
    same operations on both sides, so their band is zero.
    """
    teacher = region.teacher
    a, a_star = _exact(state.a), _exact(teacher.a_star)
    k, p = teacher.k, teacher.p
    big_s = (k + 1) * (np.linalg.norm(state.a) + np.linalg.norm(teacher.a_star)) ** 2
    band_a = 16 * (k + 3) * _U * big_s * (1 + 1e-12)
    adot = sum(x * y for x, y in zip(a, a_star))
    norm_sq = teacher.a_star_norm_sq
    if isinstance(region, EscapeRegion):
        s = Fraction(teacher.sum_a_star)
        half_gap = sum((x - y / 2) ** 2 for x, y in zip(a, a_star))
        drift = s * (sum(a) - s)
        return [(adot - Fraction(norm_sq / 20.0), band_a), (half_gap - Fraction(norm_sq), band_a),
                (drift - Fraction(-3.0 * teacher.sum_a_star ** 2), band_a), (drift, band_a)]
    if isinstance(region, FilterBasinRegion):
        return [(adot - Fraction(region.min_alignment), band_a)]
    w_err = sum((x - y) ** 2 for x, y in zip(_exact(state.w), _exact(teacher.w_star)))
    big_w = (np.linalg.norm(state.w) + np.linalg.norm(teacher.w_star)) ** 2
    e = _manifold_error(state) + abs(np.linalg.norm(teacher.v_star) - 1.0) + 4 * (p + 1) * _U
    band_w = 8 * (p + 5) * _U * (big_w + 1) + 4 * e + e * e
    return [(adot - Fraction(region.min_alignment), band_a),
            (adot - Fraction(region.max_alignment), band_a),
            (w_err - Fraction(region.filter_err_bound), band_w)]


def _nudge(x, rng, ulps):
    """x with one random entry moved by `ulps` units in its last place."""
    x = np.array(x, dtype=float)
    j = int(rng.integers(x.size))
    for _ in range(abs(ulps)):
        x[j] = np.nextafter(x[j], np.inf if ulps > 0 else -np.inf)
    return x


_FACES = ("none", "aligned_low", "aligned_high", "escape_aligned", "escape_far", "envelope_low",
          "envelope_high", "angle", "half_space", "filter_error", "manifold")


@st.composite
def _membership_cases(draw):
    """A teacher, its three regions and a state, often placed a few ulps off one face."""
    k, p = draw(st.integers(1, 25)), draw(st.integers(2, 8))
    teacher = random_teacher(k, p, draw(st.integers(0, 2**32 - 1)),
                             a_norm=draw(st.floats(0.1, 5.0)))
    n = teacher.a_star_norm_sq
    m = draw(st.floats(0.01, 2.0)) * n
    big_m = m + draw(st.floats(0.0, 3.0)) * n
    delta = draw(st.floats(0.001, 4.5))
    regions = (EscapeRegion(teacher), FilterBasinRegion(teacher, m),
               RefinementRegion(teacher, m, big_m, delta))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    face, ulps = draw(st.sampled_from(_FACES)), draw(st.integers(-4, 4))
    a_star, v_star, s = teacher.a_star, teacher.v_star, teacher.sum_a_star
    a = draw(st.floats(0.0, 3.0)) * rng.standard_normal(k)
    u = rng.standard_normal(p)
    u -= (u @ v_star) * v_star
    u = u / np.linalg.norm(u) if np.linalg.norm(u) > 1e-8 else v_star
    x = rng.uniform(-1.0, 1.0)
    if face in ("aligned_low", "aligned_high", "escape_aligned"):
        target = {"aligned_low": m, "aligned_high": big_m, "escape_aligned": n / 20.0}[face]
        a = a + (target - a @ a_star) / n * a_star
    elif face == "escape_far":
        c = a - a_star / 2.0
        a = a_star / 2.0 + np.sqrt(n) * c / max(np.linalg.norm(c), 1e-300)
    elif face in ("envelope_low", "envelope_high") and s != 0.0:
        a = a + ((-2.0 * s if face == "envelope_low" else s) - a.sum()) / k
    elif face == "angle":
        x = np.cos(ESCAPE_MAX_ANGLE)
    elif face == "half_space":
        x = 0.0
    elif face == "filter_error":
        x = max(-1.0, 1.0 - delta / 2.0)
    v = x * v_star + np.sqrt(1.0 - x * x) * u
    if face == "manifold":
        v = v * (1.0 + MANIFOLD_TOL)
    if face in ("angle", "half_space", "filter_error", "manifold"):
        v = _nudge(v, rng, ulps)
    elif face != "none":
        a = _nudge(a, rng, ulps)
    return regions, StudentState(w=v - teacher.shortcut, a=a)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_membership_cases())
def test_closed_membership_matches_the_vector_predicates(case):
    """region_membership on the closed coordinates agrees with the vector predicates,
    except where a face's exact quantity lies within its derived rounding band
    (_face_margins); a state exactly on a shared-arithmetic face must agree."""
    regions, state = case
    for region in regions:
        got, want = region_membership(state, region), _reference_membership(state, region)
        if got != want:
            near = [(float(q), band) for q, band in _face_margins(state, region) if abs(q) <= band]
            assert near, (type(region).__name__, got, want, _face_margins(state, region))


# The inequalities as they were first written, on the vectors grad_a and grad_w: the
# reference for the closed-coordinate slack of landscape.py.


def _reference_slack(state, region):
    teacher = region.teacher
    if isinstance(region, FilterBasinRegion):
        grad, diff, offset = grad_w(state, teacher), teacher.w_star - state.w, 0.0
    else:
        grad, diff = grad_a(state, teacher), teacher.a_star - state.a
        offset = region.filter_err_bound / 5.0 if isinstance(region, RefinementRegion) else 0.0
    return float(-grad @ diff) - (region.constant * float(diff @ diff) - offset)


def _slack_band(state, region):
    """How far region.slack and _reference_slack may differ at one state by rounding.

    Write L = ||a||_1 + ||a_star||_1 and u = 2^-53, and recall that a sum of n
    rounded products is within gamma_n sum |terms| of its exact value,
    gamma_n = n u / (1 - n u) <= 2 n u.

    Output weights (escape, refinement). The reference forms 2pi grad_a =
    (1^T d) 1 + (pi - 1) d + (pi - g) a_star entry by entry (at most k + 4
    roundings), then its dot with a_star - a; the closed side forms 1^T d,
    ||d||^2 and a_star^T d (at most k + 2 roundings each) and combines them in
    five more. Every |term| sum is at most (1 + 2pi) L^2 / 2pi < 1.2 L^2, since
    sum_j (|a_j| + |a_star_j|) |d_j| <= L^2, |g - 1| <= pi and |pi - g| <= pi.
    With the constant term c ||d||^2 (c <= 1/2) and the final additions, both
    sides together are within 7 gamma_{2k+6} L^2 <= 32 (k + 3) u L^2 of each
    other, plus one rounding of the offset, at most delta/5 < 1. Both sides
    read g as relu_kernel_at_cos(x) at the same x.

    Filter (basin). Let e be the distance of ||v|| and ||v_star|| from 1 plus
    the rounding of the norms, W = (||w|| + ||w_star||)^2 and m = min_alignment.
    With v and v_star of norms 1 + eps and 1 + eps_star, the exact
    (v_star - (v . v_star) v) . (v_star - v) differs from 1 - x^2 by at most
    6e + 9e^2; its rounding (the dot v . v_star, the projection, the differences
    w_star - w against v_star - v, the final dot, and x itself, within
    gamma_{2p+3}) adds at most 20 gamma_{2p+3} <= 40 (2p + 3) u. It is scaled
    by a^T a_star (pi - phi) / 2pi, at most L^2 / 2. Both sides read a^T a_star
    as a_star^T d + N, within gamma_{k+2} L^2 of exact, which the factor (1 - x^2)(pi - phi) / 2pi <= 1/2 scales; both read
    pi - phi from relu_kernel_at_cos(x). ||w_star - w||^2 and 2 - 2x differ by
    8 (p + 5) u (W + 1) + 4e + e^2 (as in _face_margins), scaled by m/8. The
    final products and sums add 8 u (L^2 + m). Each term is taken with a
    margin of at least 2.
    """
    teacher = region.teacher
    k, p = teacher.k, teacher.p
    l_sq = float(np.abs(state.a).sum() + np.abs(teacher.a_star).sum()) ** 2
    if not isinstance(region, FilterBasinRegion):
        return 32 * (k + 3) * _U * l_sq + _U
    e = _manifold_error(state) + abs(np.linalg.norm(teacher.v_star) - 1.0) + 4 * (p + 1) * _U
    big_w = (np.linalg.norm(state.w) + np.linalg.norm(teacher.w_star)) ** 2
    m = region.min_alignment
    return (l_sq * (40 * (2 * p + 3) * _U + 6 * e + 9 * e * e + 4 * (k + 2) * _U + 8 * _U)
            + m * (8 * (p + 5) * _U * (big_w + 1) + 4 * e + e * e + 8 * _U))


def _inside(region, rng, t):
    """A state inside the region by construction (up to rounding), t in [0, 1].

    Escape: a = -2t a_star + r with r orthogonal to 1 and a_star, so
    a^T a_star = -2t N <= N/20 and s 1^T d = -(1 + 2t) s^2. Basin and refinement:
    a random a moved along a_star to a^T a_star = m + 3tN, or to m + t (M - m).
    """
    teacher = region.teacher
    a_star, n, k = teacher.a_star, teacher.a_star_norm_sq, teacher.k
    r = rng.standard_normal(k)
    if isinstance(region, EscapeRegion):
        q = np.linalg.qr(np.stack([np.ones(k), a_star], axis=1))[0]
        a = -2.0 * t * a_star + (r - q @ (q.T @ r))
        x = rng.uniform(np.cos(ESCAPE_MAX_ANGLE), 1.0)
    else:
        m = region.min_alignment
        if isinstance(region, FilterBasinRegion):
            target, x = m + 3.0 * t * n, rng.uniform(0.0, 1.0)
        else:
            target = m + t * (region.max_alignment - m)
            x = rng.uniform(max(-1.0, 1.0 - region.filter_err_bound / 2.0), 1.0)
        a = r + (target - r @ a_star) / n * a_star
    u = rng.standard_normal(teacher.p)
    u -= (u @ teacher.v_star) * teacher.v_star
    u = u / np.linalg.norm(u) if np.linalg.norm(u) > 1e-8 else teacher.v_star
    v = x * teacher.v_star + np.sqrt(1.0 - x * x) * u
    return StudentState(w=v - teacher.shortcut, a=a)


@st.composite
def _slack_cases(draw):
    """A teacher's three regions and a state: either a membership case (on or
    near a face, inside some regions and outside others) or a state built
    inside one region; then moved radially up to MANIFOLD_TOL off the manifold."""
    regions, state = draw(_membership_cases())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        state = _inside(draw(st.sampled_from(regions)), rng, draw(st.floats(0.0, 1.0)))
    teacher = regions[0].teacher
    v = state.v / np.linalg.norm(state.v) * (1.0 + draw(st.floats(-1.0, 1.0)) * MANIFOLD_TOL)
    state = StudentState(w=v - teacher.shortcut, a=state.a)
    assume(_manifold_error(state) <= MANIFOLD_TOL)
    return regions, state


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_slack_cases())
def test_closed_slack_matches_the_vector_reference(case):
    """region.slack at the state's closed coordinates agrees with the inequality
    evaluated on the vectors grad_a/grad_w, within the rounding band derived in
    _slack_band, at states inside and outside each region."""
    regions, state = case
    for region in regions:
        got = region.slack(*closed_coordinates(state, region.teacher))
        want = _reference_slack(state, region)
        assert abs(got - want) <= _slack_band(state, region), (
            type(region).__name__, got, want, _slack_band(state, region))
