from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortcut_gd.cli import cli_main
from shortcut_gd.geometry import relu_kernel, shortcut_direction
from shortcut_gd.landscape import (
    ESCAPE_MAX_ANGLE,
    EscapeRegion,
    FilterBasinRegion,
    RefinementRegion,
    filter_angle,
    region_membership,
)
from shortcut_gd.model import MANIFOLD_TOL, StudentState, TeacherSpec, make_rng, random_teacher
from shortcut_gd.optimizer import run, sample_init
from shortcut_gd.schedules import AnalyticRateSchedule, ConstantSchedule, WarmupSchedule
from shortcut_gd.verification import (
    MAX_PROPOSALS,
    _filter_direction_at,
    basin_entry_index,
    check_dissipativity,
    dissipativity_slack,
    monitor_trajectory,
    negative_control_filter_basin,
    sample_region,
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


def test_sample_region_membership_and_determinism():
    for seed, (k, p) in enumerate([(2, 2), (5, 4), (25, 8)]):
        teacher = random_teacher(k, p, seed)
        for region in _regions_for(teacher):
            state = sample_region(region, seed=40 + seed)
            assert region_membership(state, region)
            again = sample_region(region, seed=40 + seed)
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
    slack, constant = dissipativity_slack(state, EscapeRegion(teacher=teacher))
    g = relu_kernel(filter_angle(state, teacher))
    s = teacher.sum_a_star
    nrm2 = teacher.a_star_norm_sq
    expected = s * s / (2 * np.pi) + (g - 1.0) / (2 * np.pi) * nrm2 - nrm2 / (10 * np.pi)
    assert slack == pytest.approx(expected, abs=1e-12)
    assert slack >= 0.0
    assert constant == pytest.approx(1.0 / (10 * np.pi), abs=1e-15)


def test_filter_basin_slack_zero_at_truth():
    teacher = random_teacher(3, 5, 2)
    state = StudentState(w=teacher.w_star, a=teacher.a_star)
    slack, _ = dissipativity_slack(state, FilterBasinRegion(teacher=teacher, min_alignment=0.2))
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
    slack, _ = dissipativity_slack(state, region)
    assert slack >= -1e-9


def test_negative_control_detects_violations():
    teacher = random_teacher(5, 4, 9)
    report = negative_control_filter_basin(teacher, min_alignment=0.2, n_points=200, seed=1)
    assert len(report.violating_points) > 0
    assert report.min_slack < -1e-9


def test_report_serialization():
    teacher = random_teacher(2, 2, 0)
    report = check_dissipativity(FilterBasinRegion(teacher=teacher, min_alignment=0.1),
                                 n_points=50, seed=0)
    blob = report.to_dict()
    assert blob["region"] == "FilterBasinRegion"
    assert blob["passed"] is True
    assert blob["n_points"] == 50
    assert blob["region_params"]["min_alignment"] == 0.1


def test_monitor_unknown_id():
    teacher = random_teacher(2, 2, 0)
    traj = run(sample_init(teacher, 0), teacher, ConstantSchedule(0.01, 0.01), max_iters=5)
    with pytest.raises(ValueError):
        monitor_trajectory(traj, teacher, monitors=("no_such_monitor",))


def test_monitors_clean_on_warmup_run():
    teacher = TeacherSpec(
        p=4, k=5,
        v_star=np.array([0.8, 0.6, 0.0, 0.0]),
        a_star=np.array([1.0, 1.0, -1.0, 0.5, 0.5]),
    )
    init = sample_init(teacher, 3)
    traj = run(init, teacher, WarmupSchedule.for_k(5, stage1_iters=200), max_iters=40_000)
    assert traj.outcome.kind == "converged_global"
    violations = monitor_trajectory(traj, teacher)
    assert violations == []
    assert basin_entry_index(traj, teacher) is not None


def test_monitor_negative_control_huge_step():
    teacher = random_teacher(5, 4, 11)
    init = sample_init(teacher, 1)
    # far above the stability threshold 2pi/(k+pi-1): the running sum explodes
    traj = run(init, teacher, ConstantSchedule(eta_a=10.0, eta_w=1e-6), max_iters=50)
    violations = monitor_trajectory(traj, teacher, monitors=("sum_envelope",))
    assert len(violations) > 0
    assert all(v.monitor == "sum_envelope" for v in violations)


def test_stage_two_contraction_from_basin_start():
    teacher = random_teacher(5, 4, 13)
    sched = AnalyticRateSchedule.from_teacher(teacher, stage1_iters=0)
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
    violations = monitor_trajectory(
        traj, teacher, monitors=("basin_persistence", "filter_contraction")
    )
    assert violations == []
    assert basin_entry_index(traj, teacher) == 0


def test_refinement_filter_bound_above_four_covers_every_filter():
    # ||w - w_star||^2 <= 4 on the manifold, so filter_err_bound = 5 admits every
    # filter; cos(phi) is drawn on [max(-1, 1 - delta/2), 1] = [-1, 1], not on [-1.5, 1].
    teacher = random_teacher(5, 4, 0)
    region = RefinementRegion(teacher, 0.2 * teacher.a_star_norm_sq, teacher.alignment_upper, 5.0)
    report = check_dissipativity(region, 50, 0)
    assert report.n_points == 50 and report.passed
    state = sample_region(region, seed=3)
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


# The vector predicates the regions were first written with: the reference for
# the closed-coordinate predicates of landscape.py.


def _reference_a_accepted(a, region, teacher):
    adot = float(a @ teacher.a_star)
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
    if not state.on_manifold(MANIFOLD_TOL):
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
    w_err = float(np.sum((state.w - teacher.w_star) ** 2))
    return (
        region.min_alignment <= adot <= region.max_alignment
        and w_err <= region.filter_err_bound
    )


def _reference_sample(region, seed):
    """sample_region's draws, accepted by the reference predicates."""
    teacher = region.teacher
    rng = make_rng(seed, 7)
    w = _filter_direction_at(teacher, region.draw_filter_angle(rng), rng) - teacher.shortcut
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
    for seed, (k, p) in enumerate([(2, 2), (5, 4), (25, 8), (1, 1)]):
        for region in _regions_for(random_teacher(k, p, 60 + seed)):
            for point in range(40):
                got, want = sample_region(region, 100 * seed + point), _reference_sample(
                    region, 100 * seed + point)
                assert got.w.tobytes() == want.w.tobytes()
                assert got.a.tobytes() == want.a.tobytes()


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
    e = state.manifold_error() + abs(np.linalg.norm(teacher.v_star) - 1.0) + 4 * (p + 1) * _U
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
    k, p = draw(st.integers(1, 25)), draw(st.integers(1, 8))
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
