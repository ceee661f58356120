import dataclasses
import itertools
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shortcut_gd import optimizer
from shortcut_gd.batch import (
    _E_MINUS_MAX, _E_PLUS_MAX, _G_MINUS, _G_PLUS, KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED,
    WINDOW, X_MINUS, X_PLUS, Regions, closed_step, run_batch,
)
from shortcut_gd.experiments import (
    DEFAULT_INIT_LAWS, SUPPORTED_K, VARIANTS, SweepConfig, fixed_a0_k25, schedule_for,
    teacher_for_k,
)
from shortcut_gd.landscape import (
    OffManifoldError, basin_bounds, closed_coordinates, closed_loss, closed_rows, critical_points,
    grad_a, grad_w, population_loss,
)
from shortcut_gd.model import (
    MANIFOLD_TOL, StudentState, TeacherSpec, ball_points, make_rng, random_state, random_teacher,
    shortcut_direction,
)
from shortcut_gd.optimizer import (
    BASIN_CHECK_AFTER,
    DEFAULT_MAX_ITERS,
    GLOBAL_TOL,
    INIT_LAWS,
    KINDS,
    MAX_ITERS,
    MAX_ROWS,
    SPURIOUS_CHECK_EVERY,
    Outcome,
    _closed_kind,
    cnn_run,
    draw_starts,
    gaussian_init,
    run,
    sample_cnn_init,
    sample_init,
)
from shortcut_gd.schedules import ConstantSchedule, WarmupSchedule


def _spurious_state(teacher):
    cp = critical_points(teacher)
    return StudentState(w=cp.spurious_w, a=cp.spurious_a)


def gd_step(state, teacher, eta_w, eta_a):
    """One simultaneous update on the vectors, both gradients taken at the old iterate.

    The reference that run() is pinned against: the step sizes are checked,
    the state is read through the gradients' checks and the filter step is
    pulled back onto the manifold: v = shortcut + w', then w = v / ||v|| - shortcut.
    """
    if eta_w <= 0 or eta_a <= 0:
        raise ValueError("step sizes must be positive")
    v = teacher.shortcut + (state.w - eta_w * grad_w(state, teacher))
    return StudentState(w=v / np.linalg.norm(v) - teacher.shortcut,
                        a=state.a - eta_a * grad_a(state, teacher))


def test_gd_step_fixed_points():
    for seed in range(4):
        t = random_teacher(4, 3, seed, a_norm=1.8)
        for state in (StudentState(w=t.w_star, a=t.a_star), _spurious_state(t)):
            stepped = gd_step(state, t, eta_w=0.3, eta_a=0.2)
            assert np.allclose(stepped.w, state.w, atol=1e-12)
            assert np.allclose(stepped.a, state.a, atol=1e-12)


def test_gd_step_from_zero_state():
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    state = StudentState(w=np.zeros(2), a=np.zeros(2))
    eta_a = 0.1
    stepped = gd_step(state, t, eta_w=0.05, eta_a=eta_a)
    phi = math.acos(closed_coordinates(state, t)[0])
    g0 = (np.pi - phi) * np.cos(phi) + np.sin(phi)
    s = t.sum_a_star
    expected_a = eta_a / (2 * np.pi) * (s + (g0 - 1.0) * t.a_star)
    assert np.allclose(stepped.a, expected_a, atol=1e-14)
    assert abs(np.linalg.norm(stepped.v) - 1.0) <= 1e-12


def test_gd_step_preserves_manifold():
    t = random_teacher(5, 6, 2, a_norm=2.0)
    state = StudentState(w=np.zeros(6), a=gaussian_init(t, 0).a)
    for _ in range(200):
        state = gd_step(state, t, eta_w=0.02, eta_a=0.02)
        assert abs(np.linalg.norm(state.v) - 1.0) <= 1e-9


def test_sample_init_ball_properties():
    t = teacher_for_k(25)
    radius = abs(t.sum_a_star) / np.sqrt(t.k)
    for seed in range(200):
        init = sample_init(t, seed)
        assert np.all(init.w == 0.0)
        assert np.linalg.norm(init.a) <= radius + 1e-12
        # |1^T a_0| <= sqrt(k) ||a_0|| <= |1^T a_star|
        assert abs(init.a.sum()) <= abs(t.sum_a_star) + 1e-12


def test_sample_init_zero_sum_teacher():
    t = TeacherSpec([1.0, 0.0], [1.0, -1.0])
    init = sample_init(t, 3)
    assert np.all(init.a == 0.0)


def test_sample_init_deterministic():
    t = teacher_for_k(16)
    assert np.array_equal(sample_init(t, 5).a, sample_init(t, 5).a)
    assert not np.array_equal(sample_init(t, 5).a, sample_init(t, 6).a)


def test_gaussian_init_scale():
    t = teacher_for_k(100)
    norms = [np.linalg.norm(gaussian_init(t, seed).a) for seed in range(50)]
    # component scale 1/sqrt(k) puts the total norm near 1
    assert 0.75 <= float(np.mean(norms)) <= 1.25


def test_classify_outcome_cases():
    # the outcome tests of run() (_closed_kind) at the closed coordinates of a state
    t = teacher_for_k(25)
    at_truth = StudentState(w=t.w_star, a=t.a_star)
    assert _closed_kind(*closed_coordinates(at_truth, t), t) == "converged_global"

    spur = _spurious_state(t)
    spur_coords = closed_coordinates(spur, t)
    assert _closed_kind(*spur_coords, t) == "trapped_spurious"
    # the spurious filter has angle exactly pi and squared distance 4 from w_star
    assert math.acos(spur_coords[0]) == pytest.approx(np.pi, abs=1e-12)
    assert float(np.sum((spur.w - t.w_star) ** 2)) == pytest.approx(4.0, abs=1e-12)

    halfway = StudentState(
        w=np.array([0.0, 1.0] + [0.0] * 6) - shortcut_direction(8), a=np.zeros(25)
    )
    assert _closed_kind(*closed_coordinates(halfway, t), t) == "undecided"
    with pytest.raises(ValueError):
        Outcome("converged", 0)


def test_the_basin_test_reads_both_alignment_bounds():
    """With basin, a state at angle 1 < 5pi/12 counts as converged_global exactly when
    a_star^T a lies in [alignment_lower, alignment_upper], the bounds the monitors read."""
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])  # alignment bounds [0.4, 14]
    (_, phi_max), (lower, upper) = basin_bounds(t)
    assert (phi_max, lower, upper) == (5 * np.pi / 12, 0.4, 14.0)
    v = np.array([math.cos(1.0), math.sin(1.0)])
    for scale, expected in ((0.15, "undecided"), (0.25, "converged_global"),
                            (7.0, "converged_global"), (7.1, "undecided"), (50.0, "undecided")):
        state = StudentState(w=v - t.shortcut, a=scale * t.a_star)
        coords = closed_coordinates(state, t)
        assert _closed_kind(*coords, t) == "undecided"
        assert _closed_kind(*coords, t, basin=True) == expected, scale


def test_run_converges_immediately_at_optimum():
    t = random_teacher(3, 4, 1)
    traj = run(StudentState(w=t.w_star, a=t.a_star), t, ConstantSchedule(0.1, 0.1), max_iters=10)
    assert traj.outcome.kind == "converged_global"
    assert traj.outcome.iters == 0


def test_run_ssw_converges_from_fixed_init():
    t = teacher_for_k(25)
    init = StudentState(w=np.zeros(8), a=fixed_a0_k25())
    traj = run(init, t, WarmupSchedule.for_k(25), max_iters=100_000, record_stride=100)
    assert traj.outcome.kind == "converged_global"
    assert traj.outcome.iters <= 50_000
    # every recorded iterate satisfies the basic invariants
    assert np.all(np.diff(traj.t) > 0)
    assert np.all((traj.phi >= 0) & (traj.phi <= np.pi))
    assert np.all(traj.loss >= -1e-12)
    assert abs(np.linalg.norm(traj.final_state.v) - 1.0) <= 1e-9


def test_run_constant_gets_trapped_from_fixed_init():
    t = teacher_for_k(25)
    init = StudentState(w=np.zeros(8), a=fixed_a0_k25())
    traj = run(
        init, t, ConstantSchedule.for_k(25), max_iters=200_000,
        record_stride=500, stop_on_spurious=True,
    )
    assert traj.outcome.kind == "trapped_spurious"
    assert traj.phi[-1] >= np.pi - 0.1
    assert abs(traj.w_err_sq[-1] - 4.0) <= 0.2


def test_run_deterministic():
    t = teacher_for_k(16)
    init = sample_init(t, 11)
    kwargs = dict(max_iters=3000, record_stride=50)
    t1 = run(init, t, ConstantSchedule.for_k(16), **kwargs)
    t2 = run(init, t, ConstantSchedule.for_k(16), **kwargs)
    assert np.array_equal(t1.phi, t2.phi)
    assert np.array_equal(t1.loss, t2.loss)
    assert t1.outcome == t2.outcome


def test_cnn_run_fixed_points():
    t = teacher_for_k(16)
    traj = cnn_run(t.v_star.copy(), t.a_star.copy(), t, max_iters=10)
    assert traj.outcome.kind == "converged_global"
    assert traj.outcome.iters == 0

    cp = critical_points(t)
    traj2 = cnn_run(-t.v_star, cp.spurious_a, t, max_iters=10)
    assert traj2.outcome.kind == "trapped_spurious"
    assert traj2.outcome.iters == 0

    # At k=100, eta = 0.1 overshoots (e > 2), so v_star with a != a_star is unstable: the
    # filter leaves it along the rounding of v_0 - x v_star, orthogonal to v_star.
    t = teacher_for_k(100)
    traj3 = cnn_run(t.v_star, 0.5 * t.a_star, t, max_iters=3000, record_stride=3000)
    assert traj3.outcome == Outcome("converged_global", 2000)
    assert traj3.phi[-1] > 0.5 and abs(np.linalg.norm(traj3.final_state.v) - 1.0) <= 1e-12


def test_cnn_init_law():
    t = teacher_for_k(16)
    v0, a0 = sample_cnn_init(t, 4)
    assert np.linalg.norm(v0) == pytest.approx(1.0, abs=1e-12)
    assert a0.shape == (16,)
    v0b, a0b = sample_cnn_init(t, 4, init_law="ball")
    assert np.linalg.norm(a0b) <= abs(t.sum_a_star) / 4.0 + 1e-12
    assert np.array_equal(v0, v0b)


# The samplers as first written, each on its own make_rng(seed, 0) and with
# np.linalg.norm: the reference for draw_starts and model.ball_points.


def _reference_ball(rng, k, radius):
    if radius == 0.0:
        return np.zeros(k)
    z = rng.standard_normal(k)
    direction = z / np.linalg.norm(z)
    r = radius * rng.random() ** (1.0 / k)
    return r * direction


def _reference_start(teacher, seed, init_law, plain_filter):
    rng = make_rng(seed, 0)
    v = teacher.shortcut
    if plain_filter:
        z = rng.standard_normal(teacher.p)
        v = z / np.linalg.norm(z)
    if init_law == "gaussian":
        return v, rng.standard_normal(teacher.k) / np.sqrt(teacher.k)
    return v, _reference_ball(rng, teacher.k, abs(teacher.sum_a_star) / np.sqrt(teacher.k))


def test_draw_starts_match_the_per_seed_reference():
    zero_sum = TeacherSpec([1.0, 0.0], [1.0, -1.0])
    p3 = TeacherSpec([0.0, 0.6, 0.8], [1.0, 2.0, 0.5])
    seeds = range(40)
    for t in [teacher_for_k(k) for k in SUPPORTED_K] + [zero_sum, p3]:
        for law, plain in itertools.product(INIT_LAWS, (False, True)):
            v0, a0 = draw_starts(t, seeds, law, plain_filter=plain)
            for row, seed in enumerate(seeds):
                v, a = _reference_start(t, seed, law, plain)
                assert v0[row].tobytes() == v.tobytes(), (t.k, t.p, law, plain, seed)
                assert a0[row].tobytes() == a.tobytes(), (t.k, t.p, law, plain, seed)
        # the public samplers read one seed of it
        for seed in (0, 7):
            for state, law in ((sample_init(t, seed), "ball"),
                               (gaussian_init(t, seed), "gaussian")):
                assert np.all(state.w == 0.0)
                assert state.a.tobytes() == _reference_start(t, seed, law, False)[1].tobytes()
            v, a = sample_cnn_init(t, seed, "ball")
            want_v, want_a = _reference_start(t, seed, "ball", True)
            assert v.tobytes() == want_v.tobytes() and a.tobytes() == want_a.tobytes()


def test_draw_starts_refuses_an_unknown_law_and_a_negative_seed():
    t = teacher_for_k(16)
    with pytest.raises(ValueError, match="unknown init law 'uniform'"):
        draw_starts(t, range(3), "uniform")
    with pytest.raises(ValueError, match="2\\*\\*64"):
        draw_starts(t, [4, -1], "ball", plain_filter=True)


def test_ball_points_match_the_reference():
    """A block of n rows, each drawn as the reference draws one point (k normals, then a
    uniform), gives each row the reference's bits, whatever n."""
    for k, radius, seed in itertools.product((1, 2, 5, 100), (0.5, 3.0), range(20)):
        rng, ref = make_rng(seed, 3), make_rng(seed, 3)
        n = 1 + seed % 7
        z, u = np.empty((n, k)), np.empty(n)
        for row in range(n):
            rng.standard_normal(out=z[row])
            u[row] = rng.random()
        points = ball_points(z, u, radius)
        for row in range(n):
            assert points[row].tobytes() == _reference_ball(ref, k, radius).tobytes()
        assert rng.random() == ref.random()  # the same draws were used


def test_draw_starts_of_no_seeds_have_empty_rows_of_the_teacher_width():
    for t in (teacher_for_k(16), TeacherSpec([1.0, 0.0], [1.0, -1.0])):
        for law, plain in itertools.product(INIT_LAWS, (False, True)):
            v0, a0 = draw_starts(t, [], law, plain_filter=plain)
            assert (v0.shape, a0.shape) == ((0, t.p), (0, t.k)), (t.k, law, plain)


def test_zero_sum_ball_starts_keep_the_drawn_filter_and_start_at_the_origin():
    """With 1^T a_star = 0 the ball law has radius 0: a0 is +0.0 and draws nothing, so
    the drawn filter keeps its bits and equals the Gaussian law's, drawn first."""
    t = TeacherSpec([0.6, 0.8, 0.0], [1.0, -1.0, 2.0, -2.0])
    assert t.sum_a_star == 0.0
    seeds = range(25)
    v0, a0 = draw_starts(t, seeds, "ball", plain_filter=True)
    assert a0.shape == (25, 4) and a0.tobytes() == np.zeros((25, 4)).tobytes()
    for row, seed in enumerate(seeds):
        assert v0[row].tobytes() == _reference_start(t, seed, "ball", True)[0].tobytes()
    assert v0.tobytes() == draw_starts(t, seeds, "gaussian", plain_filter=True)[0].tobytes()


def test_schedule_rates():
    ssw = WarmupSchedule.for_k(25)
    eta = 1.0 / 25**2
    assert ssw.rates(0) == (eta * eta, eta)
    assert ssw.rates(999) == (eta * eta, eta)
    assert ssw.rates(1000) == (eta, eta)

    assert ssw.step_sizes() == ((eta * eta, eta), (eta, eta))
    assert dataclasses.replace(ssw, stage1_iters=0).step_sizes() == ((eta, eta),)

    const = ConstantSchedule.for_k(10)
    assert const.rates(0) == (0.01, 0.01)
    assert const.rates(12345) == (0.01, 0.01)
    assert const.step_sizes() == ((0.01, 0.01),)

    with pytest.raises(ValueError):
        ConstantSchedule(eta_a=0.0, eta_w=0.1)


@pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
def test_schedules_refuse_step_sizes_that_are_not_finite(eta):
    # NaN passes a test written eta <= 0, and an infinite step diverges at once
    with pytest.raises(ValueError, match="positive and finite"):
        ConstantSchedule(eta_a=eta, eta_w=0.1)
    with pytest.raises(ValueError, match="positive and finite"):
        ConstantSchedule(eta_a=0.1, eta_w=eta)
    for i in range(4):
        rates = [0.1, 0.01, 0.1, 0.1]
        rates[i] = eta
        with pytest.raises(ValueError, match="positive and finite"):
            WarmupSchedule(eta_a_stage1=rates[0], eta_w_stage1=rates[1], stage1_iters=10,
                           eta_a_stage2=rates[2], eta_w_stage2=rates[3])


def test_analytic_rate_schedule(analytic_schedule):
    t = teacher_for_k(25)
    sched = analytic_schedule(t)
    k = 25
    eta_a1 = np.pi / (20.0 * (k + np.pi - 1.0) ** 2)
    assert sched.eta_a_stage1 == pytest.approx(eta_a1, rel=1e-12)
    assert sched.eta_w_stage1 == pytest.approx(t.a_star_norm_sq * eta_a1**2, rel=1e-12)
    m, big_m = t.alignment_lower, t.alignment_upper
    expected2 = min(m / (2 * big_m**2), 5 * np.pi**2 / (4 * (k + np.pi - 1) ** 2))
    assert sched.eta_a_stage2 == pytest.approx(expected2, rel=1e-12)
    assert sched.eta_w_stage2 == sched.eta_a_stage2
    assert sched.stage1_iters == int(np.ceil(10.0 / eta_a1))
    assert sched.rates(sched.stage1_iters) == (sched.eta_w_stage2, sched.eta_a_stage2)
    assert sched.step_sizes() == (sched.rates(0), sched.rates(sched.stage1_iters))


def _single_run(variant, teacher, schedule, v0, a0, config):
    """A sweep trial run through run()/cnn_run, recording every step."""
    budget = dict(max_iters=config.max_iters, record_stride=1)
    if variant == "cnn_baseline":
        return cnn_run(v0, a0, teacher, eta=config.cnn_eta, **budget)
    init = StudentState(w=v0 - teacher.shortcut, a=a0)
    return run(init, teacher, schedule, stop_on_spurious=True, **budget)


def _region_entry(traj, teacher, schedule):
    """(kind, t) at the first recorded step where run()'s trajectory lies in R+ or R-."""
    found = Regions.for_schedule(teacher, schedule).kinds(
        np.cos(traj.phi), traj.a_dot_astar, traj.sum_a - teacher.sum_a_star
    )
    first = int(np.flatnonzero(found != KIND_UNDECIDED)[0])
    assert np.array_equal(traj.t[: first + 1], np.arange(first + 1))
    return KINDS[found[first]], first


def _batch_outcomes(teacher, schedule, v0, a0, config):
    result = run_batch(v0, a0, teacher, schedule, config.max_iters)
    return [(KINDS[kind], int(it)) for kind, it in zip(result.kinds, result.iters)]


def _assert_batch_matches_runs(variant, teacher, schedule, v0, a0, config):
    """run_batch gives each trial run()'s kind, at the step run()'s trajectory enters its region."""
    trajs = [_single_run(variant, teacher, schedule, v0[i], a0[i], config)
             for i in range(v0.shape[0])]
    entries = [_region_entry(traj, teacher, schedule) for traj in trajs]
    assert [kind for kind, _ in entries] == [traj.outcome.kind for traj in trajs], variant
    assert _batch_outcomes(teacher, schedule, v0, a0, config) == entries, variant
    return trajs


def test_batch_engine_matches_single_runs():
    config = SweepConfig()
    for k in (16, 25):
        teacher = teacher_for_k(k)
        for variant in VARIANTS:
            v0, a0 = draw_starts(teacher, range(8), DEFAULT_INIT_LAWS[variant],
                                 plain_filter=variant == "cnn_baseline")
            schedule = schedule_for(variant, k, config.cnn_eta)
            _assert_batch_matches_runs(variant, teacher, schedule, v0, a0, config)


def test_batch_engine_matches_run_over_a_long_k100_trial():
    config = SweepConfig()
    teacher = teacher_for_k(100)
    v0, a0 = draw_starts(teacher, range(1), "gaussian")
    schedule = schedule_for("resnet_constant", 100)
    [traj] = _assert_batch_matches_runs("resnet_constant", teacher, schedule, v0, a0, config)
    assert traj.outcome == Outcome("converged_global", 285_212)


def _warmup_outcome(k, seed):
    """run()'s outcome of one warmup sweep start, checked against run_batch."""
    config = SweepConfig()
    teacher = teacher_for_k(k)
    v0 = np.atleast_2d(teacher.shortcut)
    a0 = np.atleast_2d(sample_init(teacher, seed).a)
    schedule = WarmupSchedule.for_k(k)
    [traj] = _assert_batch_matches_runs("resnet_ssw", teacher, schedule, v0, a0, config)
    return traj.outcome


def test_warmup_trapped_at_k64():
    # A measured gap: the paper tabulates a warmup success rate of 1.0 at every k.
    assert _warmup_outcome(64, 9_000_041) == Outcome("trapped_spurious", 36_400)


def test_warmup_trapped_at_k81_and_k100():
    # Trials 314 and 402 of the criterion-4 sweep (base seed 0); the same measured gap.
    assert _warmup_outcome(81, 314) == Outcome("trapped_spurious", 59_200)
    assert _warmup_outcome(100, 402) == Outcome("trapped_spurious", 88_000)


def test_a_longer_warmup_frees_the_k64_trap():
    # The gap's mechanism (README "Measured gap"): the same start and rates with a
    # 2000-step warmup, eta_a T1 = 0.49 against the sweep's 0.24, converge.
    t = teacher_for_k(64)
    eta = 1 / 64**2
    schedule = WarmupSchedule(eta_a_stage1=eta, eta_w_stage1=eta * eta, stage1_iters=2000,
                              eta_a_stage2=eta, eta_w_stage2=eta)
    traj = run(sample_init(t, 9_000_041), t, schedule, record_stride=DEFAULT_MAX_ITERS,
               stop_on_spurious=True)
    assert traj.outcome == Outcome("converged_global", 118_719)


def test_run_batch_rejects_bad_inputs():
    t = teacher_for_k(16)
    sched = ConstantSchedule.for_k(16)
    with pytest.raises(ValueError):
        run_batch(np.full((2, 8), 5.0), np.full((2, 16), np.nan), t, sched, 1000)
    unit = np.tile(t.shortcut, (2, 1))
    with pytest.raises(ValueError):
        run_batch(np.full((2, 8), 5.0), np.zeros((2, 16)), t, sched, 1000)
    with pytest.raises(ValueError):
        run_batch(unit, np.zeros((2, 15)), t, sched, 1000)
    with pytest.raises(ValueError):
        run_batch(unit, np.zeros((3, 16)), t, sched, 1000)


def test_run_batch_refuses_starts_as_closed_coordinates_refuses_a_state():
    t = teacher_for_k(16)
    sched = ConstantSchedule.for_k(16)
    unit, a0 = np.tile(t.shortcut, (2, 1)), np.zeros((2, 16))
    for v, a in ((unit, a0[:, :15]), (unit, np.zeros((3, 16))), (unit[:, :7], a0)):
        with pytest.raises(ValueError, match="do not match"):
            run_batch(v, a, t, sched, 10)
    for bad in (1.001, np.nan, np.inf):
        with pytest.raises(OffManifoldError):
            run_batch(unit * np.array([[1.0], [bad]]), a0, t, sched, 10)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not all finite"):
            run_batch(unit, np.where(np.eye(2, 16) == 1.0, bad, 0.0), t, sched, 10)


def test_run_batch_rejects_step_sizes_outside_the_proof():
    # At eta = 1 the iterates diverge, and rows in R+ or R- at t = 0 would be decided wrongly.
    t = teacher_for_k(16)
    v0, a0 = draw_starts(t, range(4), "gaussian", plain_filter=True)
    with pytest.raises(ValueError, match="C4, C5"):
        run_batch(v0, a0, t, ConstantSchedule(eta_a=1.0, eta_w=1.0), 1000)
    # Also when only a later stage leaves the proof: here its filter step is too large.
    late = WarmupSchedule(eta_a_stage1=1 / 256, eta_w_stage1=1 / 256**2, stage1_iters=10,
                          eta_a_stage2=1 / 256, eta_w_stage2=2.0)
    with pytest.raises(ValueError, match=r"\(2, 0.00390625\) fail C2 "):
        run_batch(v0, a0, t, late, 1000)
    # At k = 100 the cnn step size 0.1 is proven and 0.15 is not (rho = -1.44).
    t = teacher_for_k(100)
    Regions.for_schedule(t, ConstantSchedule(eta_a=0.1, eta_w=0.1))
    with pytest.raises(ValueError, match="C4"):
        Regions.for_schedule(t, ConstantSchedule(eta_a=0.15, eta_w=0.15))


def test_batch_engine_classifies_both_attractors():
    t = teacher_for_k(16)
    sched = ConstantSchedule.for_k(16)
    cp = critical_points(t)
    # The optima, in their regions at t = 0, and a start still outside both at max_iters.
    v0 = np.stack([t.v_star, -t.v_star, t.shortcut])
    a0 = np.stack([t.a_star, cp.spurious_a, np.zeros(16)])
    result = run_batch(v0, a0, t, sched, max_iters=100)
    assert result.kinds.tolist() == [KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED]
    assert result.iters.tolist() == [0, 0, 100]


def _per_step_run_batch(v0, a0, teacher, schedule, max_iters):
    """run_batch as it was first written, testing the boxes at every step: the reference
    of its windowed test. It reads the starts through closed_rows, as run_batch does, so
    the two differ only in when they test the boxes. Returns (kinds, iters)."""
    regions = Regions.for_schedule(teacher, schedule)
    x, e1, es, _ = closed_rows(v0, a0, teacher)
    kinds = np.full(v0.shape[0], KIND_UNDECIDED, dtype=np.int8)
    iters = np.zeros(v0.shape[0], dtype=np.int64)
    idx = np.arange(v0.shape[0])
    t = 0
    while True:
        found = regions.kinds(x, es + teacher.a_star_norm_sq, e1)
        hit = found != KIND_UNDECIDED
        kinds[idx[hit]] = found[hit]
        iters[idx[hit]] = t
        keep = ~hit
        x, e1, es, idx = x[keep], e1[keep], es[keep], idx[keep]
        if not idx.size or t >= max_iters:
            break
        (x, e1, es), _ = closed_step(x, e1, es, teacher, *schedule.rates(t))
        t += 1
    iters[idx] = t
    return kinds, iters


def _assert_window_matches_per_step(v0, a0, teacher, schedule, max_iters):
    kinds, iters = _per_step_run_batch(v0, a0, teacher, schedule, max_iters)
    result = run_batch(v0, a0, teacher, schedule, max_iters)
    assert np.array_equal(result.kinds, kinds), max_iters
    assert np.array_equal(result.iters, iters), max_iters
    return kinds, iters


def test_windowed_box_test_matches_the_per_step_test_at_window_edges():
    """cnn_baseline starts at k=16 enter their boxes within a few windows: at t = 0, on
    the last step of a window (WINDOW - 1) and on the first of the next (WINDOW), in
    both boxes. Budgets below, at and above one window clip the last window."""
    assert WINDOW == 8  # the budgets below straddle it
    t = teacher_for_k(16)
    v0, a0 = draw_starts(t, range(200), "gaussian", plain_filter=True)
    cp = critical_points(t)
    v0 = np.vstack([v0, t.v_star, -t.v_star])  # the optima, in their boxes at t = 0
    a0 = np.vstack([a0, t.a_star, cp.spurious_a])
    schedule = schedule_for("cnn_baseline", 16)
    for max_iters in (0, 1, 7, 8, 9, 100):
        kinds, iters = _assert_window_matches_per_step(v0, a0, t, schedule, max_iters)
    entries = set(zip(kinds.tolist(), iters.tolist()))
    for kind in (KIND_CONVERGED, KIND_TRAPPED):
        assert {(kind, 0), (kind, WINDOW - 1), (kind, WINDOW)} <= entries, kind
    # a warmup whose stage switch falls inside the second window
    warmup = WarmupSchedule(eta_a_stage1=1 / 256, eta_w_stage1=1 / 256**2, stage1_iters=13,
                            eta_a_stage2=0.1, eta_w_stage2=0.1)
    kinds, iters = _assert_window_matches_per_step(v0, a0, t, warmup, 100)
    assert ((iters > 13) & (iters < 100)).any()


@pytest.mark.parametrize("variant", VARIANTS)
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12))
def test_windowed_box_test_matches_the_per_step_test_on_drawn_starts(variant, seeds):
    # 2000 steps decide about every k=16 start; the resnet ones enter after 1000 to 2000
    t = teacher_for_k(16)
    v0, a0 = draw_starts(t, seeds, DEFAULT_INIT_LAWS[variant],
                         plain_filter=variant == "cnn_baseline")
    _assert_window_matches_per_step(v0, a0, t, schedule_for(variant, 16), 2000)


def test_box_kernel_constants_are_pinned():
    """The kernel at the boxes' filter faces, to the bit: an ulp there moves R+ and R-."""
    for phi, g in ((5.0 * np.pi / 12.0, _G_PLUS), (np.arccos(-0.2), _G_MINUS)):
        assert g == (np.pi - phi) * np.cos(phi) + np.sin(phi)


def _box_points(lo, hi, rng, n):
    """n uniform draws in the box [lo, hi] plus its 8 corners.

    Each coordinate of a draw is put on one of its two faces with probability 1/2.
    """
    pts = lo + (hi - lo) * rng.random((n, 3))
    snap, side = rng.random((2, n, 3)) < 0.5
    pts = np.where(snap, np.where(side, lo, hi), pts)
    corners = np.array(np.meshgrid(*zip(lo, hi))).reshape(3, -1).T
    return np.vstack([pts, corners])


@pytest.mark.parametrize("k", SUPPORTED_K)
def test_regions_are_absorbing_under_every_sweep_step_size(k):
    """One closed step from R+ stays in R+, and from R- in R- (README, "Sweep-engine internals").

    For each variant's sweep schedule, points are drawn in the boxes that
    Regions.for_schedule builds for it (uniform, with faces and the corners
    included) and stepped at each of the schedule's step sizes.

    The step rounds each new coordinate: x' is a quotient of two sums of rounded
    products, a_star^T a' and 1^T d' are sums of at most four rounded products
    plus the error of g, a few ulps of pi from arccos and sqrt. Its error is
    then at most 8 eps times S, the sum of the magnitudes of the terms that
    form the coordinate: S = 2 for x, 2 (M + ||a_star||^2) for a_star^T a and
    (1 + k c) ||a_star||^2 + c pi s^2 for u = s 1^T d. A point on a face, where
    the exact step can leave a coordinate on that face, may cross it by that much.
    """
    eps = np.finfo(float).eps
    teacher = teacher_for_k(k)
    n2, s, big_m = teacher.a_star_norm_sq, teacher.sum_a_star, teacher.alignment_upper
    rng = np.random.default_rng(k)
    for variant in VARIANTS:
        schedule = schedule_for(variant, k)
        regions = Regions.for_schedule(teacher, schedule)
        boxes = {
            KIND_CONVERGED: ([X_PLUS, regions.m, -regions.big_b], [1.0, big_m, regions.b_plus]),
            KIND_TRAPPED: ([-1.0, -big_m, -regions.b_minus], [X_MINUS, 0.0, regions.b_minus]),
        }
        for (eta_w, eta_a), (kind, (lo, hi)) in itertools.product(schedule.step_sizes(),
                                                                  boxes.items()):
            lo, hi = np.array(lo), np.array(hi)
            x, adot, u = _box_points(lo, hi, rng, 20_000).T
            e1 = u / s  # s > 0; a face value of u may need one ulp of e1 to stay on the face
            e1 = np.where(s * e1 > hi[2], np.nextafter(e1, -np.inf), e1)
            e1 = np.where(s * e1 < lo[2], np.nextafter(e1, np.inf), e1)
            found = regions.kinds(x, adot, e1)
            assert found.dtype == np.int8 and (found == kind).all()  # run_batch's kinds dtype
            (x1, e1, es), _ = closed_step(x, e1, adot - n2, teacher, eta_w, eta_a)
            after = np.stack([x1, es + n2, s * e1], axis=1)
            c = eta_a / (2 * np.pi)
            scale = np.array([2.0, 2.0 * (big_m + n2), (1.0 + k * c) * n2 + c * np.pi * s * s])
            crossing = np.maximum(lo - after, after - hi).max(axis=0)
            assert (crossing <= 8.0 * eps * scale).all(), (eta_w, eta_a, kind, crossing / scale)


def _kernel(phi):
    return (np.pi - phi) * np.cos(phi) + np.sin(phi)


def _condition_margins(teacher, eta_w, eta_a):
    """Right side less left side of (C1)-(C5) at one step-size pair, restated from README
    "Sweep-engine internals" with its constants recomputed here: the step sizes at which
    a margin is 0 are where Regions.for_schedule must turn from accepting to refusing."""
    n2, s, k = teacher.a_star_norm_sq, teacher.sum_a_star, teacher.k
    big_m, m = teacher.alignment_upper, teacher.alignment_lower
    g_plus, t_minus = _kernel(5.0 * np.pi / 12.0), np.arccos(0.2)
    e_plus = 1.0 / np.cos(5.0 * np.pi / 12.0) ** 2 + 12.0 * np.tan(5.0 * np.pi / 12.0) / np.pi
    e_minus = np.tan(t_minus) / (np.pi / 2.0 - t_minus) ** 2
    assert (round(e_plus, 2), round(e_minus, 1)) == (29.18, 120.8)  # README's values
    c = eta_a / (2.0 * np.pi)
    rho = 1.0 - c * (k + np.pi - 1.0)
    b_plus = (g_plus - 1.0) * n2 - (np.pi - 1.0) * m
    b_minus = (1.0 - _kernel(np.pi - t_minus)) * n2
    big_b = n2 if rho >= 0.0 else min(n2, b_plus / -rho)
    return {
        "C1": 1.0 - c * (np.pi - 1.0),
        "C2": e_plus - eta_w * big_m / 2.0,
        "C3": e_minus - eta_w * big_m / (2.0 * np.pi),
        "C4": big_b - max(rho * big_b, -rho * b_plus) - c * s * s * (np.pi - g_plus),
        "C5": b_minus - abs(rho) * b_minus - c * np.pi * s * s,
    }


def _edge(inside, lo, hi):
    """The last value from lo toward hi at which the monotone predicate inside holds, to the
    float: hi itself when it holds there."""
    assert inside(lo)
    if inside(hi):
        return hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def _tight_steps(teacher):
    """Per condition, which step size it bounds ("w" for eta_w, "a" for eta_a) and the step
    at which its margin is 0, the other step held at the sweep's small 1/k^4 or 1/k^2. The
    C4 and C5 margins only fall once rho < 0, past eta_a = 2pi / (k + pi - 1)."""
    k = teacher.k
    small = {"w": 1.0 / k**4, "a": 1.0 / k**2}
    rho_zero = 2.0 * np.pi / (k + np.pi - 1.0)
    tight = {}
    for name, which, lo in (("C1", "a", 1e-9), ("C2", "w", 1e-9), ("C3", "w", 1e-9),
                            ("C4", "a", rho_zero), ("C5", "a", rho_zero)):
        def holds(eta, name=name, which=which):
            steps = dict(small, **{which: eta})
            return _condition_margins(teacher, steps["w"], steps["a"])[name] > 0.0
        tight[name] = which, _edge(holds, lo, 1e3)
    return tight


def _failed_conditions(teacher, eta_w, eta_a):
    try:
        Regions.for_schedule(teacher, ConstantSchedule(eta_a=eta_a, eta_w=eta_w))
    except ValueError as err:
        return set(re.findall(r"C[1-5]", str(err)))
    return set()


@pytest.mark.parametrize("k", [16, 100])
def test_each_box_condition_turns_at_its_tight_step_size(k):
    """Each of (C1)-(C5) holds just below the step size at which its restated margin is 0
    and fails just above it: the condition is refused at 1.005 and 1 + 1e-6 times that step
    and not at 0.995 and 1 - 1e-6 times it. (C3) never refuses a pair alone, since (C2)
    bounds eta_w about 13 times lower; it is read from the conditions the refusal names."""
    teacher = teacher_for_k(k)
    for name, (which, eta) in _tight_steps(teacher).items():
        for factor in (0.995, 1.0 - 1e-6, 1.0 + 1e-6, 1.005):
            steps = {"w": 1.0 / k**4, "a": 1.0 / k**2, which: factor * eta}
            failed = _failed_conditions(teacher, steps["w"], steps["a"])
            assert (name in failed) == (factor > 1.0), (name, factor, eta, sorted(failed))


def test_c2_implies_c3():
    """(C2) is eta_w M / 2 <= E+ and (C3) is eta_w M / 2 <= pi E-, so E+ <= pi E- makes
    every pair that passes (C2) pass (C3), for any teacher (README, "Sweep-engine
    internals"); for_schedule still evaluates both."""
    assert _E_PLUS_MAX <= np.pi * _E_MINUS_MAX


@pytest.mark.parametrize("k", [16, 100])
def test_boxes_as_kinds_reads_them_are_absorbing_at_the_largest_accepted_steps(k):
    """The faces of R+ and R- are read from Regions.kinds itself, by bisection from a point
    inside, not from the Regions fields, and the box's corners, inset by 1e-9 of its width,
    stay in it after one closed step at the largest step sizes the proof accepts (1 - 1e-6
    times the tightest of the conditions on each). A face wider than the derivation puts
    it fails: at u = -b_minus, x = -0.2 and a^T a_star = 0 the step keeps a^T a_star' = 0
    exactly, so a wider u face lets the alignment turn positive and leave R-."""
    teacher = teacher_for_k(k)
    n2, s = teacher.a_star_norm_sq, teacher.sum_a_star
    tight = _tight_steps(teacher)
    eta_w, eta_a = ((1.0 - 1e-6) * min(eta for which, eta in tight.values() if which == side)
                    for side in "wa")
    assert _failed_conditions(teacher, eta_w, eta_a) == set()
    regions = Regions.for_schedule(teacher, ConstantSchedule(eta_a=eta_a, eta_w=eta_w))
    far = 10.0 * teacher.alignment_upper
    for kind, inner in ((KIND_CONVERGED, (0.9, teacher.alignment_lower + 1.0, 0.0)),
                        (KIND_TRAPPED, (-0.6, -teacher.alignment_upper / 2.0, 0.0))):
        def inside(i, value, kind=kind, inner=inner):
            point = list(inner)
            point[i] = value
            x, adot, u = point
            return regions.kinds(np.array([x]), np.array([adot]), np.array([u / s]))[0] == kind

        lo, hi = np.array([[_edge(partial(inside, i), inner[i], end) for end in ends]
                           for i, ends in enumerate(((-1.0, 1.0), (-far, far), (-far, far)))]).T
        inset = 1e-9 * (hi - lo)
        x, adot, u = np.array(list(itertools.product(*zip(lo + inset, hi - inset)))).T
        assert (regions.kinds(x, adot, u / s) == kind).all()
        (x1, e1, es), _ = closed_step(x, u / s, adot - n2, teacher, eta_w, eta_a)
        stayed = regions.kinds(x1, es + n2, e1) == kind
        assert stayed.all(), (kind, np.stack([x, adot, u])[:, ~stayed].T.tolist())


@st.composite
def _proven_cases(draw):
    """A teacher, one or two step-size pairs that Regions.for_schedule accepts, and a seed.

    a_star is either small integers times a power of two, so that 1^T a_star is
    exact and can be zero or negative, or Gaussian of random scale. The step
    sizes are log-uniform over 8 (filter) and 6 (output weights) decades below
    a little past the largest that C2 and C5 (|rho| <= 1) can accept.
    """
    k = draw(st.integers(1, 30))
    if draw(st.booleans()):
        a_star = np.array(draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)), float)
        assume(a_star.any())
        a_star *= 2.0 ** draw(st.integers(-3, 3))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        a_star = draw(st.floats(0.01, 10.0)) * rng.standard_normal(k)
    teacher = TeacherSpec([1.0, 0.0], a_star)  # the closed step never reads v_star or p
    eta_w_max = 2.0 * _E_PLUS_MAX / teacher.alignment_upper
    eta_a_max = 4.0 * np.pi / (k + np.pi - 1.0)
    steps = [(eta_w_max * 10.0 ** draw(st.floats(-8.0, 0.05)),
              eta_a_max * 10.0 ** draw(st.floats(-6.0, 0.05)))
             for _ in range(draw(st.integers(1, 2)))]
    if len(steps) == 1:
        schedule = ConstantSchedule(eta_a=steps[0][1], eta_w=steps[0][0])
    else:
        (w1, a1), (w2, a2) = steps
        schedule = WarmupSchedule(eta_a_stage1=a1, eta_w_stage1=w1, stage1_iters=10,
                                  eta_a_stage2=a2, eta_w_stage2=w2)
    try:
        Regions.for_schedule(teacher, schedule)
    except ValueError:
        assume(False)
    return teacher, schedule, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_proven_cases())
def test_regions_are_absorbing_wherever_the_proof_is_accepted(case):
    """One closed step keeps R+ and R- points in their box for any teacher and step
    sizes that Regions.for_schedule accepts, 1^T a_star <= 0 included.

    Points are drawn as in the tabulated test above, faces and corners
    included. The rounding band is the one derived there, with its sums of
    term magnitudes written for any teacher: with U the largest |u| in the
    box and alpha <= 1 by C1, S = 2 for x, (M + N) + c U + c pi N + N for
    a_star^T a' = alpha a_star^T d - c u + c (g - pi) N + N, and
    (1 + c (k + pi)) U + c pi s^2 for u' = rho u + c (g - pi) s^2. With s = 0,
    u is 0 on both sides and 1^T d is drawn freely.
    """
    teacher, schedule, seed = case
    eps = np.finfo(float).eps
    n2, s, big_m, k = (teacher.a_star_norm_sq, teacher.sum_a_star, teacher.alignment_upper,
                       teacher.k)
    rng = np.random.default_rng(seed)
    regions = Regions.for_schedule(teacher, schedule)
    boxes = {
        KIND_CONVERGED: ([X_PLUS, regions.m, -regions.big_b], [1.0, big_m, regions.b_plus]),
        KIND_TRAPPED: ([-1.0, -big_m, -regions.b_minus], [X_MINUS, 0.0, regions.b_minus]),
    }
    for (eta_w, eta_a), (kind, (lo, hi)) in itertools.product(schedule.step_sizes(),
                                                              boxes.items()):
        lo, hi = np.array(lo), np.array(hi)
        x, adot, u = _box_points(lo, hi, rng, 2000).T
        if s == 0.0:
            e1 = rng.standard_normal(x.size) * np.sqrt(n2)
        else:
            e1 = u / s
            for _ in range(4):  # a face value of u may need an ulp or two of e1 to stay on it
                e1 = np.where(s * e1 > hi[2], np.nextafter(e1, -np.inf * np.sign(s)), e1)
                e1 = np.where(s * e1 < lo[2], np.nextafter(e1, np.inf * np.sign(s)), e1)
        assert (regions.kinds(x, adot, e1) == kind).all()
        (x1, e1, es), _ = closed_step(x, e1, adot - n2, teacher, eta_w, eta_a)
        after = np.stack([x1, es + n2, s * e1], axis=1)
        c, big_u = eta_a / (2 * np.pi), max(abs(lo[2]), abs(hi[2]))
        scale = np.array([2.0, big_m + 2.0 * n2 + c * big_u + c * np.pi * n2,
                          (1.0 + c * (k + np.pi)) * big_u + c * np.pi * s * s])
        crossing = np.maximum(lo - after, after - hi).max(axis=0)
        assert (crossing <= 8.0 * eps * scale).all(), (
            teacher.a_star.tolist(), teacher.v_star.tolist(), eta_w, eta_a, kind, crossing / scale)


def _reference_run(init, teacher, schedule, max_iters, *, stop_on_spurious=False,
                   basin_success=False):
    """run() with record_stride=1, written as a loop over gd_step and the public closed
    forms, with run()'s outcome tests (_closed_kind) at each state's closed coordinates."""

    def row(t, state):
        return (
            t,
            math.acos(closed_coordinates(state, teacher)[0]),
            float(state.a @ teacher.a_star),
            float(np.sum((state.w - teacher.w_star) ** 2)),
            float(np.sum((state.a - teacher.a_star) ** 2)),
            population_loss(state, teacher),
            float(state.a.sum()),
        )

    def kind(state, basin):
        return _closed_kind(*closed_coordinates(state, teacher), teacher, basin=basin)

    state, t, outcome = init, 0, None
    rows = [row(0, state)]
    if rows[0][3] + rows[0][4] <= GLOBAL_TOL:
        outcome = Outcome("converged_global", 0)
    elif stop_on_spurious and kind(state, False) != "undecided":
        outcome = Outcome(kind(state, False), 0)
    while outcome is None and t < max_iters:
        state = gd_step(state, teacher, *schedule.rates(t))
        t += 1
        rows.append(row(t, state))
        basin = basin_success and t >= BASIN_CHECK_AFTER
        if rows[-1][4] + rows[-1][3] <= GLOBAL_TOL:
            outcome = Outcome("converged_global", t)
        elif (stop_on_spurious and t % SPURIOUS_CHECK_EVERY == 0
              and kind(state, basin) != "undecided"):
            outcome = Outcome(kind(state, basin), t)
    if outcome is None:
        outcome = Outcome(kind(state, basin_success), max_iters)
    return [np.array(col) for col in zip(*rows)], state, outcome


def _assert_matches_reference(traj, reference, teacher, schedule):
    """run() has the reference's exact (kind, iters) and t, and its columns to rounding.

    Each step of either path forms every coordinate from sums of at most eight
    rounded products, so from the same state the two paths' results differ by
    at most 16 eps S, with S the sum of the magnitudes of the terms. On the
    runs compared the update does not expand differences: alpha and rho lie
    in (0, 1), and the filter turns toward v_star without overshooting it
    (1 - e x > 0), which is asserted here. So after t steps the paths differ
    by at most 16 t eps S, plus (k + p) eps S for the length-k and length-p
    inner products read out at the end. S is 2 for the filter quantities,
    which are functions of the cosine x in [-1, 1], and
    (sqrt(k) + ||a_star|| + max_t ||d_t||)^2 for those of the output weights,
    which bounds every term they are formed from. phi is compared through
    cos(phi): arccos turns a cosine error delta into up to sqrt(2 delta) near
    0 and pi.
    """
    cols, state, outcome = reference
    assert traj.outcome == outcome
    assert np.array_equal(traj.t, cols[0])
    eta_w, eta_a = np.array([schedule.rates(int(t)) for t in cols[0]]).T
    c = eta_a / (2 * np.pi)
    e = eta_w / (2 * np.pi) * cols[2] * (np.pi - cols[1])
    assert (c * (teacher.k + np.pi - 1.0) < 1.0).all() and (1.0 - e * np.cos(cols[1]) > 0.0).all()
    eps = np.finfo(float).eps
    steps = 16.0 * cols[0] + teacher.k + teacher.p
    d_max = np.sqrt(cols[4].max())
    s_w, s_a = 2.0, (np.sqrt(teacher.k) + np.sqrt(teacher.a_star_norm_sq) + d_max) ** 2
    checks = [
        ("cos phi", np.cos(traj.phi), np.cos(cols[1]), s_w),
        ("a_dot_astar", traj.a_dot_astar, cols[2], s_a),
        ("w_err_sq", traj.w_err_sq, cols[3], s_w),
        ("a_err_sq", traj.a_err_sq, cols[4], s_a),
        ("loss", traj.loss, cols[5], s_a),
        ("sum_a", traj.sum_a, cols[6], s_a),
        ("final w", traj.final_state.w, state.w, s_w),
        ("final a", traj.final_state.a, state.a, s_a),
    ]
    for name, got, want, scale in checks:
        bound = (steps if got.shape == steps.shape else steps[-1]) * eps * scale
        assert (np.abs(got - want) <= bound).all(), (name, np.max(np.abs(got - want) / bound))


@pytest.mark.parametrize("schedule", [WarmupSchedule.for_k(25), ConstantSchedule.for_k(25)])
def test_run_matches_public_step_loop_bit_for_bit(schedule):
    # Exact in (kind, iters) and t; the closed state rounds differently (_assert_matches_reference).
    t = teacher_for_k(25)
    init = StudentState(w=np.zeros(8), a=fixed_a0_k25())
    spurious = isinstance(schedule, ConstantSchedule)
    traj = run(init, t, schedule, max_iters=2000, record_stride=1, stop_on_spurious=spurious)
    _assert_matches_reference(
        traj, _reference_run(init, t, schedule, 2000, stop_on_spurious=spurious), t, schedule
    )


def test_cnn_run_matches_public_step_loop_bit_for_bit():
    t = teacher_for_k(16)
    v0, a0 = sample_cnn_init(t, 2)
    traj = cnn_run(v0, a0, t, eta=0.1, max_iters=3000)
    assert traj.outcome.kind == "converged_global"
    init = StudentState(w=v0 - t.shortcut, a=a0)
    schedule = ConstantSchedule(eta_a=0.1, eta_w=0.1)
    _assert_matches_reference(
        traj,
        _reference_run(init, t, schedule, 3000, stop_on_spurious=True, basin_success=True),
        t,
        schedule,
    )


def test_run_validates_inputs():
    t = teacher_for_k(16)
    off = StudentState(w=np.full(8, 0.1), a=np.zeros(16))
    with pytest.raises(OffManifoldError):
        run(off, t, ConstantSchedule.for_k(16), max_iters=10)
    with pytest.raises(ValueError):
        run(StudentState(w=np.zeros(8), a=np.zeros(9)), t, ConstantSchedule.for_k(16), max_iters=10)
    nan_state = StudentState(w=np.full(8, np.nan), a=np.zeros(16))
    with pytest.raises(OffManifoldError):
        population_loss(nan_state, t)


def test_budgets_above_their_bounds_are_refused():
    # from the global optimum, where an unbounded run would stop at once
    t = teacher_for_k(16)
    at_truth = StudentState(w=t.w_star, a=t.a_star)
    schedule = WarmupSchedule.for_k(16)
    with pytest.raises(ValueError, match="max_iters must be at most"):
        run(at_truth, t, schedule, max_iters=MAX_ITERS + 1, record_stride=MAX_ITERS)
    with pytest.raises(ValueError, match="recorded rows"):
        run(at_truth, t, schedule, max_iters=2 * MAX_ROWS + 2, record_stride=2)
    at_bound = run(at_truth, t, schedule, max_iters=2 * MAX_ROWS + 1, record_stride=2)
    assert at_bound.outcome.iters == 0
    with pytest.raises(ValueError, match="max_iters"):
        run_batch(np.tile(t.v_star, (2, 1)), np.tile(t.a_star, (2, 1)), t, schedule, MAX_ITERS + 1)
    with pytest.raises(ValueError, match="max_iters"):
        SweepConfig(max_iters=MAX_ITERS + 1)


def test_cnn_run_refuses_a_start_off_the_unit_sphere():
    t = teacher_for_k(16)
    with pytest.raises(OffManifoldError):
        cnn_run(1.001 * t.v_star, t.a_star, t, max_iters=10)


def test_diverging_cnn_run_ends_undecided():
    # At eta = 1 the iterates overflow; each run stops at its last finite iterate.
    t = teacher_for_k(16)
    v0, a0 = draw_starts(t, range(40), "gaussian", plain_filter=True)
    for i in range(40):
        traj = cnn_run(v0[i], a0[i], t, eta=1.0, max_iters=20_000, record_stride=20_000)
        assert traj.outcome.kind == "undecided", i
        assert 0 < traj.outcome.iters < 20_000, i
        assert traj.t[-1] == traj.outcome.iters
        assert np.isfinite(traj.final_state.w).all() and np.isfinite(traj.final_state.a).all()
        assert abs(np.linalg.norm(traj.final_state.v) - 1.0) <= MANIFOLD_TOL
    # A filter step whose normaliser overflows (x and y would both read 0) ends it before step 1.
    init = StudentState(w=np.zeros(8), a=a0[0])
    traj = run(init, t, ConstantSchedule(eta_a=0.01, eta_w=1e300), max_iters=10)
    assert traj.outcome == Outcome("undecided", 0) and traj.final_state == init


def _row(t, x, e1, es, dsq, teacher):
    """A recorded row (t, phi, a_star^T a, ||w - w_star||^2, ||a - a_star||^2, loss, 1^T a)
    evaluated on floats: the per-row reference of run()'s columns."""
    return (t, math.acos(x), es + teacher.a_star_norm_sq, 2.0 - 2.0 * x, dsq,
            closed_loss(x, e1, es, dsq, teacher), e1 + teacher.sum_a_star)


_TRAJECTORY_COLUMNS = ("t", "phi", "a_dot_astar", "w_err_sq", "a_err_sq", "loss", "sum_a")


def _run_against_rows(monkeypatch, init, teacher, schedule, **kwargs):
    """run() with its recorded closed states kept; asserts that each column has the bits
    of _row on those states, that the rows are every record_stride-th step and the final
    one, and that the final one is read from final_state. Returns the trajectory and the
    recorded closed states (t, x, 1^T d, a_star^T d, ||d||^2)."""
    recorded = []

    def keeping(*cols_and_teacher):
        recorded.append(cols_and_teacher[:-1])
        return columns(*cols_and_teacher)

    columns = optimizer._recorded_columns
    monkeypatch.setattr(optimizer, "_recorded_columns", keeping)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(init, teacher, schedule, **kwargs)
    monkeypatch.undo()
    (states,) = recorded
    rows = list(zip(*[_row(*state, teacher) for state in zip(*states)]))
    for name, col in zip(_TRAJECTORY_COLUMNS, rows):
        want = np.array(col, dtype=np.int64 if name == "t" else float)
        assert getattr(traj, name).tobytes() == want.tobytes(), name
    iters, stride = traj.outcome.iters, kwargs.get("record_stride", 1)
    assert states[0] == [*range(0, iters, stride), iters]
    assert tuple(col[-1] for col in states[1:]) == closed_coordinates(traj.final_state, teacher)
    return traj, states


@pytest.mark.parametrize("variant", ["ssw", "constant"])
def test_recorded_columns_match_the_per_row_reference(monkeypatch, variant):
    t = teacher_for_k(25)
    init = StudentState(w=np.zeros(8), a=fixed_a0_k25())
    schedule = schedule_for("resnet_" + variant, 25)
    every, states = _run_against_rows(monkeypatch, init, t, schedule, stop_on_spurious=True)
    iters = every.outcome.iters
    assert iters % 7
    # 7 leaves a last row off the stride; the divisor replaces the row recorded at iters
    divisor = next(s for s in range(7, iters) if iters % s == 0)
    for stride in (7, divisor):
        traj, strided = _run_against_rows(monkeypatch, init, t, schedule, record_stride=stride,
                                          stop_on_spurious=True)
        assert traj.outcome == every.outcome
        assert [col[:-1] for col in strided] == [col[:-1:stride] for col in states]
    # a start that is already converged records its one row
    at_truth = StudentState(w=t.w_star, a=t.a_star)
    traj, _ = _run_against_rows(monkeypatch, at_truth, t, schedule, record_stride=7)
    assert traj.outcome == Outcome("converged_global", 0) and traj.t.tolist() == [0]


def test_diverging_recorded_columns_keep_the_rows_floats_give(monkeypatch):
    # At eta = 1 the loss overflows before the state does: the column keeps inf, as the
    # float rows have it, and its evaluation warns of nothing.
    t = teacher_for_k(16)
    v0, a0 = draw_starts(t, range(3), "gaussian", plain_filter=True)
    schedule = ConstantSchedule(eta_a=1.0, eta_w=1.0)
    for i in range(3):
        init = StudentState(w=v0[i] - t.shortcut, a=a0[i])
        traj, _ = _run_against_rows(monkeypatch, init, t, schedule, max_iters=20_000,
                                    stop_on_spurious=True, basin_success=True)
        assert traj.outcome.kind == "undecided"
        assert not np.isfinite(traj.loss).all(), i


_PROPERTY_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@st.composite
def _problems(draw):
    """A random teacher, an on-manifold state and step sizes from 1e-4 to 10.

    Filter steps above about 1 overshoot v_star (1 - e x < 0) and flip the sign of y.
    """
    k, p = draw(st.integers(1, 30)), draw(st.integers(2, 10))
    teacher = random_teacher(k, p, draw(st.integers(0, 2**32 - 1)),
                             a_norm=draw(st.floats(0.1, 5.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    # output weights of a drawn component scale, where random_state fixes one
    a = draw(st.floats(0.1, 2.0)) * make_rng(seed, 103).standard_normal(k)
    state = StudentState(w=random_state(teacher, seed).w, a=a)
    eta_w, eta_a = (10.0 ** draw(st.floats(-4.0, 1.0)) for _ in range(2))
    return teacher, state, eta_w, eta_a


@_PROPERTY_SETTINGS
@given(_problems())
def test_closed_step_rebuilt_matches_gd_step(problem):
    """One closed step of run() matches gd_step to rounding, as a state and as coordinates.

    run() rebuilds its final_state from the closed state, and its rows before
    the last are the closed state itself. Both paths form each quantity from
    the same terms, the vector path with length-p and length-k inner products,
    so they differ by at most (16 + k + p) eps S. For the filter
    S = 1 + 2|e| + eta_w |a_star^T a|, bounding the terms of
    ((1 - e x) v + e v_star) / norm and the rounding of pi - phi in e. For the
    output weights S = (1 + c (k + pi)) (sqrt(k) + ||a_star|| + ||d||), with
    c = eta_a / 2pi, bounds the terms of a - eta_a grad_a, and its square
    those of the inner products and the loss.
    """
    teacher, state, eta_w, eta_a = problem
    schedule = ConstantSchedule(eta_a=eta_a, eta_w=eta_w)
    stepped = gd_step(state, teacher, eta_w, eta_a)
    rebuilt = run(state, teacher, schedule, max_iters=1).final_state
    traj = run(state, teacher, schedule, max_iters=2, record_stride=1)
    assert traj.outcome.iters == 2

    adot = float(state.a @ teacher.a_star)
    e = eta_w / (2 * np.pi) * adot * (np.pi - math.acos(closed_coordinates(state, teacher)[0]))
    c = eta_a / (2 * np.pi)
    s_w = 1.0 + 2.0 * abs(e) + eta_w * abs(adot)
    s_a = (1.0 + c * (teacher.k + np.pi)) * (
        np.sqrt(teacher.k) + np.linalg.norm(teacher.a_star)
        + np.linalg.norm(state.a - teacher.a_star))
    bound = (16 + teacher.k + teacher.p) * np.finfo(float).eps
    assert np.abs(rebuilt.w - stepped.w).max() <= bound * s_w
    assert np.abs(rebuilt.a - stepped.a).max() <= bound * s_a
    row = [np.cos(traj.phi[1]), traj.a_dot_astar[1], traj.w_err_sq[1], traj.a_err_sq[1],
           traj.loss[1], traj.sum_a[1]]
    want = [closed_coordinates(stepped, teacher)[0], float(stepped.a @ teacher.a_star),
            float(np.sum((stepped.w - teacher.w_star) ** 2)),
            float(np.sum((stepped.a - teacher.a_star) ** 2)), population_loss(stepped, teacher),
            float(stepped.a.sum())]
    scales = [s_w, s_a * s_a, s_w, s_a * s_a, s_a * s_a, s_a]
    for got, ref, scale in zip(row, want, scales):
        assert abs(got - ref) <= bound * scale
    # the manifold is kept on both paths
    assert max(abs(np.linalg.norm(s.v) - 1.0) for s in (stepped, rebuilt)) <= 1e-12


@_PROPERTY_SETTINGS
@given(_problems())
def test_closed_form_properties(problem):
    """The loss is nonnegative, grad_w is tangent, and both critical points are stationary.

    Allowances are (k + p + 8) eps times the magnitude of the terms summed:
    the loss's terms are at most (||a_star|| + ||a||)^2 and those of grad_w . v
    at most |a_star^T a| / 2.
    """
    teacher, state, _, _ = problem
    eps = np.finfo(float).eps
    n = teacher.k + teacher.p + 8
    norm_a = np.linalg.norm(teacher.a_star) + np.linalg.norm(state.a)
    assert population_loss(state, teacher) >= -n * eps * norm_a**2
    gw = grad_w(state, teacher)
    assert abs(float(gw @ state.v)) <= n * eps * (1.0 + abs(float(state.a @ teacher.a_star)))
    cp = critical_points(teacher)
    for w, a in ((cp.global_w, cp.global_a), (cp.spurious_w, cp.spurious_a)):
        point = StudentState(w=w, a=a)
        scale = 1.0 + (np.linalg.norm(teacher.a_star) + np.linalg.norm(a)) ** 2
        assert np.abs(grad_w(point, teacher)).max() <= n * eps * scale
        assert np.abs(grad_a(point, teacher)).max() <= n * eps * scale
