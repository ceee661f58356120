import numpy as np
import pytest

from shortcut_gd import optimizer
from shortcut_gd.batch import KIND_CONVERGED, KIND_TRAPPED, run_batch
from shortcut_gd.errors import DegenerateDirectionError, OffManifoldError
from shortcut_gd.experiments import (
    VARIANTS, SweepConfig, _cell_inits, _schedule_for, fixed_a0_k25, teacher_for_k,
)
from shortcut_gd.geometry import relu_kernel, shortcut_direction
from shortcut_gd.landscape import critical_points, filter_angle, grad_a, grad_w, population_loss
from shortcut_gd.model import StudentState, TeacherSpec, random_teacher
from shortcut_gd.optimizer import (
    KINDS,
    Outcome,
    Thresholds,
    classify_outcome,
    cnn_run,
    gaussian_init,
    gd_step,
    run,
    sample_cnn_init,
    sample_init,
)
from shortcut_gd.schedules import AnalyticRateSchedule, ConstantSchedule, WarmupSchedule


def _teacher(p, k, v_star, a_star):
    return TeacherSpec(p=p, k=k, v_star=np.asarray(v_star, float), a_star=np.asarray(a_star, float))


def _spurious_state(teacher):
    cp = critical_points(teacher)
    return StudentState(w=cp.spurious_w, a=cp.spurious_a)


def test_gd_step_fixed_points():
    for seed in range(4):
        t = random_teacher(4, 3, seed, a_norm=1.8)
        for state in (StudentState(w=t.w_star, a=t.a_star), _spurious_state(t)):
            stepped = gd_step(state, t, eta_w=0.3, eta_a=0.2)
            assert np.allclose(stepped.w, state.w, atol=1e-12)
            assert np.allclose(stepped.a, state.a, atol=1e-12)


def test_gd_step_from_zero_state():
    t = _teacher(2, 2, [1.0, 0.0], [1.0, 1.0])
    state = StudentState(w=np.zeros(2), a=np.zeros(2))
    eta_a = 0.1
    stepped = gd_step(state, t, eta_w=0.05, eta_a=eta_a)
    g0 = relu_kernel(filter_angle(state, t))
    s = t.sum_a_star
    expected_a = eta_a / (2 * np.pi) * (s + (g0 - 1.0) * t.a_star)
    assert np.allclose(stepped.a, expected_a, atol=1e-14)
    assert stepped.on_manifold(1e-12)


def test_gd_step_preserves_manifold():
    t = random_teacher(5, 6, 2, a_norm=2.0)
    state = StudentState(w=np.zeros(6), a=gaussian_init(t, 0).a)
    for _ in range(200):
        state = gd_step(state, t, eta_w=0.02, eta_a=0.02)
        assert state.on_manifold(1e-9)


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
    t = _teacher(2, 2, [1.0, 0.0], [1.0, -1.0])
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
    t = teacher_for_k(25)
    at_truth = StudentState(w=t.w_star, a=t.a_star)
    assert classify_outcome(at_truth, t).kind == "converged_global"

    spur = _spurious_state(t)
    out = classify_outcome(spur, t)
    assert out.kind == "trapped_spurious"
    # the spurious filter has angle exactly pi and squared distance 4 from w_star
    assert filter_angle(spur, t) == pytest.approx(np.pi, abs=1e-12)
    assert float(np.sum((spur.w - t.w_star) ** 2)) == pytest.approx(4.0, abs=1e-12)

    halfway = StudentState(
        w=np.array([0.0, 1.0] + [0.0] * 6) - shortcut_direction(8), a=np.zeros(25)
    )
    assert classify_outcome(halfway, t).kind == "undecided"
    with pytest.raises(ValueError):
        Outcome("converged", 0)


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
    assert traj.final_state.on_manifold(1e-9)


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


def test_cnn_init_law():
    t = teacher_for_k(16)
    v0, a0 = sample_cnn_init(t, 4)
    assert np.linalg.norm(v0) == pytest.approx(1.0, abs=1e-12)
    assert a0.shape == (16,)
    v0b, a0b = sample_cnn_init(t, 4, init_law="ball")
    assert np.linalg.norm(a0b) <= abs(t.sum_a_star) / 4.0 + 1e-12
    assert np.array_equal(v0, v0b)


def test_schedule_rates():
    ssw = WarmupSchedule.for_k(25)
    eta = 1.0 / 25**2
    assert ssw.rates(0) == (eta * eta, eta)
    assert ssw.rates(999) == (eta * eta, eta)
    assert ssw.rates(1000) == (eta, eta)

    const = ConstantSchedule.for_k(10)
    assert const.rates(0) == (0.01, 0.01)
    assert const.rates(12345) == (0.01, 0.01)

    with pytest.raises(ValueError):
        ConstantSchedule(eta_a=0.0, eta_w=0.1)


def test_analytic_rate_schedule():
    t = teacher_for_k(25)
    sched = AnalyticRateSchedule.from_teacher(t, c_w=1.0)
    k = 25
    eta_a1 = np.pi / (20.0 * (k + np.pi - 1.0) ** 2)
    assert sched.eta_a_stage1 == pytest.approx(eta_a1, rel=1e-12)
    assert sched.eta_w_stage1 == pytest.approx(t.a_star_norm_sq * eta_a1**2, rel=1e-12)
    m, big_m = t.alignment_lower, t.alignment_upper
    expected2 = min(m / (2 * big_m**2), 5 * np.pi**2 / (4 * (k + np.pi - 1) ** 2))
    assert sched.eta_stage2 == pytest.approx(expected2, rel=1e-12)
    assert sched.stage1_iters == int(np.ceil(10.0 / eta_a1))
    assert sched.rates(sched.stage1_iters) == (sched.eta_stage2, sched.eta_stage2)


def _single_outcome(variant, teacher, schedule, v0, a0, config):
    """A sweep trial run through run()/cnn_run with the sweep's settings."""
    budget = dict(max_iters=config.max_iters, record_stride=config.max_iters)
    if variant == "cnn_baseline":
        traj = cnn_run(v0, a0, teacher, eta=config.cnn_eta, **budget)
    else:
        init = StudentState(w=v0 - teacher.shortcut, a=a0)
        traj = run(init, teacher, schedule, stop_on_spurious=True, **budget)
    return traj.outcome.kind, traj.outcome.iters


def _batch_outcomes(variant, teacher, schedule, v0, a0, config):
    result = run_batch(v0, a0, teacher, schedule, config.max_iters,
                       basin_success=variant == "cnn_baseline")
    return [(KINDS[kind], int(it)) for kind, it in zip(result.kinds, result.iters)]


def test_batch_engine_matches_single_runs():
    config = SweepConfig()
    teacher = teacher_for_k(16)
    for variant in VARIANTS:
        v0, a0 = _cell_inits(variant, teacher, range(8), config.init_laws[variant])
        schedule = _schedule_for(variant, 16, config)
        singles = [_single_outcome(variant, teacher, schedule, v0[i], a0[i], config)
                   for i in range(8)]
        assert _batch_outcomes(variant, teacher, schedule, v0, a0, config) == singles, variant


def test_batch_engine_matches_run_over_a_long_k100_trial():
    # 285 212 steps; a recurrence on ||a||^2 in place of ||a - a_star||^2 ends 3 steps late
    config = SweepConfig()
    teacher = teacher_for_k(100)
    v0, a0 = _cell_inits("resnet_constant", teacher, range(1), "gaussian")
    schedule = _schedule_for("resnet_constant", 100, config)
    single = _single_outcome("resnet_constant", teacher, schedule, v0[0], a0[0], config)
    assert single == ("converged_global", 285_212)
    assert _batch_outcomes("resnet_constant", teacher, schedule, v0, a0, config) == [single]


def test_warmup_trapped_at_k64():
    # A measured gap: the paper tabulates a warmup success rate of 1.0 at every k.
    config = SweepConfig()
    teacher = teacher_for_k(64)
    v0 = np.atleast_2d(teacher.shortcut)
    a0 = np.atleast_2d(sample_init(teacher, 9_000_041).a)
    schedule = WarmupSchedule.for_k(64)
    single = _single_outcome("resnet_ssw", teacher, schedule, v0[0], a0[0], config)
    assert single == ("trapped_spurious", 36_400)
    assert _batch_outcomes("resnet_ssw", teacher, schedule, v0, a0, config) == [single]


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


def test_batch_engine_classifies_both_attractors():
    t = teacher_for_k(16)
    sched = ConstantSchedule.for_k(16)
    cp = critical_points(t)
    v0 = np.stack([t.v_star, -t.v_star])
    a0 = np.stack([t.a_star, cp.spurious_a])
    result = run_batch(v0, a0, t, sched, max_iters=100, stop_on_spurious=True)
    assert result.kinds[0] == KIND_CONVERGED
    assert result.kinds[1] == KIND_TRAPPED
    assert result.iters[0] == 0


def _reference_run(init, teacher, schedule, max_iters, *, stop_on_spurious=False,
                   basin_success=False, spurious_check_every=200, basin_check_after=2000):
    """run() with record_stride=1, written as a loop over the public gd_step and closed forms."""
    thresholds = Thresholds()

    def row(t, state):
        return (
            t,
            filter_angle(state, teacher),
            float(state.a @ teacher.a_star),
            float(np.sum((state.w - teacher.w_star) ** 2)),
            float(np.sum((state.a - teacher.a_star) ** 2)),
            population_loss(state, teacher),
            float(state.a.sum()),
        )

    state, t, outcome = init, 0, None
    rows = [row(0, state)]
    if rows[0][3] + rows[0][4] <= thresholds.global_tol:
        outcome = Outcome("converged_global", 0)
    elif stop_on_spurious:
        probe = classify_outcome(state, teacher, thresholds, iters=0)
        outcome = None if probe.kind == "undecided" else probe
    while outcome is None and t < max_iters:
        eta_w, eta_a = schedule.rates(t)
        try:
            state = gd_step(state, teacher, eta_w, eta_a)
        except DegenerateDirectionError:
            outcome = Outcome("undecided", t)
            break
        t += 1
        rows.append(row(t, state))
        if rows[-1][4] + rows[-1][3] <= thresholds.global_tol:
            outcome = Outcome("converged_global", t)
        elif stop_on_spurious and t % spurious_check_every == 0:
            probe = classify_outcome(state, teacher, thresholds, iters=t,
                                     basin_success=basin_success and t >= basin_check_after)
            outcome = None if probe.kind == "undecided" else probe
    if outcome is None:
        outcome = classify_outcome(state, teacher, thresholds, iters=max_iters,
                                   basin_success=basin_success)
    return [np.array(col) for col in zip(*rows)], state, outcome


def _assert_bit_identical(traj, reference):
    cols, state, outcome = reference
    fields = ("t", "phi", "a_dot_astar", "w_err_sq", "a_err_sq", "loss", "sum_a")
    for name, col in zip(fields, cols):
        assert np.array_equal(getattr(traj, name), col), name
    assert traj.outcome == outcome
    assert traj.final_state.w.tobytes() == state.w.tobytes()
    assert traj.final_state.a.tobytes() == state.a.tobytes()


@pytest.mark.parametrize("schedule", [WarmupSchedule.for_k(25), ConstantSchedule.for_k(25)])
def test_run_matches_public_step_loop_bit_for_bit(schedule):
    t = teacher_for_k(25)
    init = StudentState(w=np.zeros(8), a=fixed_a0_k25())
    spurious = isinstance(schedule, ConstantSchedule)
    traj = run(init, t, schedule, max_iters=2000, record_stride=1, stop_on_spurious=spurious)
    _assert_bit_identical(
        traj, _reference_run(init, t, schedule, 2000, stop_on_spurious=spurious)
    )


def test_cnn_run_matches_public_step_loop_bit_for_bit():
    t = teacher_for_k(16)
    v0, a0 = sample_cnn_init(t, 2)
    traj = cnn_run(v0, a0, t, eta=0.1, max_iters=3000)
    assert traj.outcome.kind == "converged_global"
    init = StudentState(w=v0 - t.shortcut, a=a0)
    _assert_bit_identical(
        traj,
        _reference_run(init, t, ConstantSchedule(eta_a=0.1, eta_w=0.1), 3000,
                       stop_on_spurious=True, basin_success=True),
    )


def test_run_validates_inputs():
    t = teacher_for_k(16)
    off = StudentState(w=np.full(8, 0.1), a=np.zeros(16))
    with pytest.raises(OffManifoldError):
        run(off, t, ConstantSchedule.for_k(16), max_iters=10)
    with pytest.raises(ValueError):
        run(StudentState(w=np.zeros(8), a=np.zeros(9)), t, ConstantSchedule.for_k(16), max_iters=10)
    for closed_form in (grad_w, grad_a, population_loss):
        with pytest.raises(OffManifoldError):
            closed_form(off, t)
    with pytest.raises(OffManifoldError):
        gd_step(off, t, eta_w=0.1, eta_a=0.1)


def test_run_checks_the_manifold_of_every_iterate(monkeypatch):
    t = teacher_for_k(16)
    init = StudentState(w=np.zeros(8), a=gaussian_init(t, 0).a)
    monkeypatch.setattr(optimizer, "renormalize_shortcut", lambda w_tilde: w_tilde + 1e-6)
    with pytest.raises(OffManifoldError):
        run(init, t, ConstantSchedule.for_k(16), max_iters=10, record_stride=1000)
