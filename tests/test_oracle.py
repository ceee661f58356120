import numpy as np
import pytest

from shortcut_gd.landscape import grad_a, grad_w, population_loss
from shortcut_gd.model import StudentState, TeacherSpec, random_state, random_teacher
from shortcut_gd.oracle import fd_grad_check, mc_estimates, mc_grads, mc_loss


def _teacher(p, k, v_star, a_star):
    return TeacherSpec(p=p, k=k, v_star=np.asarray(v_star, float), a_star=np.asarray(a_star, float))


def test_mc_loss_zero_at_global_optimum():
    t = random_teacher(3, 4, 0, a_norm=1.5)
    state = StudentState(w=t.w_star, a=t.a_star)
    est = mc_loss(state, t, 100_000, seed=1)
    # the integrand is pointwise zero up to rounding of the normalized filter
    assert abs(est.value) < 1e-25
    assert est.std_error < 1e-25


def test_mc_loss_known_value():
    t = _teacher(2, 2, [1.0, 0.0], [1.0, 0.0])
    state = StudentState(w=t.w_star, a=np.zeros(2))
    est = mc_loss(state, t, 1_000_000, seed=2)
    assert abs(est.value - 0.25) <= 4.0 * est.std_error


def test_mc_cross_checks_spurious_point_loss():
    from shortcut_gd.landscape import critical_points

    t = _teacher(2, 2, [1.0, 0.0], [1.0, 1.0])
    cp = critical_points(t)
    state = StudentState(w=cp.spurious_w, a=cp.spurious_a)
    est = mc_loss(state, t, 400_000, seed=6)
    assert abs(est.value - population_loss(state, t)) <= 4.0 * est.std_error
    assert est.value == pytest.approx(0.6207, abs=0.006)


def test_mc_determinism():
    t = random_teacher(4, 3, 1)
    state = random_state(t, 5)
    first = mc_estimates(state, t, 60_000, seed=9)
    second = mc_estimates(state, t, 60_000, seed=9)
    for a, b in zip(first, second):
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.std_error, b.std_error)


def test_mc_requires_two_samples():
    t = random_teacher(2, 2, 0)
    with pytest.raises(ValueError):
        mc_loss(StudentState(w=t.w_star, a=t.a_star), t, 1, seed=0)


def test_mc_se_scaling():
    t = random_teacher(3, 3, 2, a_norm=2.0)
    state = random_state(t, 3)
    small = mc_loss(state, t, 50_000, seed=4)
    big = mc_loss(state, t, 200_000, seed=4)
    # quadrupling the sample count halves the standard error within 20%
    ratio = small.std_error / big.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_mc_grads_zero_output_weights():
    t = random_teacher(3, 2, 3)
    state = StudentState(w=random_state(t, 7).w, a=np.zeros(3))
    gw_est, _ = mc_grads(state, t, 20_000, seed=5)
    assert np.all(np.abs(gw_est.value) == 0.0)
    assert np.all(gw_est.std_error == 0.0)


def test_mc_matches_analytic():
    hits = total = 0
    for seed in range(6):
        t = random_teacher(3 + seed % 3, 2 + seed % 4, seed, a_norm=1.0 + seed / 4)
        state = random_state(t, 20 + seed)
        loss_est, gw_est, ga_est = mc_estimates(state, t, 400_000, seed=100 + seed)
        for est, exact in (
            (loss_est, population_loss(state, t)),
            (gw_est, grad_w(state, t)),
            (ga_est, grad_a(state, t)),
        ):
            err = np.abs(np.atleast_1d(est.value) - np.atleast_1d(exact))
            bound = 4.0 * np.atleast_1d(est.std_error) + 1e-12
            hits += int((err <= bound).sum())
            total += err.size
    assert hits / total >= 0.95


def test_fd_grad_check_random_states():
    for seed in range(5):
        t = random_teacher(4, 4, seed, a_norm=1.0 + seed / 2)
        state = random_state(t, 40 + seed)
        report = fd_grad_check(state, t, step=1e-6)
        assert report.max_rel_error_a <= 1e-6
        assert report.max_rel_error_w <= 1e-5


def test_fd_grad_check_at_global_optimum():
    t = random_teacher(3, 4, 8)
    state = StudentState(w=t.w_star, a=t.a_star)
    report = fd_grad_check(state, t, step=1e-6)
    # all gradients vanish; errors fall back to the absolute scale
    assert report.max_rel_error_a <= 1e-8
    assert report.max_rel_error_w <= 1e-8


def test_fd_grad_check_orthogonal_filter():
    # exercises the angle derivative of the kernel at phi = pi/2
    t = _teacher(2, 2, [1.0, 0.0], [1.0, 0.5])
    v = np.array([0.0, 1.0])
    state = StudentState(w=v - t.shortcut, a=np.array([0.8, -0.3]))
    report = fd_grad_check(state, t, step=1e-6)
    assert report.max_rel_error_a <= 1e-6
    assert report.max_rel_error_w <= 1e-5


def test_fd_grad_check_step_domain():
    t = random_teacher(2, 2, 0)
    state = StudentState(w=t.w_star, a=t.a_star)
    with pytest.raises(ValueError):
        fd_grad_check(state, t, step=0.0)
    with pytest.raises(ValueError):
        fd_grad_check(state, t, step=2e-3)


def test_fd_error_vs_largest_component():
    # A gradient component of -1.7e-7 sits above the 1e-8 floor, so its roundoff reads as 3.5e-5.
    t = random_teacher(25, 2, seed=17006, a_norm=0.5)
    report = fd_grad_check(random_state(t, seed=17106), t, step=1e-6)
    assert report.max_rel_error_w > 1e-5
    assert report.max_error_vs_largest < 1e-7
    assert report.max_error_vs_largest >= 0.0
