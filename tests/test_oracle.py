import numpy as np
import pytest

from shortcut_gd.landscape import (
    OffManifoldError, critical_points, grad_a, grad_w, population_loss,
)
from shortcut_gd.model import StudentState, TeacherSpec, make_rng, random_state, random_teacher
from shortcut_gd.oracle import (
    CHUNK_SAMPLES, MAX_SAMPLES, _finalize, fd_grad_check, mc_estimates,
)


def _teacher(p, k, v_star, a_star):
    return TeacherSpec(p=p, k=k, v_star=np.asarray(v_star, float), a_star=np.asarray(a_star, float))


def test_mc_loss_zero_at_global_optimum():
    t = random_teacher(3, 4, 0, a_norm=1.5)
    state = StudentState(w=t.w_star, a=t.a_star)
    est = mc_estimates(state, t, 100_000, seed=1)[0]
    # the integrand is pointwise zero up to rounding of the normalized filter
    assert abs(est.value) < 1e-25
    assert est.std_error < 1e-25


def test_mc_loss_known_value():
    t = _teacher(2, 2, [1.0, 0.0], [1.0, 0.0])
    state = StudentState(w=t.w_star, a=np.zeros(2))
    est = mc_estimates(state, t, 1_000_000, seed=2)[0]
    assert abs(est.value - 0.25) <= 4.0 * est.std_error


def test_mc_cross_checks_spurious_point_loss():
    t = _teacher(2, 2, [1.0, 0.0], [1.0, 1.0])
    cp = critical_points(t)
    state = StudentState(w=cp.spurious_w, a=cp.spurious_a)
    est = mc_estimates(state, t, 400_000, seed=6)[0]
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
        mc_estimates(StudentState(w=t.w_star, a=t.a_star), t, 1, seed=0)
    # the state is checked first: shapes, then the manifold
    with pytest.raises(ValueError, match="do not match"):
        mc_estimates(StudentState(w=t.w_star, a=np.zeros(3)), t, 1, seed=0)
    with pytest.raises(OffManifoldError):
        mc_estimates(StudentState(w=np.ones(2), a=t.a_star), t, 1, seed=0)


def test_mc_refuses_more_than_max_samples():
    # refused before any partial sum is allocated; never run at the bound itself
    t = random_teacher(25, 8, 0)
    with pytest.raises(ValueError, match="n_samples"):
        mc_estimates(StudentState(w=t.w_star, a=t.a_star), t, MAX_SAMPLES + 1, seed=0)


def test_mc_se_scaling():
    t = random_teacher(3, 3, 2, a_norm=2.0)
    state = random_state(t, 3)
    small = mc_estimates(state, t, 50_000, seed=4)[0]
    big = mc_estimates(state, t, 200_000, seed=4)[0]
    # quadrupling the sample count halves the standard error within 20%
    ratio = small.std_error / big.std_error
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_mc_grads_zero_output_weights():
    t = random_teacher(3, 2, 3)
    state = StudentState(w=random_state(t, 7).w, a=np.zeros(3))
    gw_est = mc_estimates(state, t, 20_000, seed=5)[1]
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
    # the state is checked first: shapes, then the manifold
    with pytest.raises(ValueError, match="do not match"):
        fd_grad_check(StudentState(w=t.w_star, a=np.zeros(3)), t, step=0.0)
    with pytest.raises(OffManifoldError):
        fd_grad_check(StudentState(w=np.ones(2), a=t.a_star), t, step=0.0)


def test_fd_error_vs_largest_component():
    # A gradient component of -1.7e-7 sits above the 1e-8 floor, so its roundoff reads as 3.5e-5.
    t = random_teacher(25, 2, seed=17006, a_norm=0.5)
    report = fd_grad_check(random_state(t, seed=17106), t, step=1e-6)
    assert report.max_rel_error_w > 1e-5
    assert report.max_error_vs_largest < 1e-7
    assert report.max_error_vs_largest >= 0.0


# The estimator the oracle was first written with: it draws all k patches as
# full p-vectors. It is the reference for the reduced draw in oracle.py.


def _full_patch_estimates(state, teacher, n_samples, seed):
    v = state.v
    v = v / np.linalg.norm(v)
    a, a_star, v_star = state.a, teacher.a_star, teacher.v_star
    k, p = teacher.k, teacher.p

    n_chunks = (n_samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    loss_parts = np.empty((n_chunks, 2))
    ga_parts = np.empty((n_chunks, 2, k))
    gw_parts = np.empty((n_chunks, 2, p))
    for c in range(n_chunks):
        m = min(CHUNK_SAMPLES, n_samples - c * CHUNK_SAMPLES)
        rng = make_rng(seed, c)
        z = rng.standard_normal((m, k, p))
        zv = z @ v
        act = np.maximum(zv, 0.0)
        g_out = np.maximum(z @ v_star, 0.0) @ a_star
        f_out = act @ a
        diff = g_out - f_out
        loss_samples = 0.5 * diff * diff
        ga_samples = -diff[:, None] * act
        gate = (zv > 0.0) * a
        raw = np.matmul(gate[:, None, :], z)[:, 0, :]
        raw -= (raw @ v)[:, None] * v
        gw_samples = -diff[:, None] * raw
        loss_parts[c, 0] = loss_samples.sum()
        loss_parts[c, 1] = (loss_samples * loss_samples).sum()
        ga_parts[c, 0] = ga_samples.sum(axis=0)
        ga_parts[c, 1] = (ga_samples * ga_samples).sum(axis=0)
        gw_parts[c, 0] = gw_samples.sum(axis=0)
        gw_parts[c, 1] = (gw_samples * gw_samples).sum(axis=0)
    return tuple(_finalize(sums.sum(axis=0), n_samples)
                 for sums in (loss_parts, gw_parts, ga_parts))


def _agreement_states():
    """Fixed states with p in {1, 2, 3, 8}: v = v_star, v = -v_star, the spurious
    critical point and random states."""
    states = []
    for k, p, teacher_seed in ((3, 1, 0), (4, 3, 1), (5, 8, 2)):
        t = random_teacher(k, p, teacher_seed, a_norm=1.5)
        a = random_state(t, teacher_seed).a
        for sign, name in ((1.0, "v_star"), (-1.0, "minus_v_star")):
            state = StudentState(w=sign * t.v_star - t.shortcut, a=a)
            states.append(pytest.param(state, t, id=f"k{k}p{p}-{name}"))
    spurious_t = _teacher(2, 2, [1.0, 0.0], [1.0, 1.0])
    cp = critical_points(spurious_t)
    spurious = StudentState(w=cp.spurious_w, a=cp.spurious_a)
    states.append(pytest.param(spurious, spurious_t, id="k2p2-spurious"))
    for k, p, seed in ((5, 2, 3), (4, 3, 4), (5, 8, 5)):
        t = random_teacher(k, p, seed, a_norm=1.0)
        states.append(pytest.param(random_state(t, seed), t, id=f"k{k}p{p}-random"))
    return states


@pytest.mark.parametrize("state, teacher", _agreement_states())
def test_reduced_draw_matches_full_patches(state, teacher):
    """The frame draw and the full-patch reference estimate the same law.

    Each runs 200 000 samples on its own seed, so the two estimates are
    independent. Every component of the loss and both gradients must agree
    within 5 combined standard errors, sqrt(se_reduced^2 + se_full^2), plus
    1e-12 for components that vanish in both. The per-component standard
    errors, which read within 2.5 % of each other on these states, must agree
    within a ratio of 1.1 wherever either exceeds 1e-12. Dropping the
    sqrt(sum gate^2) Q_perp xi term fails the ratio at every p >= 3 state;
    flipping the sign of the beta u term fails the means at the random states.
    """
    n = 200_000
    for reduced, full in zip(mc_estimates(state, teacher, n, seed=11),
                             _full_patch_estimates(state, teacher, n, seed=12)):
        mean_r, mean_f = np.atleast_1d(reduced.value), np.atleast_1d(full.value)
        se_r, se_f = np.atleast_1d(reduced.std_error), np.atleast_1d(full.std_error)
        assert np.all(np.abs(mean_r - mean_f) <= 5.0 * np.hypot(se_r, se_f) + 1e-12)
        big = np.maximum(se_r, se_f) > 1e-12
        assert np.all(np.maximum(se_r, se_f)[big] <= 1.1 * np.minimum(se_r, se_f)[big])
