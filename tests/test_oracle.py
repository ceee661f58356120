import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shortcut_gd.landscape import (
    OffManifoldError, critical_points, grad_a, grad_w, population_loss,
)
from shortcut_gd import oracle
from shortcut_gd.model import (
    MAX_DIM, StudentState, TeacherSpec, make_rng, random_state, random_teacher,
)
from shortcut_gd.oracle import (
    CHUNK_SAMPLES, MAX_FLOATS, MAX_SAMPLES, _accumulate, _finalize, _frame, fd_grad_check,
    mc_estimates,
)


def test_mc_loss_zero_at_global_optimum():
    t = random_teacher(3, 4, 0, a_norm=1.5)
    state = StudentState(w=t.w_star, a=t.a_star)
    est = mc_estimates(state, t, 100_000, seed=1)[0]
    # the integrand is pointwise zero up to rounding of the normalized filter
    assert abs(est.value) < 1e-25
    assert est.std_error < 1e-25


def test_mc_loss_known_value():
    t = TeacherSpec([1.0, 0.0], [1.0, 0.0])
    state = StudentState(w=t.w_star, a=np.zeros(2))
    est = mc_estimates(state, t, 1_000_000, seed=2)[0]
    assert abs(est.value - 0.25) <= 4.0 * est.std_error


def test_mc_cross_checks_spurious_point_loss():
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
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


def test_mc_refuses_arrays_above_max_floats_before_sampling(monkeypatch):
    """The p x p frame at k = p = MAX_DIM and the chunk buffers at k = MAX_DIM (one chunk)
    or k = 600 (MAX_SAMPLES) each exceed MAX_FLOATS, and are refused before _accumulate
    allocates any of them; the criteria's largest size, k=25 and p=8 at MAX_SAMPLES,
    reaches it."""
    def no_sampling(state, teacher, n_samples, seed):
        raise AssertionError(f"sampling reached at k={teacher.k}, p={teacher.p}")

    monkeypatch.setattr(oracle, "_accumulate", no_sampling)
    for k, p, n_samples in ((MAX_DIM, MAX_DIM, 2), (MAX_DIM, 2, CHUNK_SAMPLES),
                            (600, 8, MAX_SAMPLES)):
        t = random_teacher(k, p, 0)
        with pytest.raises(ValueError, match=f"above oracle.MAX_FLOATS = {MAX_FLOATS}"):
            mc_estimates(StudentState(w=t.w_star, a=t.a_star), t, n_samples, seed=0)
    t = random_teacher(25, 8, 0)
    with pytest.raises(AssertionError, match="sampling reached at k=25, p=8"):
        mc_estimates(StudentState(w=t.w_star, a=t.a_star), t, MAX_SAMPLES, seed=0)


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
    t = TeacherSpec([1.0, 0.0], [1.0, 0.5])
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
    """Fixed states with p in {2, 3, 8}: v = v_star, v = -v_star, the spurious
    critical point and random states."""
    states = []
    for k, p, teacher_seed in ((3, 2, 0), (4, 3, 1), (5, 8, 2)):
        t = random_teacher(k, p, teacher_seed, a_norm=1.5)
        a = random_state(t, teacher_seed).a
        for sign, name in ((1.0, "v_star"), (-1.0, "minus_v_star")):
            state = StudentState(w=sign * t.v_star - t.shortcut, a=a)
            states.append(pytest.param(state, t, id=f"k{k}p{p}-{name}"))
    spurious_t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
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


# The frame-draw chunk body before its sums over k became products in reused
# buffers. It is the reference for oracle._accumulate.


def _reference_accumulate(state, teacher, n_samples, seed):
    v = state.v
    v = v / np.linalg.norm(v)
    a, a_star = state.a, teacher.a_star
    k, p = teacher.k, teacher.p
    c_star, s_star, q = _frame(v, teacher.v_star)
    u, q_perp = q[:, 1:2].T, q[:, 2:].T

    n_chunks = (n_samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    loss_parts = np.empty((n_chunks, 2))
    ga_parts = np.empty((n_chunks, 2, k))
    gw_parts = np.empty((n_chunks, 2, p))
    for c in range(n_chunks):
        m = min(CHUNK_SAMPLES, n_samples - c * CHUNK_SAMPLES)
        rng = make_rng(seed, c)
        alpha = rng.standard_normal((m, k))
        act = np.maximum(alpha, 0.0)
        f_out = act @ a
        beta = rng.standard_normal((m, k))
        xi = rng.standard_normal((m, p - 2))
        g_out = np.maximum(c_star * alpha + s_star * beta, 0.0) @ a_star
        gate = (alpha > 0.0) * a
        raw = (gate * beta).sum(axis=1)[:, None] * u
        raw += (np.sqrt((gate * gate).sum(axis=1))[:, None] * xi) @ q_perp
        diff = g_out - f_out
        loss_samples = 0.5 * diff * diff
        ga_samples = -diff[:, None] * act
        gw_samples = -diff[:, None] * raw
        loss_parts[c, 0] = loss_samples.sum()
        loss_parts[c, 1] = (loss_samples * loss_samples).sum()
        ga_parts[c, 0] = ga_samples.sum(axis=0)
        ga_parts[c, 1] = (ga_samples * ga_samples).sum(axis=0)
        gw_parts[c, 0] = gw_samples.sum(axis=0)
        gw_parts[c, 1] = (gw_samples * gw_samples).sum(axis=0)
    return loss_parts.sum(axis=0), ga_parts.sum(axis=0), gw_parts.sum(axis=0)


def _gw_rounding_band(state, teacher, n_samples, seed):
    """How far two summation orders may move the filter-gradient sums.

    Sample i's term in component l is -diff_i (G_i u_l + sqrt(S_i) w_il), with
    G_i = sum_j a_j beta_j 1{alpha_j > 0}, S_i = sum_j a_j^2 1{alpha_j > 0} and
    w_i = Q_perp xi_i. Both estimators compute diff_i identically; they sum G_i
    and S_i over j in different orders. Each term passes through at most
    k + p + 3 roundings (a product and k - 1 additions for G_i or S_i, the
    square root, the product with xi, p - 3 additions of w, the product with u,
    the addition and the product with diff), its square through twice that, and
    the sums over the samples and the chunks add at most n - 1 more. With
    K = n + 2 (k + p + 3), each computed sum lies within
    gamma_K = K u / (1 - K u) of the exact one, relative to the same sum taken
    over |terms| (Higham, Accuracy and Stability, section 3.1). So the two
    estimators agree within 2 gamma_K times that sum, for the sums and the sums
    of squares alike.
    """
    k, p = teacher.k, teacher.p
    v = state.v / np.linalg.norm(state.v)
    a, a_star = state.a, teacher.a_star
    c_star, s_star, q = _frame(v, teacher.v_star)
    abs_u, abs_q_perp = np.abs(q[:, 1]), np.abs(q[:, 2:].T)
    magnitude = np.zeros((2, p))
    for c in range((n_samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES):
        m = min(CHUNK_SAMPLES, n_samples - c * CHUNK_SAMPLES)
        rng = make_rng(seed, c)
        alpha, beta = rng.standard_normal((m, k)), rng.standard_normal((m, k))
        xi = rng.standard_normal((m, p - 2))
        diff = (np.maximum(c_star * alpha + s_star * beta, 0.0) @ a_star
                - np.maximum(alpha, 0.0) @ a)
        opened = alpha > 0.0
        g_abs = (opened * np.abs(a * beta)).sum(axis=1)
        s_root = np.sqrt((opened * (a * a)).sum(axis=1))
        term = np.abs(diff)[:, None] * (g_abs[:, None] * abs_u
                                        + s_root[:, None] * (np.abs(xi) @ abs_q_perp))
        magnitude += (term.sum(axis=0), (term * term).sum(axis=0))
    big_k = n_samples + 2 * (k + p + 3)
    unit = np.finfo(float).eps / 2
    return 2.0 * big_k * unit / (1.0 - big_k * unit) * magnitude


@pytest.mark.parametrize("n", [2, 2 * CHUNK_SAMPLES + 3])
@pytest.mark.parametrize("k, p", [(3, 2), (4, 2), (5, 3), (25, 8)])
def test_accumulate_matches_the_reference(k, p, n):
    """Loss and output-gradient sums are bit-equal to the reference's; the
    filter-gradient sums, whose sums over j run in another order, agree within
    the rounding band of _gw_rounding_band. n = 2 CHUNK_SAMPLES + 3 ends on a
    short chunk, which runs on slices of the reused buffers."""
    teacher = random_teacher(k, p, seed=k + p, a_norm=1.5)
    state = random_state(teacher, seed=10 + k + p)
    loss, ga, gw = _accumulate(state, teacher, n, seed=3)
    ref_loss, ref_ga, ref_gw = _reference_accumulate(state, teacher, n, seed=3)
    assert loss.tobytes() == ref_loss.tobytes()
    assert ga.tobytes() == ref_ga.tobytes()
    assert np.all(np.abs(gw - ref_gw) <= _gw_rounding_band(state, teacher, n, seed=3))


_PRINT_ESTIMATES = """
import numpy as np
from shortcut_gd.model import random_state, random_teacher
from shortcut_gd.oracle import CHUNK_SAMPLES, mc_estimates
teacher = random_teacher({k}, 8, seed=3, a_norm=1.5)
for est in mc_estimates(random_state(teacher, seed=4), teacher, 2 * CHUNK_SAMPLES + 3, seed=5):
    print(*(float(x).hex() for x in np.atleast_1d(est.value)),
          *(float(x).hex() for x in np.atleast_1d(est.std_error)))
"""


@pytest.mark.parametrize("k", [25, 36])
def test_estimates_do_not_depend_on_the_blas_thread_count(k):
    """Every value and standard error is hex-equal under 1 and 2 OpenBLAS threads.

    BLAS may split a product over its threads and round each part's sum on its
    own, so a sum over the samples taken by BLAS changes with the thread count.
    OpenBLAS 0.3.31 leaves a chunk's (16384, 25) product to one thread and
    splits the (16384, 36) one, so a sum of diff @ act over the samples fails
    at k = 36; a sum of (0.5 diff^2) @ (0.5 diff^2) fails at both.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _PRINT_ESTIMATES.format(k=k)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
