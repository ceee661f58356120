import math

import numpy as np
import pytest

from shortcut_gd.experiments import DEFAULT_INIT_LAWS, VARIANTS, teacher_for_k
from shortcut_gd.landscape import (
    ESCAPE_MAX_ANGLE,
    CriticalPair,
    EscapeRegion,
    FilterBasinRegion,
    OffManifoldError,
    RefinementRegion,
    closed_coordinates,
    closed_rows,
    critical_points,
    grad_a,
    grad_w,
    population_loss,
    relu_kernel_at_cos,
)
from shortcut_gd.model import (
    StudentState, TeacherSpec, random_state, random_teacher, shortcut_direction,
)
from shortcut_gd.optimizer import draw_starts, run
from shortcut_gd.oracle import fd_grad_check, mc_estimates
from shortcut_gd.schedules import ConstantSchedule
from shortcut_gd.verification import region_membership


def _kernel(phi):
    """The kernel (pi - phi) cos(phi) + sin(phi), read at x = cos(phi)."""
    return relu_kernel_at_cos(np.cos(phi))[1]


def test_relu_kernel_endpoints():
    assert relu_kernel_at_cos(1.0) == (np.pi, np.pi)
    assert relu_kernel_at_cos(-1.0) == (0.0, 0.0)
    assert relu_kernel_at_cos(0.0)[1] == 1.0


def test_relu_kernel_reference_value():
    # kernel(5pi/12) - 1 = 0.4402 to the printed precision
    assert _kernel(5 * np.pi / 12) - 1.0 == pytest.approx(0.4402, abs=5e-5)


def test_relu_kernel_strictly_decreasing_and_in_range():
    grid = np.linspace(0.0, np.pi, 10_001)
    values = np.array([_kernel(phi) for phi in grid])
    assert np.all(np.diff(values) < 0)
    assert values.min() >= 0.0
    assert values.max() <= np.pi + 1e-15


def _global_state(teacher):
    return StudentState(w=teacher.w_star, a=teacher.a_star)


def _spurious_state(teacher):
    cp = critical_points(teacher)
    return StudentState(w=cp.spurious_w, a=cp.spurious_a)


def test_loss_zero_at_global_optimum():
    for seed in range(5):
        t = random_teacher(4, 3, seed, a_norm=1.7)
        assert population_loss(_global_state(t), t) == pytest.approx(0.0, abs=1e-12)


def test_loss_halved_second_moment_case():
    # teacher (1, 0) with silent student: loss is half the second moment of one
    # rectified unit, i.e. 1/4
    t = TeacherSpec([1.0, 0.0], [1.0, 0.0])
    state = StudentState(w=t.w_star, a=np.zeros(2))
    assert population_loss(state, t) == pytest.approx(0.25, abs=1e-12)


def test_loss_at_spurious_point_closed_value():
    # independent evaluation for k=2, a_star=(1,1): at the spurious point the
    # angle is pi (kernel 0) and a = ones/(pi+1); expanding the quadratic form
    # by hand gives the frozen value below
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    c = 1.0 / (np.pi + 1.0)
    expected = 0.5 * (
        (np.pi - 1) / (2 * np.pi) * 2.0
        + (np.pi - 1) / (2 * np.pi) * 2.0 * c * c
        + (1.0 / np.pi) * 2.0 * c
        + 4.0 / (2 * np.pi)
        + (2.0 * c) ** 2 / (2 * np.pi)
        - (1.0 / np.pi) * 2.0 * 2.0 * c
    )
    assert expected == pytest.approx(0.6207, abs=5e-4)
    assert population_loss(_spurious_state(t), t) == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_off_manifold():
    t = TeacherSpec([1.0, 0.0], [1.0, 0.0])
    with pytest.raises(OffManifoldError):
        population_loss(StudentState(w=np.ones(2), a=np.zeros(2)), t)


def test_loss_nonnegative_at_random_states():
    for seed in range(40):
        t = random_teacher(5, 4, seed % 7, a_norm=0.5 + (seed % 4))
        state = random_state(t, seed)
        assert population_loss(state, t) >= -1e-12


def test_grad_a_examples():
    t = TeacherSpec([1.0, 0.0], [1.0, 0.0])
    assert np.allclose(grad_a(_global_state(t), t), 0.0, atol=1e-12)
    state = StudentState(w=t.w_star, a=np.zeros(2))
    expected = np.array([-0.5, -1.0 / (2.0 * np.pi)])
    assert np.allclose(grad_a(state, t), expected, atol=1e-12)


def test_grad_a_zero_at_spurious_point():
    for seed in range(5):
        t = random_teacher(6, 3, seed, a_norm=2.0)
        assert np.linalg.norm(grad_a(_spurious_state(t), t)) <= 1e-10


def test_grad_w_examples():
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    # angle zero: projection annihilates v_star
    assert np.allclose(grad_w(_global_state(t), t), 0.0, atol=1e-12)
    # zero alignment: scalar prefactor vanishes
    state = StudentState(w=np.zeros(2), a=np.array([1.0, -1.0]))
    assert np.allclose(grad_w(state, t), 0.0, atol=1e-15)
    # v orthogonal to v_star with unit alignment: -(pi - pi/2)/2pi * v_star = -v_star/4
    t2 = TeacherSpec([1.0, 0.0], [1.0, 0.0])
    v = np.array([0.0, 1.0])
    state2 = StudentState(w=v - shortcut_direction(2), a=np.array([1.0, 0.0]))
    assert np.allclose(grad_w(state2, t2), -t2.v_star / 4.0, atol=1e-12)


def test_grad_w_tangent_to_manifold():
    for seed in range(30):
        t = random_teacher(4, 5, seed % 6, a_norm=1.5)
        state = random_state(t, seed + 50)
        g = grad_w(state, t)
        assert abs(float(g @ state.v)) <= 1e-10


def test_spurious_weights_closed_form():
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    expected = np.full(2, 1.0 / (np.pi + 1.0))
    assert np.allclose(critical_points(t).spurious_a, expected, atol=1e-12)

    t0 = TeacherSpec([1.0, 0.0], [0.0, 0.0, 0.0])
    assert np.allclose(critical_points(t0).spurious_a, 0.0, atol=0)


def test_spurious_weights_defining_residual():
    for seed in range(8):
        k = 2 + seed
        t = random_teacher(k, 4, seed, a_norm=1.0 + seed / 3)
        a_bar = critical_points(t).spurious_a
        lhs = np.full((k, k), 1.0) + (np.pi - 1.0) * np.eye(k)
        rhs = np.full((k, k), 1.0) - np.eye(k)
        assert np.linalg.norm(lhs @ a_bar - rhs @ t.a_star) <= 1e-10
        # cross-check against a dense solve
        assert np.allclose(a_bar, np.linalg.solve(lhs, rhs @ t.a_star), atol=1e-12)


def test_critical_pair_geometry():
    for seed in range(5):
        t = random_teacher(3, 5, seed)
        cp = critical_points(t)
        assert isinstance(cp, CriticalPair)
        v_bar = t.shortcut + cp.spurious_w
        assert np.linalg.norm(v_bar) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v_bar, -t.v_star, atol=1e-12)


def test_gradients_vanish_at_both_critical_points():
    for seed in range(5):
        t = random_teacher(4, 4, seed, a_norm=2.0)
        for state in (_global_state(t), _spurious_state(t)):
            assert np.linalg.norm(grad_a(state, t)) <= 1e-10
            assert np.linalg.norm(grad_w(state, t)) <= 1e-10


def test_loss_gap_spurious_vs_global():
    for seed in range(6):
        t = random_teacher(5, 3, seed, a_norm=0.7 + seed / 2)
        assert population_loss(_spurious_state(t), t) > 1e-9
        assert population_loss(_global_state(t), t) == pytest.approx(0.0, abs=1e-12)


def test_region_membership_escape_example():
    t = TeacherSpec([1.0, 0.0, 0.0, 0.0], [1.0, 1.0])
    state = StudentState(w=np.zeros(4), a=np.zeros(2))
    # shortcut overlap 0.5 puts the angle at pi/3 <= 5pi/12
    assert math.acos(closed_coordinates(state, t)[0]) == pytest.approx(np.pi / 3, abs=1e-12)
    assert region_membership(state, EscapeRegion(teacher=t))


def test_region_membership_filter_basin_and_refinement():
    t = TeacherSpec([1.0, 0.0, 0.0, 0.0], [1.0, 1.0])
    at_truth = _global_state(t)
    assert region_membership(at_truth, FilterBasinRegion(teacher=t, min_alignment=0.2))
    region = RefinementRegion(teacher=t, min_alignment=0.2, max_alignment=t.alignment_upper,
                              filter_err_bound=0.01)
    assert region_membership(at_truth, region)
    # filter error 0.02 > bound 0.01
    u = np.array([0.0, 1.0, 0.0, 0.0])
    phi = np.arccos(1.0 - 0.01)  # ||v - v_star||^2 = 0.02
    v = np.cos(phi) * t.v_star + np.sin(phi) * u
    off = StudentState(w=v - t.shortcut, a=t.a_star)
    assert not region_membership(off, region)


def test_region_membership_respects_angle_cap():
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    v = np.array([np.cos(ESCAPE_MAX_ANGLE + 0.05), np.sin(ESCAPE_MAX_ANGLE + 0.05)])
    state = StudentState(w=v - t.shortcut, a=np.zeros(2))
    assert not region_membership(state, EscapeRegion(teacher=t))


# The gradients as they were first written, on the vectors, with the kernel at the
# filter angle from np.arccos: the reference for the closed-coordinate gradients.


def _reference_kernel(phi):
    """(pi - phi) cos(phi) + sin(phi), the ReLU kernel at angle phi."""
    return (np.pi - phi) * np.cos(phi) + np.sin(phi)


def _reference_angle(state, teacher):
    v = state.v
    c = float(np.dot(v, teacher.v_star) / (np.linalg.norm(v) * np.linalg.norm(teacher.v_star)))
    return float(np.arccos(min(1.0, max(-1.0, c))))


def _reference_grad_a(state, teacher):
    a, g = state.a, _reference_kernel(_reference_angle(state, teacher))
    return (float(a.sum()) + (np.pi - 1.0) * a - teacher.sum_a_star
            - (g - 1.0) * teacher.a_star) / (2.0 * np.pi)


def _reference_grad_w(state, teacher):
    v = state.v
    projected = teacher.v_star - float(v @ teacher.v_star) * v
    adot = float(state.a @ teacher.a_star)
    return -(adot * (np.pi - _reference_angle(state, teacher)) / (2.0 * np.pi)) * projected


_U = 2.0 ** -53  # unit roundoff of float64


def _gradient_bands(state, teacher):
    """Per-component bounds on |grad_a - _reference_grad_a| and |grad_w - _reference_grad_w|.

    Write L = ||a||_1 + ||a_star||_1 and u = 2^-53, and recall that a sum of n
    rounded terms is within gamma_n sum |terms| of its exact value,
    gamma_n = n u / (1 - n u) <= 2 n u.

    Output weights. In exact arithmetic the closed form
    (1^T d) 1 + (pi - 1) d + (pi - g) a_star and the reference
    1^T a + (pi - 1) a - s - (g - 1) a_star differ only by (g_ref - g) a_star.
    The closed side rounds 1^T d (within gamma_k L), (pi - 1) d_j (within
    gamma_3 (pi - 1) L), (pi - g) a_star_j (within gamma_2 pi L) and two
    additions over terms summing to at most (pi + 3.2) L; the reference
    rounds 1^T a and the stored s (together within gamma_k L), two products
    (within gamma_2 (pi - 1) L each) and three additions. With the division
    by 2pi, each side is within 2 (k + 29) u L / 2pi of its exact value. The
    two kernels, relu_kernel_at_cos(x) and _reference_kernel(arccos x), are two
    formulas for g; their measured difference dg enters as dg |a_star_j| / 2pi.

    Filter. Both sides form the same projection v_star - (v . v_star) v from
    the same floats, so only their scalar factors differ. The closed
    a_star^T d + ||a_star||^2 is within 2 (2k + 2) u L^2 of the exact a^T a_star
    and the reference a . a_star within 2 k u L^2; |a^T a_star| <= L^2; the
    two values of pi - phi differ by a measured dpi. Scaled by pi - phi <= pi,
    with the products, the division by 2pi and the product with the
    projection, the components differ by at most
    |projected_i| L^2 (dpi + pi (6k + 7) u) / 2pi.

    Each term is taken with a margin of 2.
    """
    l1 = float(np.abs(state.a).sum() + np.abs(teacher.a_star).sum())
    pi_minus_phi, g = relu_kernel_at_cos(closed_coordinates(state, teacher)[0])
    phi = _reference_angle(state, teacher)
    dg = abs(_reference_kernel(phi) - g)
    dpi = abs((np.pi - phi) - pi_minus_phi)
    k, v = teacher.k, state.v
    band_a = 2.0 * (4 * (k + 29) * _U * l1 + dg * np.abs(teacher.a_star)) / (2.0 * np.pi)
    projected = np.abs(teacher.v_star - float(v @ teacher.v_star) * v)
    band_w = 2.0 * projected * l1 * l1 * (dpi + np.pi * (6 * k + 7) * _U) / (2.0 * np.pi)
    return band_a, band_w


def _gradient_cases():
    """Random states at k in {1, 2, 5, 25} and p in {2, 3, 4, 8}, the filter at v_star
    and at -v_star, and both critical points."""
    cases = []
    for seed in range(64):
        k, p = (1, 2, 5, 25)[seed % 4], (2, 3, 4, 8)[seed // 4 % 4]
        t = random_teacher(k, p, seed, a_norm=0.5 + seed % 3)
        a = random_state(t, seed + 100).a
        cases += [(t, random_state(t, seed + 100)),
                  (t, StudentState(w=t.w_star, a=a)),
                  (t, StudentState(w=-t.v_star - t.shortcut, a=a)),
                  (t, _global_state(t)),
                  (t, _spurious_state(t))]
    return cases


def test_gradients_match_the_vector_reference():
    """grad_a and grad_w, on the closed coordinates and relu_kernel_at_cos, agree with
    the vector formulas on _reference_kernel(filter angle) within _gradient_bands."""
    for t, state in _gradient_cases():
        band_a, band_w = _gradient_bands(state, t)
        assert np.all(np.abs(grad_a(state, t) - _reference_grad_a(state, t)) <= band_a)
        assert np.all(np.abs(grad_w(state, t) - _reference_grad_w(state, t)) <= band_w)


_READERS = {
    "population_loss": population_loss,
    "grad_a": grad_a,
    "grad_w": grad_w,
    "run": lambda state, t: run(state, t, ConstantSchedule(eta_a=0.1, eta_w=0.1), max_iters=1),
    "region_membership": lambda state, t: region_membership(state, EscapeRegion(teacher=t)),
    "mc_estimates": lambda state, t: mc_estimates(state, t, 2, seed=0),
    "fd_grad_check": fd_grad_check,
}


@pytest.mark.parametrize("name", _READERS)
def test_public_readers_check_the_shapes_and_the_manifold(name):
    """Each public function that reads a state raises ValueError when its shapes do not
    match the teacher's; off the manifold it raises OffManifoldError, except
    region_membership, which returns False there."""
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    fn = _READERS[name]
    fn(StudentState(w=np.zeros(2), a=np.zeros(2)), t)
    for mismatched in (StudentState(w=np.zeros(2), a=np.zeros(3)),
                       StudentState(w=np.zeros(3), a=np.zeros(2)),
                       StudentState(w=np.ones(3), a=np.zeros(2))):
        with pytest.raises(ValueError, match="do not match"):
            fn(mismatched, t)
    for off in (StudentState(w=np.ones(2), a=np.zeros(2)),
                StudentState(w=np.full(2, np.nan), a=np.zeros(2))):
        if name == "region_membership":
            assert fn(off, t) is False
        else:
            with pytest.raises(OffManifoldError):
                fn(off, t)


@pytest.mark.parametrize("name", _READERS)
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_public_readers_refuse_a_non_finite_output_weight(name, bad):
    """closed_coordinates raises ValueError when a coordinate is not finite, so no
    public reader returns NaN or classifies such a state as undecided."""
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="not all finite"):
        _READERS[name](StudentState(w=np.zeros(2), a=np.array([bad, 0.0])), t)


def test_closed_coordinates_refuse_a_coordinate_that_overflows():
    """Finite output weights whose ||d||^2 overflows to inf: with numpy's overflow warning
    off, closed_coordinates still refuses the state."""
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="closed coordinates"):
        closed_coordinates(StudentState(w=np.zeros(2), a=np.full(2, 1e200)), t)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_regions_refuse_bounds_that_are_nan_or_infinite(bad):
    # each refusal is written so that NaN fails it: NaN <= 0 and NaN < m are False. An
    # infinite min_alignment admits no point, and an infinite filter_err_bound makes the
    # slack infinite; an infinite max_alignment is no upper bound and stays accepted.
    t = TeacherSpec([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="min_alignment"):
        FilterBasinRegion(teacher=t, min_alignment=bad)
    cases = [((bad, 2.0, 0.1), "min_alignment"), ((0.2, 2.0, bad), "filter_err_bound")]
    if math.isnan(bad):
        cases.append(((0.2, bad, 0.1), "max_alignment"))
    for args, field in cases:
        with pytest.raises(ValueError, match=field):
            RefinementRegion(t, *args)
    RefinementRegion(t, 0.2, math.inf, 0.1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_closed_rows_reads_a_row_as_closed_coordinates_whichever_rows_share_the_call(variant):
    """On criterion 4's k=100 starts of a variant (seeds 0-499), each row closed_rows reads
    is closed_coordinates of that row's state, bit for bit, and reads the same alone or
    among 2, 3, 7 or all 500 rows. Reading a_star^T d as one BLAS gemv over the rows,
    d @ a_star, gives other bits on some of these rows at 2, 3 or 7 rows than at 500."""
    t = teacher_for_k(100)
    v0, a0 = draw_starts(t, range(500), DEFAULT_INIT_LAWS[variant],
                         plain_filter=variant == "cnn_baseline")
    states = [StudentState(w=v - t.shortcut, a=a) for v, a in zip(v0, a0)]
    v = np.array([state.v for state in states])  # the filters closed_coordinates reads
    whole = np.column_stack(closed_rows(v, a0, t))
    assert list(map(tuple, whole.tolist())) == [closed_coordinates(s, t) for s in states]
    for n in (1, 2, 3, 7):
        parts = [np.column_stack(closed_rows(v[i:i + n], a0[i:i + n], t))
                 for i in range(0, 500, n)]
        assert np.vstack(parts).tobytes() == whole.tobytes(), n
