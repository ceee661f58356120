import numpy as np
import pytest

from shortcut_gd import model
from shortcut_gd.landscape import OffManifoldError, closed_coordinates
from shortcut_gd.model import (
    MANIFOLD_TOL,
    MAX_DIM,
    StudentState,
    TeacherSpec,
    keyed_rngs,
    make_rng,
    random_state,
    random_teacher,
    shortcut_direction,
)


def _teacher(p=2, a=(1.0, 1.0)):
    return TeacherSpec(v_star=np.array([1.0] + [0.0] * (p - 1)), a_star=np.array(a))


def test_shortcut_direction():
    assert np.array_equal(shortcut_direction(1), np.array([1.0]))
    assert np.allclose(shortcut_direction(4), 0.5 * np.ones(4), atol=0)
    s8 = shortcut_direction(8)
    assert s8[0] == pytest.approx(0.353553, abs=1e-6)
    assert np.linalg.norm(s8) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        shortcut_direction(0)


def test_teacher_derived_quantities():
    t = _teacher(a=(1.0, 1.0))
    assert t.sum_a_star == 2.0
    assert t.a_star_norm_sq == 2.0
    assert t.alignment_lower == pytest.approx(2.0 / 5.0, abs=1e-15)
    assert t.alignment_upper == pytest.approx(3.0 * 2.0 + 2.0 * 4.0, abs=1e-15)
    assert np.allclose(t.w_star, t.v_star - shortcut_direction(2), atol=0)


def test_teacher_reads_its_sizes_from_its_vectors():
    t = TeacherSpec(np.array([0.6, 0.8, 0.0]), np.array([1.0, -1.0]))
    assert (t.p, t.k) == (3, 2)
    with pytest.raises(TypeError):
        TeacherSpec(p=3, k=2, v_star=t.v_star, a_star=t.a_star)
    with pytest.raises(ValueError, match="needs p >= 2"):
        TeacherSpec(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="1-d"):
        TeacherSpec(np.array([[0.6, 0.8]]), np.array([1.0]))


@pytest.mark.parametrize("k, p, message", [
    (5, 1, "needs p >= 2"),
    (0, 2, "k must lie in"),
    (MAX_DIM + 1, 2, "k must lie in"),
    (2, MAX_DIM + 1, "p must lie in"),
], ids=["p-1", "k-0", "k-above", "p-above"])
def test_random_teacher_refuses_a_size_before_any_draw(monkeypatch, k, p, message):
    # at p = 1 nothing is orthogonal to the axis, so direction_at_angle has no direction
    # to give: the size must be refused before the first draw
    monkeypatch.setattr(model, "make_rng", lambda *args: pytest.fail("a draw was made"))
    with pytest.raises(ValueError, match=message):
        random_teacher(k, p, 0)


def test_teacher_validation():
    with pytest.raises(ValueError):
        TeacherSpec(v_star=np.array([2.0, 0.0]), a_star=np.array([1.0]))
    # orthogonal to the shortcut direction: prior violated
    with pytest.raises(ValueError):
        TeacherSpec(v_star=np.array([1.0, -1.0]) / np.sqrt(2), a_star=np.array([1.0]))


@pytest.mark.parametrize("v_star, a_star", [
    ([np.nan, np.nan], [1.0, 1.0]), ([1.0, 0.0], [1.0, np.inf]), ([1.0, 0.0], [np.nan, 1.0]),
], ids=["v_star-nan", "a_star-inf", "a_star-nan"])
def test_teacher_refuses_non_finite_parameters(v_star, a_star):
    # a NaN v_star passes the unit-norm test, since |NaN - 1| > tol is False
    with pytest.raises(ValueError, match="must be finite"):
        TeacherSpec(v_star=np.array(v_star), a_star=np.array(a_star))


def test_strict_prior_flag():
    # ||w_star|| = sqrt(2 - 2 cos(angle)); angle pi/3 sits exactly at the strict cutoff
    p = 4
    sc = shortcut_direction(p)
    u = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    near = TeacherSpec(v_star=np.cos(0.2) * sc + np.sin(0.2) * u, a_star=np.array([1.0]))
    far = TeacherSpec(v_star=np.cos(1.3) * sc + np.sin(1.3) * u, a_star=np.array([1.0]))
    assert near.strict_prior
    assert not far.strict_prior


def test_teacher_arrays_read_only():
    t = _teacher()
    with pytest.raises(ValueError):
        t.v_star[0] = 2.0


def test_student_state_manifold():
    t = _teacher(p=4, a=(1.0, 1.0, 1.0))
    st = StudentState(w=np.zeros(4), a=np.zeros(3))
    assert abs(np.linalg.norm(st.v) - 1.0) <= MANIFOLD_TOL
    closed_coordinates(st, t)
    bad = StudentState(w=np.full(4, 0.3), a=np.zeros(3))
    assert abs(np.linalg.norm(bad.v) - 1.0) > MANIFOLD_TOL
    with pytest.raises(OffManifoldError):
        closed_coordinates(bad, t)


def test_make_rng_streams():
    a = make_rng(7, 0).standard_normal(4)
    b = make_rng(7, 0).standard_normal(4)
    c = make_rng(7, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_rng_rejects_keys_outside_uint64():
    make_rng(2**64 - 1, 2**64 - 1)
    for seed, stream in ((-3, 0), (0, -1), (2**64, 0)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            make_rng(seed, stream)


def test_keyed_rngs_draw_as_make_rng():
    # consecutive keys re-key one Philox: among them the verify sampler's streams
    # (1_000_000 + i and 2_000_000 + i) and the largest seed
    keys = [(7, 0), (7, 1), (0, 2_000_000), (2**64 - 1, 2**64 - 1), (7, 0),
            (77, 1_000_000), (77, 1_000_001), (2**64 - 1, 0), (2**64 - 1, 1_000_002),
            (13, 2_000_001), (2**64 - 1, 2_000_002)]
    for (seed, stream), rng in zip(keys, keyed_rngs(keys), strict=True):
        ref = make_rng(seed, stream)
        # a mix of draws, so a stale key, counter, buffer or 32-bit half would show
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))
        assert rng.random() == ref.random()
        assert np.array_equal(rng.integers(0, 2**40, 3), ref.integers(0, 2**40, 3))
        assert rng.integers(0, 2**32, dtype=np.uint32) == ref.integers(0, 2**32, dtype=np.uint32)


def test_keyed_rngs_reject_keys_outside_uint64():
    for seed, stream in ((-3, 0), (0, -1), (2**64, 0), (0, 2**64)):
        rngs = keyed_rngs([(1, 1), (seed, stream), (2, 2)])
        rng, ref = next(rngs), make_rng(1, 1)
        assert rng.random() == ref.random()
        with pytest.raises(ValueError, match="2\\*\\*64"):
            next(rngs)
        # the refused key wrote nothing: the last generator still draws its own stream
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))
        # and the next valid key draws as make_rng
        assert np.array_equal(next(keyed_rngs([(2, 2)])).standard_normal(3),
                              make_rng(2, 2).standard_normal(3))


def _parent_random_teacher(k, p, seed):
    """random_teacher's draw before the re-projection, at the default angle law."""
    rng = make_rng(seed, 101)
    sc = shortcut_direction(p)
    theta = rng.uniform(0.0, np.pi / 3)
    z = rng.standard_normal(p)
    z -= (z @ sc) * sc
    u = z / np.linalg.norm(z)
    v_star = np.cos(theta) * sc + np.sin(theta) * u
    za = rng.standard_normal(k)
    return v_star, za / np.linalg.norm(za)


def test_random_teacher_near_shortcut_draws():
    # normal draws nearly along the shortcut: the first projection missed unit norm by ~1e-12
    for seed in (542, 33585, 39672):
        t = random_teacher(1, 2, seed)
        assert abs(np.linalg.norm(t.v_star) - 1.0) <= 1e-15
        assert t.shortcut_angle() <= np.pi / 3
    # every other teacher keeps its bits
    for p in (2, 3, 4):
        for seed in range(2001):
            if p == 2 and seed == 542:
                continue
            t = random_teacher(3, p, seed)
            v_star, a_star = _parent_random_teacher(3, p, seed)
            assert t.v_star.tobytes() == v_star.tobytes(), (p, seed)
            assert t.a_star.tobytes() == a_star.tobytes(), (p, seed)


def test_random_teacher_properties():
    for seed in range(20):
        t = random_teacher(5, 4, seed)
        assert np.linalg.norm(t.v_star) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(t.a_star) == pytest.approx(1.0, abs=1e-12)
        assert t.strict_prior
    t2 = random_teacher(3, 2, 0, a_norm=2.5)
    assert np.linalg.norm(t2.a_star) == pytest.approx(2.5, abs=1e-12)


def test_random_state_on_manifold():
    t = random_teacher(5, 4, 0)
    for seed in range(10):
        st = random_state(t, seed)
        assert abs(np.linalg.norm(st.v) - 1.0) <= 1e-12
        assert st.w.shape == (4,) and st.a.shape == (5,)
