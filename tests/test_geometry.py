import numpy as np
import pytest

from shortcut_gd.errors import DegenerateDirectionError
from shortcut_gd.geometry import relu_kernel_at_cos, renormalize_shortcut, shortcut_direction


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


def test_shortcut_direction():
    assert np.array_equal(shortcut_direction(1), np.array([1.0]))
    assert np.allclose(shortcut_direction(4), 0.5 * np.ones(4), atol=0)
    s8 = shortcut_direction(8)
    assert s8[0] == pytest.approx(0.353553, abs=1e-6)
    assert np.linalg.norm(s8) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        shortcut_direction(0)


def test_renormalize_examples():
    assert np.allclose(renormalize_shortcut(np.zeros(3)), np.zeros(3), atol=1e-15)
    # p=4: shortcut + ones/2 = ones, which normalizes back to the shortcut
    assert np.allclose(renormalize_shortcut(0.5 * np.ones(4)), np.zeros(4), atol=1e-15)
    # p=2 with shortcut + w_tilde = (3, 4): direct norm computation
    w_tilde = np.array([3.0, 4.0]) - shortcut_direction(2)
    expected = np.array([3 / 5, 4 / 5]) - shortcut_direction(2)
    assert np.allclose(renormalize_shortcut(w_tilde), expected, atol=1e-15)


def test_renormalize_idempotent_and_scale_invariant():
    rng = np.random.default_rng(1)
    for p in (2, 5, 8):
        sc = shortcut_direction(p)
        for _ in range(25):
            w_tilde = rng.standard_normal(p)
            once = renormalize_shortcut(w_tilde)
            assert np.allclose(renormalize_shortcut(once), once, atol=1e-12)
            alpha = rng.uniform(0.05, 20.0)
            scaled = alpha * (sc + w_tilde) - sc
            assert np.allclose(renormalize_shortcut(scaled), once, atol=1e-12)
            assert np.linalg.norm(sc + once) == pytest.approx(1.0, abs=1e-12)


def test_renormalize_degenerate():
    w_tilde = -shortcut_direction(4)
    with pytest.raises(DegenerateDirectionError):
        renormalize_shortcut(w_tilde)
