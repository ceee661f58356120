import numpy as np
import pytest

from shortcut_gd.geometry import relu_kernel_at_cos, shortcut_direction


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

