"""Geometric primitives: the shortcut direction and the ReLU correlation kernel.

All functions are pure and operate on float64 scalars / dense 1-d arrays.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


def shortcut_direction(p: int) -> np.ndarray:
    """Unit vector with all entries equal to 1/sqrt(p)."""
    if p < 1:
        raise ValueError(f"patch dimension must be >= 1, got {p}")
    return np.full(p, 1.0 / np.sqrt(p))


class Backend(NamedTuple):
    """The operations of the closed-state formulas that are not arithmetic.

    ARRAYS applies them elementwise to numpy arrays, FLOATS to one Python
    float (several times faster there). clip maps onto [-1, 1] and keeps NaN.
    """

    acos: Callable
    sqrt: Callable
    clip: Callable


# Written with comparisons, which are false for NaN: max(-1.0, nan) would return -1.0.
FLOATS = Backend(math.acos, math.sqrt, lambda c: -1.0 if c < -1.0 else (1.0 if c > 1.0 else c))
ARRAYS = Backend(np.arccos, np.sqrt, lambda c: np.minimum(np.maximum(c, -1.0), 1.0))


def relu_kernel_at_cos(x, lib: Backend = FLOATS, sin_sq=None, phi=None):
    """(pi - phi, g) at x = cos(phi), on floats or, with ARRAYS, arrays.

    g = (pi - phi) cos(phi) + sin(phi) is the correlation kernel of ReLU pairs
    at angle phi, strictly decreasing from pi at phi = 0 to 0 at phi = pi.
    sin_sq = sin(phi)^2 defaults to 1 - x^2, and phi to lib.acos(x).
    """
    pi_minus_phi = np.pi - (lib.acos(x) if phi is None else phi)
    return pi_minus_phi, pi_minus_phi * x + lib.sqrt(1.0 - x * x if sin_sq is None else sin_sq)

