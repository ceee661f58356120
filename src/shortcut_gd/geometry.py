"""Geometric primitives: angles, the ReLU correlation kernel, shortcut normalization.

All functions are pure and operate on float64 scalars / dense 1-d arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDirectionError

# Norm below which the pre-normalization direction counts as degenerate.
DEGENERATE_NORM_TOL = 1e-12


def shortcut_direction(p: int) -> np.ndarray:
    """Unit vector with all entries equal to 1/sqrt(p)."""
    if p < 1:
        raise ValueError(f"patch dimension must be >= 1, got {p}")
    return np.full(p, 1.0 / np.sqrt(p))


def relu_kernel(phi: float) -> float:
    """Correlation kernel (pi - phi) cos(phi) + sin(phi) for ReLU pairs at angle phi.

    Strictly decreasing from pi at phi=0 to 0 at phi=pi.
    """
    if not 0.0 <= phi <= np.pi:
        raise ValueError(f"angle must lie in [0, pi], got {phi}")
    return (np.pi - phi) * np.cos(phi) + np.sin(phi)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle in [0, pi] between two nonzero vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle_between requires nonzero vectors")
    return angle_from_dot(np.dot(u, v), nu, nv)


def angle_from_dot(dot: float, nu: float, nv: float) -> float:
    """Angle in [0, pi] from an inner product and the two (nonzero) norms.

    The cosine is clipped to [-1, 1] before arccos so that accumulated
    rounding cannot push it out of domain.
    """
    c = float(dot / (nu * nv))
    return float(np.arccos(min(1.0, max(-1.0, c))))


def renormalize_shortcut(w_tilde: np.ndarray) -> np.ndarray:
    """Map an unconstrained filter update back onto the unit-norm manifold.

    Returns w such that shortcut + w is the unit vector in the direction of
    shortcut + w_tilde. Raises DegenerateDirectionError when that direction
    is numerically zero.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    shortcut = shortcut_direction(w_tilde.shape[0])
    direction = shortcut + w_tilde
    norm = np.linalg.norm(direction)
    if norm < DEGENERATE_NORM_TOL:
        raise DegenerateDirectionError(
            f"shortcut + w_tilde has norm {norm:.3e} < {DEGENERATE_NORM_TOL}"
        )
    return direction / norm - shortcut
