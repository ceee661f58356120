"""Teacher and student parameter containers plus seeded samplers.

The teacher holds the true filter v_star (unit norm) and output weights
a_star; derived quantities used throughout (the shortcut direction, w_star,
the output-alignment bounds for the basin of attraction) are computed once at
construction. The student state is the pair (w, a) with the manifold
constraint ||shortcut + w|| = 1 maintained by the optimizer.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

# Tolerance for the unit-norm manifold constraint on shortcut + w.
MANIFOLD_TOL = 1e-9
# Tolerance for validating ||v_star|| = 1.
VSTAR_NORM_TOL = 1e-12
# Largest k and p of a teacher (the criteria use k <= 100, p <= 8). At the bound the verify
# sampler draws up to MAX_PROPOSALS (10^5) balls of k normals for one point, in passes of
# PROPOSAL_BLOCK = 4 (320 KB) over a block of that one point, each ball about 0.2 ms
# (2-vCPU host), so about 20 s before the point counts as infeasible.
MAX_DIM = 10_000


def shortcut_direction(p: int) -> np.ndarray:
    """Unit vector with all entries equal to 1/sqrt(p)."""
    if p < 1:
        raise ValueError(f"patch dimension must be >= 1, got {p}")
    return np.full(p, 1.0 / np.sqrt(p))


def check_dims(k: int, p: int) -> None:
    """Refuse k outside [1, MAX_DIM] and p outside [2, MAX_DIM]: at p = 1 the filter
    sphere is the two points +-1, so there is no filter angle to learn or to sample."""
    if not 1 <= k <= MAX_DIM:
        raise ValueError(f"k must lie in [1, {MAX_DIM}], got {k}")
    if not 2 <= p <= MAX_DIM:
        raise ValueError(f"p must lie in [2, {MAX_DIM}]: a filter angle needs p >= 2; got {p}")


def _philox_key(seed: int, stream: int) -> tuple[int, int]:
    """(seed, stream), the two words of a Philox key, once both lie in [0, 2^64)."""
    if not (0 <= seed < 2**64 and 0 <= stream < 2**64):
        raise ValueError(f"seed and stream must lie in [0, 2**64), got {seed} and {stream}")
    return seed, stream


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Distinct (seed, stream) pairs give statistically independent streams, so
    per-sample or per-trial streams can be split deterministically no matter
    how work is scheduled. Both must lie in [0, 2^64).
    """
    key = np.array(_philox_key(seed, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def keyed_rngs(keys: Iterable[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """For each (seed, stream) key in turn, a generator whose draws equal make_rng(seed, stream).

    One Philox is re-keyed in place (counter 0, buffer empty) from one state
    whose key array takes each key in turn, which costs a fraction of
    constructing a new one. Every yielded generator is the same object, so
    each is valid only until the next one is yielded. Keys outside [0, 2^64)
    raise ValueError as in make_rng.
    """
    key = np.zeros(2, dtype=np.uint64)
    zeros = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": key},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    bit_generator = np.random.Philox(key=key)
    rng = np.random.Generator(bit_generator)
    for seed, stream in keys:
        key[:] = _philox_key(seed, stream)
        bit_generator.state = state
        yield rng


@dataclass(frozen=True)
class TeacherSpec:
    """True parameters (v_star, a_star) and derived constants.

    Derived fields:
      p, k              the lengths of v_star and a_star, checked by check_dims
      shortcut          shortcut_direction(p), the unit vector of entries 1/sqrt(p)
      w_star            v_star - shortcut, the true filter offset
      sum_a_star        1^T a_star
      a_star_norm_sq    ||a_star||^2
      alignment_lower   ||a_star||^2 / 5, lower alignment bound in the basin
      alignment_upper   3 ||a_star||^2 + 2 (1^T a_star)^2, upper bound
      strict_prior      True when ||w_star|| <= 1 (the strong closeness prior)
    """

    v_star: np.ndarray
    a_star: np.ndarray
    p: int = field(init=False)
    k: int = field(init=False)
    shortcut: np.ndarray = field(init=False, repr=False)
    w_star: np.ndarray = field(init=False, repr=False)
    sum_a_star: float = field(init=False)
    a_star_norm_sq: float = field(init=False)
    alignment_lower: float = field(init=False)
    alignment_upper: float = field(init=False)
    strict_prior: bool = field(init=False)

    def __post_init__(self) -> None:
        v_star = np.array(self.v_star, dtype=float)
        a_star = np.array(self.a_star, dtype=float)
        if not (v_star.ndim == a_star.ndim == 1
                and np.isfinite(v_star).all() and np.isfinite(a_star).all()):
            raise ValueError("v_star and a_star must be finite 1-d vectors")
        check_dims(a_star.size, v_star.size)
        object.__setattr__(self, "p", v_star.size)
        object.__setattr__(self, "k", a_star.size)
        if abs(np.linalg.norm(v_star) - 1.0) > VSTAR_NORM_TOL:
            raise ValueError(f"v_star must be unit norm, got {np.linalg.norm(v_star)}")
        shortcut = shortcut_direction(self.p)
        w_star = v_star - shortcut
        # ||w_star|| < sqrt(2) is equivalent to shortcut^T v_star > 0: the true
        # filter must not be orthogonal to (or behind) the shortcut direction.
        if float(shortcut @ v_star) <= 0.0:
            raise ValueError("v_star must have positive overlap with the shortcut direction")
        for array in (v_star, a_star, shortcut, w_star):
            array.setflags(write=False)
        s = float(a_star.sum())
        norm_sq = float(a_star @ a_star)
        object.__setattr__(self, "v_star", v_star)
        object.__setattr__(self, "a_star", a_star)
        object.__setattr__(self, "shortcut", shortcut)
        object.__setattr__(self, "w_star", w_star)
        object.__setattr__(self, "sum_a_star", s)
        object.__setattr__(self, "a_star_norm_sq", norm_sq)
        object.__setattr__(self, "alignment_lower", norm_sq / 5.0)
        object.__setattr__(self, "alignment_upper", 3.0 * norm_sq + 2.0 * s * s)
        object.__setattr__(self, "strict_prior", bool(np.linalg.norm(w_star) <= 1.0))

    def shortcut_angle(self) -> float:
        """Angle between the shortcut direction and v_star, both unit vectors; their dot
        product is finite (v_star is checked finite) and clipped onto [-1, 1]."""
        return math.acos(min(max(float(self.shortcut @ self.v_star), -1.0), 1.0))


@dataclass(frozen=True)
class StudentState:
    """Current iterate (w, a); shortcut + w is kept unit norm by the optimizer."""

    w: np.ndarray
    a: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.w, dtype=float)
        a = np.array(self.a, dtype=float)
        if w.ndim != 1 or a.ndim != 1:
            raise ValueError("w and a must be 1-d vectors")
        w.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "a", a)

    @property
    def v(self) -> np.ndarray:
        """The normalized filter direction shortcut + w."""
        return shortcut_direction(self.w.size) + self.w


def row_dots(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u_i . w_i per row of u (..., m), w a matching stack or one (m,) vector: 1 x m by m x 1
    matmuls, each np.dot's bits, where u @ w would run in gemv, whose bits depend on n."""
    return (u[..., None, :] @ w[..., None])[..., 0, 0]


def unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of z, (n, m), divided by its norm, in place: the bits of z / np.linalg.norm(z)
    on each row alone, since sqrt of the row dot is np.linalg.norm's arithmetic."""
    z /= np.sqrt(row_dots(z, z))[:, None]
    return z


def ball_points(z: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Points uniform in the radius ball of R^k, in place: row i of z, (n, k), k standard
    normals, becomes radius u_i^(1/k) z_i / ||z_i|| for its uniform draw u_i in [0, 1).
    Each row has the bits it has alone; the power is Python's float pow, row by row."""
    inv_k = 1.0 / z.shape[1]
    unit_rows(z)
    z *= np.array([radius * ui ** inv_k for ui in u.tolist()])[:, None]
    return z


def direction_at_angle(axis: np.ndarray, cos_sin: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows of unit vectors at an angle to the unit vector axis, (n, p), p >= 2: row i is
    cos_i axis + sin_i u_i, with (cos_i, sin_i) row i of cos_sin, np.cos and np.sin of the
    angle taken per row (an array call may differ in the last bit), and u_i row i of the
    normal draws z, (n, p), made orthogonal to axis and unit in place. A row of z with
    nothing left orthogonal to axis (an event of probability zero) takes, with no draw,
    the part of e_j orthogonal to axis, j = argmin |axis_j|, nonzero since p >= 2. Each
    row has the bits it has alone."""
    z -= row_dots(z, axis)[:, None] * axis
    along = row_dots(z, z) == 0.0
    if along.any():
        j = np.argmin(np.abs(axis))
        z[along] = -axis[j] * axis
        z[along, j] += 1.0
    unit_rows(z)
    v = cos_sin[:, :1] * axis + cos_sin[:, 1:] * z
    for i in np.flatnonzero(np.abs(np.sqrt(row_dots(v, v)) - 1.0) > VSTAR_NORM_TOL):
        # z nearly along axis: its tiny projection kept rounding along axis,
        # so project again, only then, so that every other draw keeps its bits
        u = z[i]
        u -= (u @ axis) * axis
        u /= np.linalg.norm(u)
        v[i] = cos_sin[i, 0] * axis + cos_sin[i, 1] * u
    return v


def random_teacher(k: int, p: int, seed: int, *, a_norm: float = 1.0) -> TeacherSpec:
    """Random teacher with the filter prior satisfied.

    v_star is drawn at an angle uniform in [0, pi/3] from the shortcut
    direction, which keeps ||w_star|| <= 1; a_star is a uniform direction
    scaled to a_norm. k and p are checked by check_dims before any draw.
    """
    check_dims(k, p)
    rng = make_rng(seed, 101)
    angle = rng.uniform(0.0, np.pi / 3)
    v_star = direction_at_angle(shortcut_direction(p), np.array([[np.cos(angle), np.sin(angle)]]),
                                rng.standard_normal((1, p)))[0]
    za = rng.standard_normal(k)
    a_star = a_norm * za / np.linalg.norm(za)
    return TeacherSpec(v_star, a_star)


def random_state(teacher: TeacherSpec, seed: int) -> StudentState:
    """Random manifold state: uniform filter direction, Gaussian output weights of
    component scale max(1, ||a_star||) / sqrt(k)."""
    rng = make_rng(seed, 102)
    z = rng.standard_normal(teacher.p)
    v = z / np.linalg.norm(z)
    a_scale = max(1.0, np.sqrt(teacher.a_star_norm_sq)) / np.sqrt(teacher.k)
    a = a_scale * rng.standard_normal(teacher.k)
    return StudentState(w=v - teacher.shortcut, a=a)
