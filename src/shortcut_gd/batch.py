"""Vectorized many-trial engine for success-rate sweeps.

The update closes on five scalars per trial. The normalized filter stays in
the 2-plane spanned by its start direction and v_star, so it is tracked by
the cosine/sine pair (x, y). The output-weight error d = a - a_star moves as
d' = alpha d + beta ones + gamma a_star with per-trial scalars beta and
gamma, so it is tracked by 1^T d, a_star^T d and ||d||^2; every outcome test
reads only these. Each iteration therefore costs O(n) for n trials,
independent of k and p. Trials are mathematically independent: per-trial
results match run() up to floating-point reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DEGENERATE_NORM_TOL
from .landscape import ESCAPE_MAX_ANGLE, spurious_output_weights
from .model import MANIFOLD_TOL, TeacherSpec
from .optimizer import KIND_CONVERGED, KIND_TRAPPED, KIND_UNDECIDED, Thresholds
from .schedules import Schedule

TWO_PI = 2.0 * np.pi


@dataclass
class BatchResult:
    kinds: np.ndarray  # per trial, an optimizer.KIND_* code
    iters: np.ndarray


def run_batch(
    v0: np.ndarray,
    a0: np.ndarray,
    teacher: TeacherSpec,
    schedule: Schedule,
    max_iters: int,
    thresholds: Thresholds = Thresholds(),
    *,
    stop_on_spurious: bool = True,
    spurious_check_every: int = 200,
    basin_success: bool = False,
    basin_check_after: int = 2000,
) -> BatchResult:
    """Run n independent trials of the normalized GD update to classification.

    v0: (n, p) unit rows (the initial normalized filter directions);
    a0: (n, k) initial output weights. Every trial sees the same schedule.
    Both must be finite and every v0 row unit within MANIFOLD_TOL; anything
    else raises ValueError.
    """
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    n = v0.shape[0]
    if v0.shape != (n, teacher.p) or a0.shape != (n, teacher.k):
        raise ValueError(
            f"v0 and a0 must have shapes ({n}, {teacher.p}) and ({n}, {teacher.k}), "
            f"got {v0.shape} and {a0.shape}"
        )
    if not (np.isfinite(v0).all() and np.isfinite(a0).all()):
        raise ValueError("v0 and a0 must be finite")
    norm_err = np.abs(np.linalg.norm(v0, axis=1) - 1.0)
    if (norm_err > MANIFOLD_TOL).any():
        raise ValueError(
            f"v0 rows must be unit norm within {MANIFOLD_TOL:.1e}; "
            f"the worst is off by {norm_err.max():.3e}"
        )
    v_star = teacher.v_star
    a_star = teacher.a_star
    k = float(teacher.k)
    s = teacher.sum_a_star
    nrm2 = teacher.a_star_norm_sq

    # Spurious output weights lie in span{ones, a_star}: a_bar = pbar*ones + qbar*a_star,
    # so ||a - a_bar||^2 = ||d||^2 + 2((1 - qbar) a_star^T d - pbar 1^T d) + ||a_star - a_bar||^2.
    a_bar = spurious_output_weights(teacher)
    qbar = -1.0 / (np.pi - 1.0)
    pbar = (s - (teacher.k - 1) * s / (np.pi - 1.0 + teacher.k)) / (np.pi - 1.0)
    bar_gap_sq = float(np.sum((a_star - a_bar) ** 2))
    a_bar_tol = thresholds.a_rel_tol * max(1.0, float(np.linalg.norm(a_bar)))
    m_lock = teacher.alignment_lower
    x_lock = np.cos(ESCAPE_MAX_ANGLE)

    # Filter plane coordinates: v = x * v_star + y * u (per-row unit u, u _|_ v_star).
    x = np.clip(v0 @ v_star, -1.0, 1.0)
    y = np.linalg.norm(v0 - x[:, None] * v_star, axis=1)
    # Output-weight error coordinates of d = a - a_star.
    d = a0 - a_star
    e1 = d.sum(axis=1)  # 1^T d
    es = d @ a_star  # a_star^T d
    dd = np.einsum("ij,ij->i", d, d)  # ||d||^2

    kinds = np.full(n, -1, dtype=np.int8)
    iters = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)

    def freeze(mask: np.ndarray, kind: int, t: int) -> None:
        nonlocal x, y, e1, es, dd, idx
        rows = idx[mask]
        kinds[rows] = kind
        iters[rows] = t
        keep = ~mask
        x, y, e1, es, dd, idx = x[keep], y[keep], e1[keep], es[keep], dd[keep], idx[keep]

    def check(t: int, final: bool) -> None:
        """Freeze rows per classification, in run()'s order: global, spurious, basin."""
        if not idx.size:
            return
        done = dd + (2.0 - 2.0 * x) <= thresholds.global_tol
        if done.any():
            freeze(done, KIND_CONVERGED, t)
        if not idx.size:
            return
        do_spur = final or (stop_on_spurious and t % spurious_check_every == 0)
        if do_spur:
            phi = np.arccos(x)
            w_err = 2.0 - 2.0 * x
            bar_dist_sq = dd + 2.0 * ((1.0 - qbar) * es - pbar * e1) + bar_gap_sq
            trap = (
                (phi >= np.pi - thresholds.phi_tol)
                & (np.abs(w_err - 4.0) <= thresholds.w_err_tol)
                & (np.sqrt(np.maximum(0.0, bar_dist_sq)) <= a_bar_tol)
            )
            if trap.any():
                freeze(trap, KIND_TRAPPED, t)
            if not idx.size:
                return
            if basin_success and (final or t >= basin_check_after):
                lock = (x >= x_lock) & (es + nrm2 >= m_lock)
                if lock.any():
                    freeze(lock, KIND_CONVERGED, t)
        if final and idx.size:
            freeze(np.ones(idx.size, dtype=bool), KIND_UNDECIDED, t)

    check(0, final=False)
    t = 0
    while idx.size and t < max_iters:
        eta_w, eta_a = schedule.rates(t)
        t += 1
        ca = eta_a / TWO_PI
        alpha = 1.0 - ca * (np.pi - 1.0)
        phi = np.arccos(x)
        pmf = np.pi - phi
        sin_sq = 1.0 - x * x
        g = pmf * x + np.sqrt(np.maximum(0.0, sin_sq))
        # d' = alpha d + beta ones + gamma a_star; ||d'||^2 = d'.(alpha d + beta ones + gamma a_star)
        beta = -ca * e1
        gamma = ca * (g - np.pi)
        ecw = (eta_w / TWO_PI) * (es + nrm2) * pmf
        cross = alpha * dd + beta * e1 + gamma * es  # d'.d
        e1 = alpha * e1 + k * beta + s * gamma
        es = alpha * es + s * beta + nrm2 * gamma
        dd = alpha * cross + beta * e1 + gamma * es
        xt = x + ecw * sin_sq
        yt = y * (1.0 - ecw * x)
        r = np.sqrt(xt * xt + yt * yt)
        bad = r < DEGENERATE_NORM_TOL
        if bad.any():
            r = np.where(bad, 1.0, r)
            x = np.clip(xt / r, -1.0, 1.0)
            y = yt / r
            # the t-th step failed to produce an iterate; report the last valid one
            freeze(bad, KIND_UNDECIDED, t - 1)
            if not idx.size:
                break
        else:
            x = np.clip(xt / r, -1.0, 1.0)
            y = yt / r
        check(t, final=t >= max_iters)

    if idx.size:
        check(t, final=True)
    return BatchResult(kinds=kinds, iters=iters)
