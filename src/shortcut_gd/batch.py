"""Vectorized many-trial engine for success-rate sweeps.

Exploits two exact reductions of the update: the normalized filter stays in
the 2-plane spanned by its start direction and v_star, so it is tracked by
the cosine/sine pair (x, y); and the output-weight update is affine with
forcing in span{ones, a_star}, so a_t = alpha^t a_0 + P_t ones + Q_t a_star
with per-trial scalars (P, Q). Each iteration therefore costs O(n) for n
trials, independent of k and p. Trials are still mathematically independent:
per-trial results match single runs up to floating-point reassociation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DEGENERATE_NORM_TOL
from .landscape import ESCAPE_MAX_ANGLE, spurious_output_weights
from .model import MANIFOLD_TOL, TeacherSpec
from .optimizer import Thresholds
from .schedules import Schedule

KIND_CONVERGED = 0
KIND_TRAPPED = 1
KIND_UNDECIDED = 2

TWO_PI = 2.0 * np.pi


@dataclass
class BatchResult:
    kinds: np.ndarray
    iters: np.ndarray
    final_v: np.ndarray | None = None
    final_a: np.ndarray | None = None


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
    keep_final: bool = False,
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

    # Spurious output weights lie in span{ones, a_star}: a_bar = pbar*ones + qbar*a_star.
    qbar = -1.0 / (np.pi - 1.0)
    pbar = (s - (teacher.k - 1) * s / (np.pi - 1.0 + teacher.k)) / (np.pi - 1.0)
    a_bar_norm = float(np.linalg.norm(spurious_output_weights(teacher)))
    a_bar_tol = thresholds.a_rel_tol * max(1.0, a_bar_norm)
    m_lock = teacher.alignment_lower
    x_lock = np.cos(ESCAPE_MAX_ANGLE)

    # Filter plane coordinates: v = x * v_star + y * u (per-row unit u, u _|_ v_star).
    x = np.clip(v0 @ v_star, -1.0, 1.0)
    resid = v0 - x[:, None] * v_star
    y = np.linalg.norm(resid, axis=1)
    if keep_final:
        safe = np.where(y > 0.0, y, 1.0)
        u_rows = resid / safe[:, None]
    else:
        u_rows = None

    # Output-weight reduction constants and running scalars.
    sa0 = a0.sum(axis=1)
    adot0 = a0 @ a_star
    n0sq = np.einsum("ij,ij->i", a0, a0)
    sa = sa0.copy()
    adot = adot0.copy()
    P = np.zeros(n)
    Q = np.zeros(n)
    alpha_acc = 1.0  # product of per-iteration contraction factors, shared by active rows

    kinds = np.full(n, -1, dtype=np.int8)
    iters = np.zeros(n, dtype=np.int64)
    final_v = np.empty((n, teacher.p)) if keep_final else None
    final_a = np.empty((n, teacher.k)) if keep_final else None
    idx = np.arange(n)
    a0_kept = a0 if keep_final else None

    def a_err_sq() -> np.ndarray:
        qm = Q - 1.0
        return (
            alpha_acc * alpha_acc * n0sq
            + P * P * k
            + qm * qm * nrm2
            + 2.0 * alpha_acc * P * sa0
            + 2.0 * alpha_acc * qm * adot0
            + 2.0 * P * qm * s
        )

    def a_bar_dist() -> np.ndarray:
        pm = P - pbar
        qm = Q - qbar
        return np.sqrt(
            np.maximum(
                0.0,
                alpha_acc * alpha_acc * n0sq
                + pm * pm * k
                + qm * qm * nrm2
                + 2.0 * alpha_acc * pm * sa0
                + 2.0 * alpha_acc * qm * adot0
                + 2.0 * pm * qm * s,
            )
        )

    def freeze(mask: np.ndarray, kind: int, t: int) -> None:
        nonlocal x, y, sa, adot, P, Q, sa0, adot0, n0sq, idx, u_rows, a0_kept
        rows = idx[mask]
        kinds[rows] = kind
        iters[rows] = t
        if keep_final:
            final_v[rows] = x[mask, None] * v_star + y[mask, None] * u_rows[mask]
            final_a[rows] = (
                alpha_acc * a0_kept[mask]
                + P[mask, None]
                + Q[mask, None] * a_star
            )
        keep = ~mask
        x, y, sa, adot = x[keep], y[keep], sa[keep], adot[keep]
        P, Q = P[keep], Q[keep]
        sa0, adot0, n0sq = sa0[keep], adot0[keep], n0sq[keep]
        idx = idx[keep]
        if keep_final:
            u_rows = u_rows[keep]
            a0_kept = a0_kept[keep]

    def check(t: int, final: bool) -> None:
        """Freeze rows per classification, in run()'s order: global, spurious, basin."""
        if not idx.size:
            return
        done = a_err_sq() + (2.0 - 2.0 * x) <= thresholds.global_tol
        if done.any():
            freeze(done, KIND_CONVERGED, t)
        if not idx.size:
            return
        do_spur = final or (stop_on_spurious and t % spurious_check_every == 0)
        if do_spur:
            phi = np.arccos(x)
            w_err = 2.0 - 2.0 * x
            trap = (
                (phi >= np.pi - thresholds.phi_tol)
                & (np.abs(w_err - 4.0) <= thresholds.w_err_tol)
                & (a_bar_dist() <= a_bar_tol)
            )
            if trap.any():
                freeze(trap, KIND_TRAPPED, t)
            if not idx.size:
                return
            if basin_success and (final or t >= basin_check_after):
                adot_now = alpha_acc * adot0 + P * s + Q * nrm2
                lock = (x >= x_lock) & (adot_now >= m_lock)
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
        g = pmf * x + np.sqrt(np.maximum(0.0, 1.0 - x * x))
        beta = ca * (s - sa)
        gamma = ca * (g - 1.0)
        ecw = (eta_w / TWO_PI) * adot * pmf
        sa = alpha * sa + k * beta + s * gamma
        adot = alpha * adot + s * beta + nrm2 * gamma
        P = alpha * P + beta
        Q = alpha * Q + gamma
        alpha_acc *= alpha
        xt = x + ecw * (1.0 - x * x)
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
    return BatchResult(kinds=kinds, iters=iters, final_v=final_v, final_a=final_a)
