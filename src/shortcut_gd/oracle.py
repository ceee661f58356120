"""Monte-Carlo oracle for the population loss/gradients and a finite-difference check.

The estimator draws each sample's Gaussian patches in an orthonormal frame
(v, u, Q_perp) of the filter v and the plane of v and v_star, keeping only
the coordinates the integrands read, and averages the per-sample
integrands. That reduction uses only the rotation invariance of the
patches, so the certificate for the closed forms shares no code path with
them. Sampling is split into fixed-size chunks, each with its own
counter-based stream (Philox keyed by (seed, chunk)), and partial sums are
reduced in chunk order. No sum over the samples runs in BLAS, whose rounding
would follow its thread count. So results are bit-reproducible and independent
of how chunks might be scheduled and of the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import closed_coordinates, grad_a, grad_w, population_loss
from .model import StudentState, TeacherSpec, make_rng

CHUNK_SAMPLES = 16384
# Most samples one estimate draws, 100x criterion 1's 10^6 per state. At the bound and
# k=25, p=8, the partial sums take about 3 MB (6104 chunks x 2 x 34 floats), the
# chunk buffers about 15 MB, and one state about 3 minutes (1.5 to 1.7 s per 10^6
# samples on one 2-vCPU host core).
MAX_SAMPLES = 100_000_000
# Most floats one estimate's arrays may hold (256 MB): the p x p frame, six chunk buffers of
# rows x (4k + 2p - 2) and a rows x p temporary, rows <= CHUNK_SAMPLES, and 2 (k + p + 1)
# sums per chunk. At k=25, p=8 and MAX_SAMPLES: 2.4 M (19 MB); at k = p = MAX_DIM: 1.5 G.
MAX_FLOATS = 2**25
# Gradient components below ERROR_FLOOR count as zero: their errors are absolute.
ERROR_FLOOR = 1e-8


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with per-component standard error of the mean."""

    value: np.ndarray | float
    std_error: np.ndarray | float


@dataclass(frozen=True)
class FdReport:
    """Finite-difference errors against the closed-form gradients.

    max_rel_error_a/_w are per-component relative errors, absolute below
    ERROR_FLOOR (1e-8), so a small but nonzero component can read high.
    max_error_vs_largest is the worst error of either gradient relative to
    that gradient's largest component (absolute when all are below ERROR_FLOOR).
    """

    max_rel_error_a: float
    max_rel_error_w: float
    max_error_vs_largest: float


def _frame(v: np.ndarray, v_star: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(c, s, Q): Q's columns are an orthonormal basis (+-v, u, Q_perp) with
    v_star = c v + s u.

    Householder QR of [v, v_star] gives an orthonormal u even at v = +-v_star;
    its first column is v up to sign, which span{v, u} = span{v, v_star} does
    not depend on. s is read from the basis, never as sqrt(1 - c^2), which
    rounding makes about 2e-8 at v = v_star.
    """
    q = np.linalg.qr(np.column_stack([v, v_star]), mode="complete")[0]
    return float(v @ v_star), float(q[:, 1] @ v_star), q


def _accumulate(state: StudentState, teacher: TeacherSpec, n_samples: int, seed: int):
    """Single pass over the sample stream; returns sums and sums of squares.

    Each sample is drawn in the frame (v, u, Q_perp) of _frame: patch j is
    z_j = alpha_j v + beta_j u + Q_perp xi_j with i.i.d. standard normal
    coordinates, so z_j.v = alpha_j and z_j.v_star = c alpha_j + s beta_j.
    The gates 1{z_j.v > 0} read only alpha, so given alpha the projected
    filter sum sum_j gate_j (I - v v^T) z_j is (sum_j gate_j beta_j) u plus
    sqrt(sum_j gate_j^2) Q_perp xi for one xi ~ N(0, I_{p-2}). That is the
    law of the full patches, from 2k + p - 2 normals per sample instead of
    k p.
    """
    v = state.v
    v = v / np.linalg.norm(v)
    a, a_star = state.a, teacher.a_star
    k, p = teacher.k, teacher.p
    c_star, s_star, q = _frame(v, teacher.v_star)
    # q_perp contiguous: OpenBLAS threads a product with a transposed view badly, and
    # the copy gives the same bits
    u, q_perp = q[:, 1:2].T, np.ascontiguousarray(q[:, 2:].T)
    a_sq = a * a

    n_chunks = (n_samples + CHUNK_SAMPLES - 1) // CHUNK_SAMPLES
    loss_parts = np.empty((n_chunks, 2))
    ga_parts = np.empty((n_chunks, 2, k))
    gw_parts = np.empty((n_chunks, 2, p))
    # One set of buffers for every chunk, sliced for a short last one.
    rows = min(CHUNK_SAMPLES, n_samples)
    alpha_buf, act_buf = np.empty((rows, k)), np.empty((rows, k))
    beta_buf, open_buf = np.empty((rows, k)), np.empty((rows, k))
    xi_buf, raw_buf = np.empty((rows, p - 2)), np.empty((rows, p))
    for c in range(n_chunks):
        m = min(CHUNK_SAMPLES, n_samples - c * CHUNK_SAMPLES)
        rng = make_rng(seed, c)
        alpha = rng.standard_normal(out=alpha_buf[:m])
        act = np.maximum(alpha, 0.0, out=act_buf[:m])
        f_out = act @ a
        alpha *= c_star  # alpha's buffer ends holding z.v_star = c alpha + s beta
        beta = rng.standard_normal(out=beta_buf[:m])
        xi = rng.standard_normal(out=xi_buf[:m])
        # Sums over j as products over k: sum_j gate_j^2 = 1{alpha > 0}.(a o a)
        # and sum_j gate_j beta_j = (1{alpha > 0} o beta).a.
        opened = np.sign(act, out=open_buf[:m])
        gate_sq = opened @ a_sq
        opened *= beta
        gate_beta = opened @ a
        beta *= s_star
        alpha += beta
        # d/dw through the normalization: -(g - f) (I - v v^T) sum_j a_j 1{z_j^T v > 0} z_j
        xi *= np.sqrt(gate_sq)[:, None]
        raw = np.matmul(xi, q_perp, out=raw_buf[:m])
        raw += gate_beta[:, None] * u
        g_out = np.maximum(alpha, 0.0, out=alpha) @ a_star
        diff = g_out - f_out
        loss_samples = 0.5 * diff * diff
        loss_parts[c, 0] = loss_samples.sum()
        loss_parts[c, 1] = (loss_samples * loss_samples).sum()
        # Sums over the samples stay out of BLAS, whose rounding follows its thread count.
        # d/da of 0.5 (g - f)^2 = -(g - f) sigma(z^T v), formed in act's buffer.
        neg_diff = -diff[:, None]
        act *= neg_diff
        ga_parts[c, 0] = act.sum(axis=0)
        ga_parts[c, 1] = np.einsum("ij,ij->j", act, act)
        raw *= neg_diff
        gw_parts[c, 0] = raw.sum(axis=0)
        gw_parts[c, 1] = np.einsum("ij,ij->j", raw, raw)
    return loss_parts.sum(axis=0), ga_parts.sum(axis=0), gw_parts.sum(axis=0)


def _finalize(sums, n: int) -> McEstimate:
    total, total_sq = sums[0], sums[1]
    mean = total / n
    var = np.maximum(0.0, (total_sq - n * mean * mean) / (n - 1))
    se = np.sqrt(var / n)
    if np.ndim(mean) == 0:
        return McEstimate(value=float(mean), std_error=float(se))
    return McEstimate(value=mean, std_error=se)


def mc_estimates(
    state: StudentState, teacher: TeacherSpec, n_samples: int, seed: int
) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Loss, filter-gradient, and output-gradient estimates from one stream.

    closed_coordinates checks the state, before the sample count and MAX_FLOATS.
    """
    closed_coordinates(state, teacher)
    if not 2 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must lie in [2, {MAX_SAMPLES}], got {n_samples}")
    k, p = teacher.k, teacher.p
    chunks, rows = -(-n_samples // CHUNK_SAMPLES), min(CHUNK_SAMPLES, n_samples)
    floats = p * p + rows * (4 * k + 3 * p - 2) + chunks * 2 * (k + p + 1)
    if floats > MAX_FLOATS:
        raise ValueError(f"{n_samples} samples at k={k}, p={p} would hold {floats} floats, "
                         f"above oracle.MAX_FLOATS = {MAX_FLOATS}")
    loss_s, ga_s, gw_s = _accumulate(state, teacher, n_samples, seed)
    return _finalize(loss_s, n_samples), _finalize(gw_s, n_samples), _finalize(ga_s, n_samples)


def _rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Max relative error, falling back to absolute below ERROR_FLOOR."""
    err = np.abs(approx - exact)
    scale = np.abs(exact)
    out = np.where(scale < ERROR_FLOOR, err, err / np.maximum(scale, ERROR_FLOOR))
    return float(out.max())


def _error_vs_largest(approx: np.ndarray, exact: np.ndarray) -> float:
    return float(np.abs(approx - exact).max() / max(float(np.abs(exact).max()), ERROR_FLOOR))


def fd_grad_check(state: StudentState, teacher: TeacherSpec, step: float = 1e-6) -> FdReport:
    """Central finite differences of the closed-form loss against both gradients.

    The state is checked by closed_coordinates, before the step. Output-weight
    coordinates are perturbed directly; filter coordinates are perturbed in
    ambient space and pulled back through the normalization map, which on the
    manifold matches the projected gradient because the loss is scale
    invariant along the filter direction.
    """
    closed_coordinates(state, teacher)
    if not 0.0 < step <= 1e-3:
        raise ValueError(f"step must lie in (0, 1e-3], got {step}")

    def filter_moved(w: np.ndarray) -> StudentState:  # pulled back onto the manifold
        v = teacher.shortcut + w
        return StudentState(w=v / np.linalg.norm(v) - teacher.shortcut, a=state.a)

    fd_a, fd_w = np.empty(teacher.k), np.empty(teacher.p)
    for fd, base, moved in ((fd_a, state.a, lambda a: StudentState(w=state.w, a=a)),
                            (fd_w, state.w, filter_moved)):
        for i in range(base.size):
            e = np.zeros(base.size)
            e[i] = step
            hi = population_loss(moved(base + e), teacher)
            lo = population_loss(moved(base - e), teacher)
            fd[i] = (hi - lo) / (2.0 * step)

    exact_a, exact_w = grad_a(state, teacher), grad_w(state, teacher)
    return FdReport(
        max_rel_error_a=_rel_error(fd_a, exact_a),
        max_rel_error_w=_rel_error(fd_w, exact_w),
        max_error_vs_largest=max(_error_vs_largest(fd_a, exact_a), _error_vs_largest(fd_w, exact_w)),
    )
