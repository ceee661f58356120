"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The suite pins every tolerance; criterion 1, the Monte-Carlo oracle,
dominates the runtime.
"""

import time

import numpy as np
import pytest

from shortcut_gd.experiments import (
    SUPPORTED_K,
    SweepConfig,
    fixed_a0_k25,
    success_rate_sweep,
    teacher_for_k,
    trajectory_experiment,
)
from shortcut_gd.landscape import (
    ESCAPE_MAX_ANGLE,
    EscapeRegion,
    FilterBasinRegion,
    RefinementRegion,
    critical_points,
    grad_a,
    grad_w,
    population_loss,
)
from shortcut_gd.model import StudentState, random_state, random_teacher
from shortcut_gd.optimizer import run, sample_init
from shortcut_gd.oracle import fd_grad_check, mc_estimates
from shortcut_gd.schedules import ConstantSchedule, WarmupSchedule
from shortcut_gd.verification import (
    basin_entry_index,
    check_dissipativity,
    monitor_trajectory,
    negative_control_filter_basin,
)

WARMUP_ITERS = 1000
# The paper's success rates at 5000 trials per cell; it tabulates 1.0 at every k for
# resnet_ssw, which criterion 4 gates at >= 0.995.
REFERENCE_RATES = {
    "resnet_constant": {
        16: 0.7042, 25: 0.7354, 36: 0.7776, 49: 0.7848,
        64: 0.8220, 81: 0.8388, 100: 0.8426,
    },
    "cnn_baseline": {
        16: 0.5348, 25: 0.5528, 36: 0.5312, 49: 0.5426,
        64: 0.5192, 81: 0.5368, 100: 0.5374,
    },
}


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_closed_form_certification():
    """FD vs analytic gradients and Monte-Carlo agreement at 50 random states."""
    t0 = time.perf_counter()
    # states per (k, p) combo, weighted so the heavy k=25 teachers stay affordable
    allocation = {
        (2, 2): 6, (2, 4): 7, (2, 8): 7,
        (5, 2): 6, (5, 4): 6, (5, 8): 6,
        (25, 2): 5, (25, 4): 4, (25, 8): 3,
    }
    assert sum(allocation.values()) == 50
    fd_worst = 0.0
    hits = total = 0
    state_idx = 0
    for (k, p), count in sorted(allocation.items()):
        for j in range(count):
            teacher = random_teacher(k, p, seed=37 + state_idx, a_norm=0.5 + (state_idx % 3))
            state = random_state(teacher, seed=91 + state_idx)
            fd = fd_grad_check(state, teacher, step=1e-6)
            fd_worst = max(fd_worst, fd.max_rel_error_a, fd.max_rel_error_w)
            assert fd.max_rel_error_a <= 1e-5, (k, p, j, fd)
            assert fd.max_rel_error_w <= 1e-5, (k, p, j, fd)
            loss_est, gw_est, ga_est = mc_estimates(state, teacher, 1_000_000, seed=500 + state_idx)
            for est, exact in (
                (loss_est, population_loss(state, teacher)),
                (gw_est, grad_w(state, teacher)),
                (ga_est, grad_a(state, teacher)),
            ):
                err = np.abs(np.atleast_1d(est.value) - np.atleast_1d(exact))
                bound = 4.0 * np.atleast_1d(est.std_error) + 1e-12
                hits += int((err <= bound).sum())
                total += err.size
            state_idx += 1
    frac = hits / total
    elapsed = time.perf_counter() - t0
    assert frac >= 0.95, f"only {frac:.4f} of MC comparisons within 4 standard errors"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _report(1, f"fd worst {fd_worst:.2e} <= 1e-5; mc {hits}/{total} = {frac:.4f} "
               f"within 4se; {elapsed:.0f}s")


def test_criterion_2_critical_points():
    """Both gradients vanish at both critical points; the loss gap is strict."""
    combos = [(2, 2), (3, 4), (5, 8), (7, 3), (10, 5), (25, 8), (4, 2), (6, 6), (12, 4), (8, 8)]
    for i, (k, p) in enumerate(combos):
        teacher = random_teacher(k, p, seed=11 + i, a_norm=0.5 + i / 4)
        cp = critical_points(teacher)
        at_truth = StudentState(w=cp.global_w, a=cp.global_a)
        at_spur = StudentState(w=cp.spurious_w, a=cp.spurious_a)
        for state in (at_truth, at_spur):
            assert np.linalg.norm(grad_a(state, teacher)) <= 1e-10
            assert np.linalg.norm(grad_w(state, teacher)) <= 1e-10
        assert population_loss(at_truth, teacher) <= 1e-12
        assert population_loss(at_spur, teacher) > 1e-9
    _report(2, "gradient norms <= 1e-10 at both points for 10 teachers; "
               "loss 0 at the optimum, positive at the spurious point")


def test_criterion_3_dissipativity_suites():
    """Each regional inequality holds on 1e4 sampled points per configuration."""
    t0 = time.perf_counter()
    teachers = [random_teacher(k, p, seed) for seed, (k, p) in
                enumerate([(2, 2), (5, 4), (25, 8), (5, 8), (25, 2)])]
    configs = []
    configs.append(("escape", EscapeRegion(teacher=teachers[0])))
    for i, m_spec in enumerate(("abs_0.1", "rel_0.2", "abs_1.0")):
        teacher = teachers[(i + 1) % len(teachers)]
        m = {"abs_0.1": 0.1, "rel_0.2": 0.2 * teacher.a_star_norm_sq, "abs_1.0": 1.0}[m_spec]
        configs.append((f"filter-basin m={m_spec}", FilterBasinRegion(teacher, m)))
    for i, delta in enumerate((0.01, 0.1)):
        teacher = teachers[(i + 4) % len(teachers)]
        configs.append((
            f"refinement delta={delta}",
            RefinementRegion(teacher, 0.2 * teacher.a_star_norm_sq,
                             teacher.alignment_upper, delta),
        ))
    slacks = {}
    for label, region in configs:
        report = check_dissipativity(region, n_points=10_000, seed=77)
        assert report.passed, (label, report.min_slack)
        assert report.violating_points == []
        slacks[label] = report.min_slack

    control = negative_control_filter_basin(teachers[1], min_alignment=0.2,
                                            n_points=1000, seed=13)
    assert len(control.violating_points) > 0

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    worst = min(slacks.values())
    _report(3, f"6 configurations x 1e4 points, min slack {worst:.3e} >= -1e-9; "
               f"negative control found {len(control.violating_points)} violations; "
               f"{elapsed:.0f}s")


def test_criterion_4_success_rate_table():
    """Desk-scale success-rate table: 500 trials per (variant, k) cell."""
    t0 = time.perf_counter()
    config = SweepConfig(n_trials=500, base_seed=0)
    report = success_rate_sweep(config)
    rates = {(c.variant, c.k): c.success_rate for c in report.cells}
    undecided = {(c.variant, c.k): c.undecided_count for c in report.cells}

    for k in SUPPORTED_K:
        assert rates[("resnet_ssw", k)] >= 0.995, (k, rates[("resnet_ssw", k)])

    const_row = [rates[("resnet_constant", k)] for k in SUPPORTED_K]
    for k, rate in zip(SUPPORTED_K, const_row):
        ref = REFERENCE_RATES["resnet_constant"][k]
        assert abs(rate - ref) <= 0.07, ("resnet_constant", k, rate, ref)
    # Trend check at binomial noise: several reference gaps (0.4-0.7%) are far
    # below the n=500 noise floor (sigma_diff ~ 2.5%), so an adjacent decrease
    # only counts as an inversion when it exceeds its own two-sigma noise.
    n = 500
    inversions = 0
    for a, b in zip(const_row, const_row[1:]):
        sd = np.sqrt(a * (1 - a) / n + b * (1 - b) / n)
        if b < a - 2.0 * sd:
            inversions += 1
    assert inversions <= 1, f"constant-rate row has {inversions} inversions: {const_row}"
    # and the row must genuinely rise across the k range
    sd_ends = np.sqrt(const_row[0] * (1 - const_row[0]) / n
                      + const_row[-1] * (1 - const_row[-1]) / n)
    assert const_row[-1] >= const_row[0] + 2.0 * sd_ends, const_row

    for k in SUPPORTED_K:
        rate = rates[("cnn_baseline", k)]
        ref = REFERENCE_RATES["cnn_baseline"][k]
        assert abs(rate - ref) <= 0.07, ("cnn_baseline", k, rate, ref)

    elapsed = time.perf_counter() - t0
    assert elapsed <= 900.0, f"runtime {elapsed:.1f}s exceeds 15 minutes"
    _report(4, f"ssw >= 0.995 on all k; constant within 0.07 ({inversions} inversion); "
               f"cnn within 0.07; undecided totals {sum(undecided.values())}; {elapsed:.0f}s")


def test_criterion_5_trajectories(tmp_path):
    """Fixed-start diagnostic runs: warmup converges, constant rate gets trapped."""
    traj, _, _ = trajectory_experiment("ssw", str(tmp_path / "ssw"), record_stride=1)
    assert traj.outcome.kind == "converged_global"
    assert traj.outcome.iters <= 500_000
    err = traj.a_err_sq[-1] + traj.w_err_sq[-1]
    assert err <= 1e-6
    # after warmup, once the angle first drops to 5pi/12 it stays there
    past_warmup = np.flatnonzero((traj.t >= WARMUP_ITERS) & (traj.phi <= ESCAPE_MAX_ANGLE))
    assert past_warmup.size > 0, "angle never reached 5pi/12 after warmup"
    entry = past_warmup[0]
    assert np.all(traj.phi[entry:] <= ESCAPE_MAX_ANGLE + 1e-9)

    traj2, _, _ = trajectory_experiment("constant", str(tmp_path / "constant"), record_stride=1)
    assert traj2.outcome.kind == "trapped_spurious"
    assert traj2.outcome.iters <= 1_000_000
    assert traj2.phi[-1] >= np.pi - 0.1
    assert abs(traj2.w_err_sq[-1] - 4.0) <= 0.2
    _report(5, f"ssw converged at t={traj.outcome.iters} (angle entered 5pi/12 at "
               f"t={int(traj.t[entry])} and stayed); constant trapped at "
               f"t={traj2.outcome.iters} with phi={traj2.phi[-1]:.4f}")


def test_criterion_6_run_monitors():
    """Invariant monitors hold on 20 seeded warmup runs; a broken step size trips them."""
    teacher = teacher_for_k(25)
    schedule = WarmupSchedule.for_k(25)
    checked = 0
    for seed in range(20):
        init = sample_init(teacher, seed)
        traj = run(init, teacher, schedule, max_iters=200_000, record_stride=1)
        assert traj.outcome.kind == "converged_global", seed
        violations = [v for v in monitor_trajectory(traj, teacher)
                      if v.monitor != "filter_contraction"]
        assert violations == [], (seed, violations[:3])
        assert basin_entry_index(traj, teacher) is not None, seed
        checked += 1

    # negative control: step size far above the stability threshold
    broken = run(
        sample_init(teacher, 0), teacher, ConstantSchedule(eta_a=10.0, eta_w=2.56e-6),
        max_iters=50, record_stride=1,
    )
    broken_violations = [v for v in monitor_trajectory(broken, teacher)
                         if v.monitor == "sum_envelope"]
    assert len(broken_violations) > 0
    _report(6, f"{checked} warmup runs clean on sum envelope + basin persistence "
               f"(tolerance 1e-9); broken step size produced "
               f"{len(broken_violations)} violations")


def test_criterion_7_iteration_budgets_note():
    """Asymptotic iteration counts are covered qualitatively by finite budgets only."""
    # The convergence-time statements hide constants, so they are not asserted
    # as exact iteration counts anywhere in this suite; criteria 4 and 5 bound
    # the same behavior by explicit budgets instead.
    assert SweepConfig().max_iters == 1_000_000
    _report(7, "iteration-count asymptotics covered qualitatively by the "
               "budgets in criteria 4 and 5 (1e6 sweep, 5e5 warmup trajectory)")
