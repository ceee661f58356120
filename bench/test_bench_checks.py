"""Each correctness check of the benchmark rejects a deliberately wrong result.

Run at a small size: python3 -m pytest bench/test_bench_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from shortcut_gd import experiments, landscape, model, optimizer, oracle, verification  # noqa: E402
from shortcut_gd.schedules import WarmupSchedule  # noqa: E402

SMALL_SWEEP = ((("cnn_baseline",), (16,), 40),)


def _small_sweep(tmp_path):
    inputs = workloads._build_sweep(SMALL_SWEEP, frozenset(), 3, tmp_path)
    ops, captured = workloads.Ops(), []
    with workloads.capture_batches(captured):
        rounds = [workloads._sweep_round(inputs, ops)]
    assert ops.failed == 0
    return inputs, rounds, captured, ops


def test_cell_whose_counts_do_not_add_up_is_rejected(tmp_path):
    _, rounds, _, _ = _small_sweep(tmp_path)
    results = rounds[0][0]["results"]
    assert checks.sweep_cells(results, 40, frozenset()) == []
    broken = [dict(results[0], success_count=results[0]["success_count"] + 1)]
    assert any("add up" in p for p in checks.sweep_cells(broken, 40, frozenset()))


def test_flipped_outcome_kind_is_rejected(tmp_path):
    inputs, rounds, captured, ops = _small_sweep(tmp_path)
    assert workloads._sweep_check(inputs, rounds, captured, ops) == []
    result = captured[0][2]
    row = int(np.argmin(np.where(result.kinds == 1, result.iters, np.iinfo(np.int64).max)))
    assert result.kinds[row] == 1
    result.kinds[row] = 0  # the engine now claims its quickest trapped trial converged
    problems = workloads._sweep_check(inputs, rounds, captured, ops)
    assert any("rerun" in p for p in problems)
    assert any("engine rows give" in p for p in problems)


def test_mc_mean_moved_by_ten_standard_errors_is_rejected():
    teacher = model.random_teacher(2, 2, seed=5)
    state = model.random_state(teacher, seed=6)
    estimates = oracle.mc_estimates(state, teacher, 20_000, seed=7)
    exact = (landscape.population_loss(state, teacher), landscape.grad_w(state, teacher),
             landscape.grad_a(state, teacher))
    comparisons = [(est.value, est.std_error, ex) for est, ex in zip(estimates, exact)]
    assert checks.mc_within(comparisons) == []
    moved = [(np.asarray(v) + 10.0 * np.asarray(se), se, ex) for v, se, ex in comparisons]
    assert checks.mc_within(moved) != []


def test_trajectory_with_sum_envelope_breach_is_rejected():
    teacher = experiments.teacher_for_k(16)
    traj = optimizer.run(optimizer.sample_init(teacher, 0), teacher, WarmupSchedule.for_k(16),
                         max_iters=100_000, record_stride=1)

    def problems(t):
        violations = verification.monitor_trajectory(t, teacher)
        return checks.monitored_run("run", t.outcome.kind, t.phi, t.a_dot_astar, t.sum_a,
                                    violations, teacher)

    assert problems(traj) == []
    sum_a = traj.sum_a.copy()
    sum_a[len(sum_a) // 2] = teacher.sum_a_star + 0.5  # s * sum_a - s^2 > 0
    found = problems(dataclasses.replace(traj, sum_a=sum_a))
    assert any("envelope" in p for p in found)
    assert any("monitor violations" in p for p in found)
