import json

import numpy as np
import pytest

from shortcut_gd.batch import run_batch
from shortcut_gd.experiments import (
    DEFAULT_INIT_LAWS,
    MAX_TRIALS,
    SUPPORTED_K,
    VARIANTS,
    SweepConfig,
    fixed_a0_k25,
    schedule_for,
    success_rate_sweep,
    teacher_for_k,
    teacher_metadata,
    trajectory_experiment,
    wilson_interval,
    write_sweep_json,
)
from shortcut_gd.model import MAX_DIM
from shortcut_gd.optimizer import draw_starts

# (ones, minus ones, zeros, entry sum) per tabulated k
PATTERNS = {
    16: (9, 7, 0, 2),
    25: (14, 11, 0, 3),
    36: (19, 16, 1, 3),
    49: (26, 22, 1, 4),
    64: (34, 30, 0, 4),
    81: (43, 38, 0, 5),
    100: (52, 47, 1, 5),
}


def test_tabulated_teachers_exact_patterns():
    for k, (ones, minus, zeros, total) in PATTERNS.items():
        t = teacher_for_k(k)
        assert int((t.a_star == 1.0).sum()) == ones
        assert int((t.a_star == -1.0).sum()) == minus
        assert int((t.a_star == 0.0).sum()) == zeros
        assert t.sum_a_star == total
        assert t.a_star_norm_sq == ones + minus
        assert np.linalg.norm(t.v_star) == pytest.approx(1.0, abs=1e-12)
        assert t.p == 8


def test_tabulated_teacher_k16_values():
    t = teacher_for_k(16)
    assert t.sum_a_star == 2.0
    assert t.a_star_norm_sq == 16.0
    t100 = teacher_for_k(100)
    assert t100.sum_a_star == 5.0


def test_teacher_for_k_rejects_unknown():
    with pytest.raises(ValueError, match="k=30 is not tabulated"):
        teacher_for_k(30)
    with pytest.raises(ValueError, match="needs p >= 2"):
        teacher_for_k(16, 1)


def test_teacher_for_k_refuses_a_filter_above_max_dim():
    teacher_for_k(16, MAX_DIM)
    with pytest.raises(ValueError, match=f"p must lie in \\[2, {MAX_DIM}\\]"):
        teacher_for_k(16, MAX_DIM + 1)


def test_teacher_metadata_records_both_angle_values():
    meta = teacher_metadata(teacher_for_k(25))
    assert meta["nominal_design_angle_per_pi"] == 0.45
    assert meta["shortcut_vstar_angle_per_pi"] == pytest.approx(0.475077, abs=1e-5)
    # the tabulated weights do not satisfy the nominal quarter-norm relation
    assert meta["sum_a_star"] != meta["quarter_a_star_norm_sq"]


def test_fixed_a0_values():
    a0 = fixed_a0_k25()
    assert a0.shape == (25,)
    assert a0[0] == -0.1268
    assert a0[-1] == 0.1809
    # frozen facts about the printed vector
    assert np.linalg.norm(a0) == pytest.approx(0.9519805617763422, abs=1e-12)
    assert a0.sum() == pytest.approx(-1.6323, abs=1e-12)
    assert float(a0 @ teacher_for_k(25).a_star) == pytest.approx(-1.3087, abs=1e-10)
    # the printed vector is wider than the stated sampling ball radius 0.6,
    # but matches the fan-in Gaussian scale 1/sqrt(k)
    assert np.linalg.norm(a0) > abs(teacher_for_k(25).sum_a_star) / 5.0


def test_wilson_interval_contains_estimate():
    for succ, n in ((0, 10), (3, 10), (10, 10), (250, 500)):
        lo, hi = wilson_interval(succ, n)
        assert 0.0 <= lo <= succ / n <= hi <= 1.0


def test_wilson_interval_matches_scipy():
    """The 95% score interval pinned against an independent implementation, scipy's
    (a test-only dependency), at both edges, 0 and n successes, and inside."""
    from scipy.stats import binomtest
    for succ, n in ((0, 1), (1, 1), (0, 10), (3, 10), (10, 10), (250, 500), (497, 500),
                    (500, 500), (0, 5000), (4999, 5000)):
        ci = binomtest(succ, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert wilson_interval(succ, n) == pytest.approx((ci.low, ci.high), rel=0, abs=1e-12)


def test_small_sweep_counts_and_determinism(tmp_path):
    config = SweepConfig(k_values=(16,), n_trials=24, base_seed=3, max_iters=100_000)
    report = success_rate_sweep(config)
    assert len(report.cells) == 3
    for cell in report.cells:
        assert cell.success_count + cell.spurious_count + cell.undecided_count == 24
        assert 0.0 <= cell.success_rate <= 1.0
        lo, hi = cell.ci95()
        assert lo <= cell.success_rate <= hi

    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_sweep_json(report, str(p1))
    write_sweep_json(success_rate_sweep(config), str(p2))
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    # wall time per cell, kept apart from the results
    assert set(d1["metadata"]["wall_time_s"]) == {f"{v}/k=16" for v in VARIANTS} | {"total"}
    d1.pop("metadata")
    d2.pop("metadata")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


@pytest.mark.parametrize("variant", VARIANTS)
def test_trial_outcome_does_not_depend_on_its_batch(variant):
    # the sweep runs a cell as one batch; each trial must come out as it would in any other
    k, n = 16, 20
    config = SweepConfig(k_values=(k,), variants=(variant,))
    teacher = teacher_for_k(k)
    schedule = schedule_for(variant, k, config.cnn_eta)
    v0, a0 = draw_starts(teacher, range(n), DEFAULT_INIT_LAWS[variant],
                         plain_filter=variant == "cnn_baseline")
    whole = run_batch(v0, a0, teacher, schedule, config.max_iters)
    parts = [run_batch(v0[s], a0[s], teacher, schedule, config.max_iters)
             for s in (slice(0, 1), slice(1, 7), slice(7, n))]
    assert np.array_equal(np.concatenate([p.kinds for p in parts]), whole.kinds)
    assert np.array_equal(np.concatenate([p.iters for p in parts]), whole.iters)
    assert len(set(whole.iters.tolist())) > 1


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(k_values=())
    # an empty variant list used to run no cell and report success
    with pytest.raises(ValueError, match="variants must be nonempty"):
        SweepConfig(variants=())
    with pytest.raises(ValueError):
        SweepConfig(variants=("nope",))
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        SweepConfig(max_iters=0)
    with pytest.raises(ValueError, match="n_trials"):
        SweepConfig(n_trials=0)


def test_sweep_config_bounds_the_trial_count():
    # a cell's start rows are one allocation, so the trial count has a ceiling
    assert SweepConfig(n_trials=MAX_TRIALS).n_trials == MAX_TRIALS
    with pytest.raises(ValueError, match=f"n_trials must be in \\[1, {MAX_TRIALS}\\]"):
        SweepConfig(n_trials=MAX_TRIALS + 1)


def test_sweep_config_rejects_a_repeated_cell():
    # a repeated k or variant used to run its cell twice and count 24 outcomes for 12 trials
    with pytest.raises(ValueError, match=r"k_values repeats \[16\]"):
        SweepConfig(k_values=(16, 25, 16), n_trials=12, variants=("cnn_baseline",))
    with pytest.raises(ValueError, match=r"variants repeats \['resnet_ssw'\]"):
        SweepConfig(k_values=(16,), n_trials=12, variants=("resnet_ssw", "resnet_ssw"))


def test_trajectory_experiment_ssw(tmp_path):
    traj, csv_path, svg_path = trajectory_experiment("ssw", str(tmp_path), record_stride=25)
    assert traj.outcome.kind == "converged_global"
    data = np.genfromtxt(csv_path, delimiter=",", names=True)
    assert data.dtype.names == ("t", "phi", "a_dot_astar", "w_err_sq", "a_err_sq", "loss")
    # lossless round trip of the recorded values
    assert np.array_equal(data["phi"], traj.phi)
    assert np.array_equal(data["loss"], traj.loss)
    svg = open(svg_path).read()
    assert svg.startswith("<svg") and "polyline" in svg

    again, csv2, _ = trajectory_experiment("ssw", str(tmp_path / "again"), record_stride=25)
    assert open(csv_path, "rb").read() == open(csv2, "rb").read()


def test_trajectory_experiment_constant(tmp_path):
    traj, csv_path, _ = trajectory_experiment("constant", str(tmp_path), record_stride=100)
    assert traj.outcome.kind == "trapped_spurious"
    assert traj.phi[-1] >= np.pi - 0.1


def test_trajectory_experiment_rejects_bad_variant(tmp_path):
    with pytest.raises(ValueError):
        trajectory_experiment("adam", str(tmp_path))
