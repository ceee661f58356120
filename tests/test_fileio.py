import builtins
import os
from collections.abc import Sequence

import numpy as np
import pytest

from shortcut_gd import experiments
from shortcut_gd.cli import cli_main
from shortcut_gd.experiments import (
    CSV_COLUMNS, SweepConfig, atomic_write, plot_trajectory, render_panels, success_rate_sweep,
    teacher_for_k, trajectory_experiment, write_sweep_json, write_trajectory_csv,
)
from shortcut_gd.model import StudentState
from shortcut_gd.optimizer import cnn_run, run, sample_cnn_init
from shortcut_gd.schedules import ConstantSchedule


def _open_failing_mid_write(*args, **kwargs):
    """open(), except that the first write stores half its text and then raises."""
    fh = builtins.open(*args, **kwargs)
    real_write = fh.write

    def write(text):
        real_write(text[: len(text) // 2])
        fh.flush()
        raise OSError("simulated full disk")

    fh.write = write
    return fh


def _write_sweep(path):
    config = SweepConfig(k_values=(16,), n_trials=2, variants=("cnn_baseline",), max_iters=10)
    write_sweep_json(success_rate_sweep(config), path)


def _write_csv(path):
    teacher = teacher_for_k(16)
    init = StudentState(w=np.zeros(8), a=teacher.a_star / 2.0)
    write_trajectory_csv(run(init, teacher, ConstantSchedule.for_k(16), max_iters=5), path)


def _write_svg(path):
    render_panels(path, [0.0, 1.0], [("y", [2.0, 3.0])], title="t")


def _write_verify_report(path):
    if cli_main(["verify", "--region", "filter-basin", "--points", "5", "--out", path]) != 0:
        raise OSError("verify exited nonzero")


@pytest.mark.parametrize("writer", [_write_sweep, _write_csv, _write_svg, _write_verify_report])
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    writer(str(path))
    old = path.read_bytes()
    assert old
    monkeypatch.setattr(experiments, "open", _open_failing_mid_write, raising=False)
    with pytest.raises(OSError):
        writer(str(path))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["out"]


def test_atomic_write_replaces_on_success_only(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(str(path)) as fh:
        fh.write("first\n")
    assert path.read_text() == "first\n"
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("second")
            raise RuntimeError("writer failed")
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def _reference_csv(traj, path):
    """The trajectory CSV written row by row, each row formatted from numpy scalars."""
    t, *values = (getattr(traj, name) for name in CSV_COLUMNS)
    row = "%d" + ",%.17g" * len(values) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(row % r for r in zip(t, *values))


def _reference_scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in values]


def _reference_svg(path: str, t: Sequence[float], panels: list[tuple[str, Sequence[float]]], *,
                   title: str) -> None:
    """render_panels on Python floats: each panel's points scaled over t and formatted pair
    by pair."""
    m, fmt = experiments, experiments._fmt
    height = m.MARGIN_T + len(panels) * m.PANEL_H + m.MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{m.PANEL_W}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{m.PANEL_W}" height="{height}" fill="white"/>',
        f'<text x="{m.PANEL_W / 2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
    ]
    for i, (label, ys) in enumerate(panels):
        top = m.MARGIN_T + i * m.PANEL_H
        bottom = top + m.PANEL_H - m.MARGIN_B
        left, right = m.MARGIN_L, m.PANEL_W - m.MARGIN_R
        xs = [float(v) for v in t]
        ys = [float(v) for v in ys]
        x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
        y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
        px = _reference_scale(xs, x_lo, x_hi, left, right)
        py = _reference_scale(ys, y_lo, y_hi, bottom, top + 8)
        pts = " ".join(["%.2f,%.2f" % pair for pair in zip(px, py)])
        parts.append(
            f'<rect x="{left}" y="{top + 8}" width="{right - left}" '
            f'height="{bottom - top - 8}" fill="none" stroke="#888"/>'
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>')
        parts.append(f'<text x="{left}" y="{top + 4 + 8}" fill="#333">{label}</text>')
        parts.append(f'<text x="{left - 4}" y="{bottom}" text-anchor="end">{fmt(y_lo)}</text>')
        parts.append(f'<text x="{left - 4}" y="{top + 16}" text-anchor="end">{fmt(y_hi)}</text>')
        parts.append(f'<text x="{left}" y="{bottom + 14}" text-anchor="middle">{fmt(x_lo)}</text>')
        parts.append(f'<text x="{right}" y="{bottom + 14}" text-anchor="middle">{fmt(x_hi)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def _trajectory_panels(traj):
    """plot_trajectory's x column and panels, as Python-float lists."""
    names = ("phi", "a_dot_astar", "w_err_sq", "a_err_sq", "loss")
    labels = ("phi", "a . a_star", "||w - w_star||^2", "||a - a_star||^2", "loss")
    return traj.t.tolist(), [(label, getattr(traj, name).tolist())
                             for label, name in zip(labels, names)]


def _diverging_trajectory():
    """A cnn run at eta = 1, whose loss column overflows to inf before the run stops."""
    teacher = teacher_for_k(16)
    traj = cnn_run(*sample_cnn_init(teacher, 0), teacher, eta=1.0, max_iters=20_000)
    assert not np.isfinite(traj.loss).all()
    return traj


@pytest.mark.parametrize("variant", ["ssw", "constant"])
@pytest.mark.parametrize("stride", [1, 13])
def test_trajectory_files_match_the_per_row_writers(tmp_path, variant, stride):
    traj, csv_path, svg_path = trajectory_experiment(variant, str(tmp_path), record_stride=stride)
    _reference_csv(traj, tmp_path / "reference.csv")
    _reference_svg(str(tmp_path / "reference.svg"), *_trajectory_panels(traj),
                   title=f"{variant} schedule, k=25")
    with open(csv_path, "rb") as got, open(tmp_path / "reference.csv", "rb") as want:
        assert got.read() == want.read()
    with open(svg_path, "rb") as got, open(tmp_path / "reference.svg", "rb") as want:
        assert got.read() == want.read()


def test_diverging_trajectory_files_match_the_per_row_writers(tmp_path):
    traj = _diverging_trajectory()
    write_trajectory_csv(traj, str(tmp_path / "got.csv"))
    _reference_csv(traj, tmp_path / "want.csv")
    plot_trajectory(traj, str(tmp_path / "got.svg"), title="cnn")
    _reference_svg(str(tmp_path / "want.svg"), *_trajectory_panels(traj), title="cnn")
    for name in ("csv", "svg"):
        assert (tmp_path / f"got.{name}").read_bytes() == (tmp_path / f"want.{name}").read_bytes()


@pytest.mark.parametrize("t, panels", [
    ([3], [("one point", [0.25])]),
    ([0, 1, 2], [("zero span", [5.0, 5.0, 5.0]), ("one", [1.0, 1.0, 2.0])]),
    ([4, 4], [("zero x span", [1.0, -2.0])]),
    ([], [("empty", [])]),
    ([0, 1], []),
    ([0, 1, 2], [("nan first", [np.nan, 1.0, 2.0]), ("nan inside", [1.0, np.nan, 2.0]),
                 ("infinite", [1.0, np.inf, -np.inf])]),
], ids=["one-point", "zero-span", "zero-x-span", "empty", "no-panels", "not-finite"])
def test_render_panels_matches_the_per_pair_loop(tmp_path, t, panels):
    render_panels(str(tmp_path / "got.svg"), t, panels, title="edge")
    _reference_svg(str(tmp_path / "want.svg"), t, panels, title="edge")
    assert (tmp_path / "got.svg").read_bytes() == (tmp_path / "want.svg").read_bytes()
