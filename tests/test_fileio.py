import builtins
import os

import numpy as np
import pytest

from shortcut_gd import fileio
from shortcut_gd.cli import cli_main
from shortcut_gd.experiments import (
    SweepConfig, success_rate_sweep, teacher_for_k, write_sweep_json, write_trajectory_csv,
)
from shortcut_gd.fileio import atomic_write
from shortcut_gd.model import StudentState
from shortcut_gd.optimizer import run
from shortcut_gd.schedules import ConstantSchedule
from shortcut_gd.svgplot import render_panels


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
    render_panels(path, [("y", [0.0, 1.0], [2.0, 3.0])], title="t")


def _write_verify_report(path):
    if cli_main(["verify", "--region", "filter-basin", "--points", "5", "--out", path]) != 0:
        raise OSError("verify exited nonzero")


@pytest.mark.parametrize("writer", [_write_sweep, _write_csv, _write_svg, _write_verify_report])
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    writer(str(path))
    old = path.read_bytes()
    assert old
    monkeypatch.setattr(fileio, "open", _open_failing_mid_write, raising=False)
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
