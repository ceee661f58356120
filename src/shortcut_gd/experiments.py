"""Reproduction harness: tabulated teachers, success-rate sweeps, trajectory runs.

This module writes every file the package emits (sweep JSON, verify reports,
trajectory CSV and SVG), each through atomic_write. Outputs are deterministic
for a fixed configuration: per-trial seeds derive from (base_seed + trial
index), each (variant, k) cell runs as one run_batch call in this process, and
a trial's outcome does not depend on which trials share its batch
(landscape.closed_rows reads each start row alone). Wall-clock timings live in
a separate metadata block, so the results block is byte-reproducible.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import time
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import TextIO

import numpy as np

from .batch import Regions, run_batch
from .model import StudentState, TeacherSpec, check_dims
from .optimizer import DEFAULT_MAX_ITERS, KINDS, MAX_ITERS, Trajectory, draw_starts, run
from .schedules import STAGE1_ITERS, ConstantSchedule, WarmupSchedule

# Output-weight patterns per k: (count of +1, count of -1, count of 0).
_A_STAR_PATTERN = {
    16: (9, 7, 0),
    25: (14, 11, 0),
    36: (19, 16, 1),
    49: (26, 22, 1),
    64: (34, 30, 0),
    81: (43, 38, 0),
    100: (52, 47, 1),
}

SUPPORTED_K = tuple(_A_STAR_PATTERN)

_V_STAR_ANGLE = 7.0 * math.pi / 10.0

VARIANTS = ("resnet_ssw", "resnet_constant", "cnn_baseline")

# Init law per variant, fixed; sweep reports record it. The warmup variant
# keeps the ball law whose draws satisfy |1^T a_0| <= |1^T a_star|; the other
# two use the fan-in Gaussian law that the tabulated k=25 start vector and the
# reference success rates are consistent with.
DEFAULT_INIT_LAWS = {
    "resnet_ssw": "ball",
    "resnet_constant": "gaussian",
    "cnn_baseline": "gaussian",
}


def teacher_for_k(k: int, p: int = 8) -> TeacherSpec:
    """Teacher with the tabulated output weights for k and the planar filter.

    v_star has components (cos(7pi/10), sin(7pi/10), 0, ...).
    """
    check_dims(k, p)
    if k not in _A_STAR_PATTERN:
        raise ValueError(f"k={k} is not tabulated; the tabulated k are {list(SUPPORTED_K)}")
    n_pos, n_neg, n_zero = _A_STAR_PATTERN[k]
    a_star = np.concatenate([np.ones(n_pos), -np.ones(n_neg), np.zeros(n_zero)])
    v_star = np.zeros(p)
    v_star[0] = math.cos(_V_STAR_ANGLE)
    v_star[1] = math.sin(_V_STAR_ANGLE)
    return TeacherSpec(v_star, a_star)


def fixed_a0_k25() -> np.ndarray:
    """The tabulated 25-component start vector for the trajectory runs."""
    return np.array([
        -0.1268, -0.1590, -0.1071, -0.1594, -0.4670, 0.1563, 0.1894, -0.2390, -0.0602,
        -0.5047, 0.0325, -0.0886, 0.1514, -0.0883, -0.0243, 0.1198, -0.2805, 0.0024,
        -0.0855, 0.0742, -0.0976, -0.1768, 0.1207, 0.0049, 0.1809,
    ])


def teacher_metadata(teacher: TeacherSpec) -> dict:
    """Descriptive facts recorded with experiment outputs.

    Includes the computed shortcut/filter angle next to the nominal 0.45 pi
    design value, and the entry sum next to the nominal quarter-norm relation
    (1^T a_star = ||a_star||^2 / 4); the tabulated weights satisfy neither
    nominal value exactly.
    """
    angle = teacher.shortcut_angle()
    return {
        "k": teacher.k,
        "p": teacher.p,
        "sum_a_star": teacher.sum_a_star,
        "a_star_norm_sq": teacher.a_star_norm_sq,
        "quarter_a_star_norm_sq": teacher.a_star_norm_sq / 4.0,
        "alignment_lower": teacher.alignment_lower,
        "alignment_upper": teacher.alignment_upper,
        "strict_prior": teacher.strict_prior,
        "shortcut_vstar_angle_rad": angle,
        "shortcut_vstar_angle_per_pi": angle / math.pi,
        "nominal_design_angle_per_pi": 0.45,
    }


# A cell's start rows hold n_trials * (p + k) floats, drawn and scaled in place with
# temporaries of a few n_trials floats (about 7 MB at this bound, for the ball
# law), and landscape.closed_rows reads them through another n_trials * k for
# d = a - a_star, freed before the trials step: a peak traced allocation of 170 MB
# at k=100, p=8 and this bound, 20 times the reference 5000 trials per cell.
# run_batch's window then holds 3 * 8 stacked states per trial and the
# Regions.kinds temporaries over them, about 47 MB at this bound for any k (peak
# traced allocation, 46.8 MB at k=16).
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class SweepConfig:
    k_values: tuple[int, ...] = SUPPORTED_K
    n_trials: int = 500
    base_seed: int = 0
    variants: tuple[str, ...] = VARIANTS
    max_iters: int = DEFAULT_MAX_ITERS
    cnn_eta: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must be in [1, {MAX_TRIALS}], got {self.n_trials}")
        if not 1 <= self.max_iters <= MAX_ITERS:
            raise ValueError(
                f"max_iters must be >= 1 and at most {MAX_ITERS}, got {self.max_iters}"
            )
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        for name in ("k_values", "variants"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be nonempty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {repeated}")


@dataclass(frozen=True)
class CellResult:
    variant: str
    k: int
    n_trials: int
    # one count per outcome kind, in KINDS order
    success_count: int
    spurious_count: int
    undecided_count: int

    @property
    def success_rate(self) -> float:
        return self.success_count / self.n_trials

    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.success_count, self.n_trials)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    cells: tuple[CellResult, ...]
    wall_time_s: dict[str, float]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion; always contains the estimate."""
    z = 1.959963984540054  # the standard normal quantile of 0.975
    if n < 1:
        raise ValueError("n must be >= 1")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = max(0.0, min(center - half, phat))
    hi = min(1.0, max(center + half, phat))
    return lo, hi


def schedule_for(variant: str, k: int, cnn_eta: float = 0.1) -> WarmupSchedule:
    """The step sizes of a sweep variant at k; cnn_eta is cnn_baseline's constant step size."""
    if variant == "resnet_ssw":
        return WarmupSchedule.for_k(k)
    if variant == "resnet_constant":
        return ConstantSchedule.for_k(k)
    return ConstantSchedule(eta_a=cnn_eta, eta_w=cnn_eta)


def success_rate_sweep(config: SweepConfig) -> SweepReport:
    """Run every (variant, k) cell of the sweep as one run_batch call and count outcomes.

    Trial i of a cell starts from seed base_seed + i. A cell's wall time is
    the run time of its sampling and its run_batch call.
    """
    cells = [(v, teacher_for_k(k), schedule_for(v, k, config.cnn_eta))
             for v in config.variants for k in config.k_values]
    for _, teacher, schedule in cells:
        # run_batch's check of the step sizes, made before any trial runs
        Regions.for_schedule(teacher, schedule)
    seeds = range(config.base_seed, config.base_seed + config.n_trials)
    results, wall = [], {}
    t_start = time.perf_counter()
    for variant, teacher, schedule in cells:
        t0 = time.perf_counter()
        k = teacher.k
        v0, a0 = draw_starts(teacher, seeds, DEFAULT_INIT_LAWS[variant],
                             plain_filter=variant == "cnn_baseline")
        result = run_batch(v0, a0, teacher, schedule, config.max_iters)
        counts = np.bincount(result.kinds, minlength=len(KINDS))
        results.append(CellResult(variant, k, config.n_trials, *map(int, counts)))
        wall[f"{variant}/k={k}"] = time.perf_counter() - t0
    wall["total"] = time.perf_counter() - t_start
    return SweepReport(config=config, cells=tuple(results), wall_time_s=wall)


def sweep_report_dict(report: SweepReport) -> dict:
    """JSON-ready dict; wall-clock facts stay inside the 'metadata' block."""
    config = {**asdict(report.config), "init_laws": dict(DEFAULT_INIT_LAWS),
              "stage1_iters": STAGE1_ITERS}
    results = []
    for cell in report.cells:
        lo, hi = cell.ci95()
        results.append({**asdict(cell), "success_rate": cell.success_rate,
                        "ci95_low": lo, "ci95_high": hi})
    return {
        "config": config,
        "results": results,
        "metadata": {
            "wall_time_s": dict(sorted(report.wall_time_s.items())),
            "teachers": [teacher_metadata(teacher_for_k(k)) for k in report.config.k_values],
        },
    }


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces path only when the block completes.

    The text goes to a temporary file in path's directory, which os.replace
    then moves over path. If the block raises, the temporary file is removed
    and path keeps its old contents.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(doc: dict, path: str) -> None:
    """doc as JSON with sorted keys, indented by 2, and a trailing newline."""
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_json(report: SweepReport, path: str) -> None:
    write_json(sweep_report_dict(report), path)


CSV_COLUMNS = ("t", "phi", "a_dot_astar", "w_err_sq", "a_err_sq", "loss")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Fixed-column CSV with 17 significant digits (lossless doubles)."""
    cols = [getattr(traj, name).tolist() for name in CSV_COLUMNS]
    row = "%d" + ",%.17g" * (len(cols) - 1) + "\n"
    with atomic_write(path) as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n" + row * len(cols[0]))
                 % tuple(itertools.chain.from_iterable(zip(*cols))))


# SVG layout: a column of panels, one polyline each, with axis frames and min/max
# tick labels, good enough for eyeballing trajectories (no plotting dependency).
PANEL_W = 640
PANEL_H = 180
MARGIN_L = 70
MARGIN_R = 15
MARGIN_T = 28
MARGIN_B = 34


def _scale(values: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float) -> np.ndarray:
    span = hi - lo
    if span == 0.0:
        span = 1.0
    # elementwise as on floats, which overflow to inf and give nan for inf - inf silently
    with np.errstate(over="ignore", invalid="ignore"):
        return out_lo + (values - lo) / span * (out_hi - out_lo)


def _range(values: np.ndarray) -> tuple[float, float]:
    """(min, max) as Python's min and max give them on the floats, (0, 1) when empty.

    They skip a NaN after the first value, where np.min and np.max would return it.
    """
    if not len(values):
        return 0.0, 1.0
    floats = values.tolist()
    return min(floats), max(floats)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def render_panels(
    path: str,
    t: Sequence[float],
    panels: list[tuple[str, Sequence[float]]],
    *,
    title: str,
) -> None:
    """Write an SVG with one (label, ys) polyline panel per row, each over the x column t."""
    height = MARGIN_T + len(panels) * PANEL_H + MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{PANEL_W}" height="{height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{PANEL_W}" height="{height}" fill="white"/>',
        f'<text x="{PANEL_W / 2}" y="16" text-anchor="middle" font-size="13">{title}</text>',
    ]
    left, right = MARGIN_L, PANEL_W - MARGIN_R
    xs = np.asarray(t, dtype=float)
    x_lo, x_hi = _range(xs)
    px = _scale(xs, x_lo, x_hi, left, right)
    for i, (label, ys) in enumerate(panels):
        top = MARGIN_T + i * PANEL_H
        bottom = top + PANEL_H - MARGIN_B
        ys = np.asarray(ys, dtype=float)
        y_lo, y_hi = _range(ys)
        py = _scale(ys, y_lo, y_hi, bottom, top + 8)
        pts = ("%.2f,%.2f " * len(xs))[:-1] % tuple(np.stack((px, py), axis=1).ravel().tolist())
        parts.append(
            f'<rect x="{left}" y="{top + 8}" width="{right - left}" '
            f'height="{bottom - top - 8}" fill="none" stroke="#888"/>'
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>')
        parts.append(f'<text x="{left}" y="{top + 4 + 8}" fill="#333">{label}</text>')
        parts.append(f'<text x="{left - 4}" y="{bottom}" text-anchor="end">{_fmt(y_lo)}</text>')
        parts.append(f'<text x="{left - 4}" y="{top + 16}" text-anchor="end">{_fmt(y_hi)}</text>')
        parts.append(f'<text x="{left}" y="{bottom + 14}" text-anchor="middle">{_fmt(x_lo)}</text>')
        parts.append(f'<text x="{right}" y="{bottom + 14}" text-anchor="middle">{_fmt(x_hi)}</text>')
    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts))


def plot_trajectory(traj: Trajectory, path: str, *, title: str) -> None:
    render_panels(
        path,
        traj.t,
        [
            ("phi", traj.phi),
            ("a . a_star", traj.a_dot_astar),
            ("||w - w_star||^2", traj.w_err_sq),
            ("||a - a_star||^2", traj.a_err_sq),
            ("loss", traj.loss),
        ],
        title=title,
    )


def write_trajectory(traj: Trajectory, out_dir: str, name: str, title: str) -> tuple[str, str]:
    """Write trajectory_<name>.csv and .svg into out_dir, made if missing; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"trajectory_{name}.csv")
    svg_path = os.path.join(out_dir, f"trajectory_{name}.svg")
    write_trajectory_csv(traj, csv_path)
    plot_trajectory(traj, svg_path, title=title)
    return csv_path, svg_path


def trajectory_experiment(
    variant: str,
    out_dir: str,
    *,
    k: int = 25,
    record_stride: int = 1,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[Trajectory, str, str]:
    """Single diagnostic run from the tabulated k=25 start vector.

    variant 'ssw' uses the warmup schedule and is expected to reach the
    global tolerance; variant 'constant' keeps both step sizes at 1/k^2 and
    is expected to end at the spurious optimum. Both poll the spurious test,
    as a seeded `shortcut-gd run` does. Writes trajectory_<variant>.csv and
    .svg into out_dir.
    """
    if variant not in ("ssw", "constant"):
        raise ValueError(f"variant must be 'ssw' or 'constant', got {variant!r}")
    if k != 25:
        raise ValueError("the fixed start vector is only tabulated for k=25")
    teacher = teacher_for_k(k)
    traj = run(StudentState(w=np.zeros(teacher.p), a=fixed_a0_k25()), teacher,
               schedule_for("resnet_" + variant, k), max_iters=max_iters,
               record_stride=record_stride, stop_on_spurious=True)
    return (traj, *write_trajectory(traj, out_dir, variant, f"{variant} schedule, k={k}"))
