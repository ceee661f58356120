"""The benchmark's workloads: inputs made from the seed, one timed round, checks.

All work runs in this process with workers=1. A round calls the package's
public entry points only; the checks run after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from shortcut_gd import batch, cli, experiments, landscape, model, optimizer, oracle, verification
from shortcut_gd.schedules import ConstantSchedule, WarmupSchedule

import checks

# Trial seeds of one workload seed are base_seed + trial index; the stride
# keeps the trial seeds of different workload seeds apart.
BASE_SEED_STRIDE = 1_000_000

# (variants, k values, trials per cell) of each `shortcut-gd sweep` call in a round.
SWEEP_WIDE_CALLS = (
    (("cnn_baseline",), (16, 25), 4000),
    (("resnet_ssw", "resnet_constant"), (16,), 1000),
)
# Cells held to the paper's rates.
SWEEP_WIDE_GATED = frozenset({("resnet_ssw", 16), ("resnet_constant", 16),
                              ("cnn_baseline", 16), ("cnn_baseline", 25)})
SWEEP_MAX_ITERS = 1_000_000
CNN_ETA = 0.1

CERTIFY_GRID = tuple((k, p) for k in (2, 5, 25) for p in (2, 4, 8))
MC_SAMPLES = 65_536
FD_STEP = 1e-6
# Below this largest gradient component the finite-difference error is absolute.
FD_ABS_FLOOR = 1e-8
REGION_POINTS = 1000
NEGATIVE_POINTS = 300
# The regions' teachers do not depend on the workload seed; only their sample
# points do. How many proposals the escape sampler needs per accepted point
# is a property of the teacher and varies 25-fold between random k=2
# teachers: 1 809 to 47 592 proposals for 1000 points over the teachers of
# workload seeds 0-19, which would make a run's time depend on its seed.
REGION_TEACHER_SEEDS = (300, 301, 302)

TRAJECTORY_K = 25
MONITORED_RUNS = 2
MONITORED_MAX_ITERS = 200_000

KIND_NAMES = {
    batch.KIND_CONVERGED: checks.CONVERGED,
    batch.KIND_TRAPPED: checks.TRAPPED,
    batch.KIND_UNDECIDED: checks.UNDECIDED,
}


class Ops:
    """Counts the checked calls into the package and the ones that raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, fn: Callable, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


# ---------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepInputs:
    calls: tuple  # (variants, k values, trials)
    argvs: tuple
    paths: tuple
    gated: frozenset
    base_seed: int


def _build_sweep(calls: tuple, gated: frozenset, seed: int, out_dir: Path) -> SweepInputs:
    base_seed = BASE_SEED_STRIDE * seed
    argvs, paths = [], []
    for i, (variants, ks, trials) in enumerate(calls):
        path = out_dir / f"sweep_{i}.json"
        argvs.append([
            "sweep", "--variants", ",".join(variants), "--k", ",".join(map(str, ks)),
            "--trials", str(trials), "--base-seed", str(base_seed), "--workers", "1",
            "--max-iters", str(SWEEP_MAX_ITERS), "--cnn-eta", str(CNN_ETA),
            "--out", str(path),
        ])
        paths.append(path)
    return SweepInputs(calls, tuple(argvs), tuple(paths), gated, base_seed)


def _cli_sweep(argv: list[str], path: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"shortcut-gd {' '.join(argv)} exited with code {code}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sweep_round(inputs: SweepInputs, ops: Ops) -> list:
    return [ops.call(_cli_sweep, argv, path) for argv, path in zip(inputs.argvs, inputs.paths)]


def _sweep_fingerprint(reports: list) -> list:
    return [None if r is None else r["results"] for r in reports]


@contextlib.contextmanager
def capture_batches(store: list):
    """Keep the arguments and result of every run_batch call the sweeps make."""
    original = experiments.run_batch

    def capturing(v0, a0, *args, **kwargs):
        result = original(v0, a0, *args, **kwargs)
        store.append((np.asarray(v0, float), np.asarray(a0, float), result))
        return result

    experiments.run_batch = capturing
    try:
        yield
    finally:
        experiments.run_batch = original


def public_init(variant: str, teacher, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A trial's start, rebuilt with the package's public samplers."""
    if variant == "cnn_baseline":
        return optimizer.sample_cnn_init(teacher, seed, "gaussian")
    sampler = optimizer.sample_init if variant == "resnet_ssw" else optimizer.gaussian_init
    init = sampler(teacher, seed)
    return teacher.shortcut + init.w, init.a


def rerun(variant: str, teacher, v0: np.ndarray, a0: np.ndarray) -> str:
    """Outcome kind of one trial run through the single-trajectory path."""
    common = dict(max_iters=SWEEP_MAX_ITERS, record_stride=SWEEP_MAX_ITERS, stop_on_spurious=True)
    if variant == "cnn_baseline":
        traj = optimizer.cnn_run(v0, a0, teacher, eta=CNN_ETA, basin_success=True, **common)
    else:
        k = teacher.k
        schedule = WarmupSchedule.for_k(k) if variant == "resnet_ssw" else ConstantSchedule.for_k(k)
        init = model.StudentState(w=v0 - teacher.shortcut, a=a0)
        traj = optimizer.run(init, teacher, schedule, **common)
    return traj.outcome.kind


def _sweep_check(inputs: SweepInputs, rounds: list, captured: list, ops: Ops) -> list[str]:
    problems = []
    first = _sweep_fingerprint(rounds[0])
    for r, outputs in enumerate(rounds[1:], start=1):
        problems += checks.same_output(f"sweep round {r}", first, _sweep_fingerprint(outputs))

    rows = {}
    for v0, a0, result in captured:
        for i in range(v0.shape[0]):
            rows[v0[i].tobytes() + a0[i].tobytes()] = (KIND_NAMES[int(result.kinds[i])],
                                                      int(result.iters[i]))
    for (_, _, trials), report in zip(inputs.calls, rounds[0]):
        if report is None:
            continue
        problems += checks.sweep_cells(report["results"], trials, inputs.gated)
        for cell in report["results"]:
            variant, teacher = cell["variant"], experiments.teacher_for_k(cell["k"])
            inits, found = [], []
            for trial in range(cell["n_trials"]):
                v0, a0 = public_init(variant, teacher, inputs.base_seed + trial)
                inits.append((v0, a0))
                found.append(rows.get(v0.tobytes() + a0.tobytes()))
            problems += checks.trial_kinds(cell, [f and f[0] for f in found])
            # per outcome kind, rerun the trial that finished first
            picks = {}
            for trial, hit in enumerate(found):
                if hit and hit[1] < picks.get(hit[0], (0, 1 << 62))[1]:
                    picks[hit[0]] = (trial, hit[1])
            for kind, (trial, _) in sorted(picks.items()):
                got = ops.call(rerun, variant, teacher, *inits[trial])
                problems += checks.same_kind(f"{variant}/k={cell['k']} trial {trial}", kind, got)
    return problems


# ---------------------------------------------------------------- certify


@dataclass(frozen=True)
class CertifyInputs:
    states: tuple  # (label, teacher, state, mc seed)
    regions: tuple  # (label, region)
    negative_teacher: Any
    negative_min_alignment: float
    seed: int


def _build_certify(seed: int, out_dir: Path) -> CertifyInputs:
    base = 1000 * seed
    states = []
    for i, (k, p) in enumerate(CERTIFY_GRID):
        teacher = model.random_teacher(k, p, seed=base + i, a_norm=0.5 + i % 3)
        states.append((f"state k={k} p={p}", teacher, model.random_state(teacher, seed=base + 100 + i),
                       base + 200 + i))
    escape_seed, basin_seed, refine_seed = REGION_TEACHER_SEEDS
    t_escape = model.random_teacher(2, 2, seed=escape_seed)
    t_basin = model.random_teacher(5, 4, seed=basin_seed)
    t_refine = model.random_teacher(25, 2, seed=refine_seed)
    regions = (
        ("escape", landscape.EscapeRegion(teacher=t_escape)),
        ("filter-basin", landscape.FilterBasinRegion(t_basin, 0.2 * t_basin.a_star_norm_sq)),
        ("refinement", landscape.RefinementRegion(
            t_refine, 0.2 * t_refine.a_star_norm_sq, t_refine.alignment_upper, 0.1)),
    )
    return CertifyInputs(tuple(states), regions, t_basin, 0.2, seed)


def _closed_forms(state, teacher) -> tuple:
    return (landscape.population_loss(state, teacher), landscape.grad_w(state, teacher),
            landscape.grad_a(state, teacher))


def fd_relative_errors(state, teacher) -> tuple[float, float]:
    """Central differences of the closed-form loss against both closed-form gradients.

    Computed here, apart from oracle.fd_grad_check, with the error taken
    relative to the largest gradient component, so that the roundoff of a
    difference quotient on a tiny component does not count as an error.
    """
    def loss(w, a):
        return landscape.population_loss(model.StudentState(w=w, a=a), teacher)

    v = teacher.shortcut + state.w
    fd_a = np.empty(teacher.k)
    for j in range(teacher.k):
        e = np.zeros(teacher.k)
        e[j] = FD_STEP
        fd_a[j] = (loss(state.w, state.a + e) - loss(state.w, state.a - e)) / (2.0 * FD_STEP)
    fd_w = np.empty(teacher.p)
    for i in range(teacher.p):
        ends = []
        for sign in (1.0, -1.0):
            moved = v.copy()
            moved[i] += sign * FD_STEP
            ends.append(loss(moved / np.linalg.norm(moved) - teacher.shortcut, state.a))
        fd_w[i] = (ends[0] - ends[1]) / (2.0 * FD_STEP)
    errors = []
    for fd, exact in ((fd_a, landscape.grad_a(state, teacher)),
                      (fd_w, landscape.grad_w(state, teacher))):
        scale = max(float(np.max(np.abs(exact))), FD_ABS_FLOOR)
        errors.append(float(np.max(np.abs(fd - exact))) / scale)
    return errors[0], errors[1]


def _critical_gradient_norms(teacher) -> list[float]:
    cp = landscape.critical_points(teacher)
    norms = []
    for w, a in ((cp.global_w, cp.global_a), (cp.spurious_w, cp.spurious_a)):
        state = model.StudentState(w=w, a=a)
        norms += [float(np.linalg.norm(landscape.grad_a(state, teacher))),
                  float(np.linalg.norm(landscape.grad_w(state, teacher)))]
    return norms


def _certify_round(inputs: CertifyInputs, ops: Ops) -> dict:
    out = {"fd": [], "mc": [], "critical": [], "regions": [], "negative": None}
    for label, teacher, state, mc_seed in inputs.states:
        fd = ops.call(oracle.fd_grad_check, state, teacher, step=FD_STEP)
        mc = ops.call(oracle.mc_estimates, state, teacher, MC_SAMPLES, mc_seed)
        exact = ops.call(_closed_forms, state, teacher)
        out["fd"].append((label, fd and (fd.max_rel_error_a, fd.max_rel_error_w)))
        if mc is not None and exact is not None:
            out["mc"] += [(est.value, est.std_error, ex) for est, ex in zip(mc, exact)]
        out["critical"].append((label, ops.call(_critical_gradient_norms, teacher)))
    for label, region in inputs.regions:
        report = ops.call(verification.check_dissipativity, region, REGION_POINTS, inputs.seed)
        out["regions"].append((label, report and (report.passed, len(report.violating_points),
                                                  report.min_slack)))
    control = ops.call(verification.negative_control_filter_basin, inputs.negative_teacher,
                       inputs.negative_min_alignment, NEGATIVE_POINTS, inputs.seed)
    out["negative"] = control and len(control.violating_points)
    return out


def _certify_fingerprint(out: dict) -> tuple:
    mc = [(np.asarray(v).tolist(), np.asarray(s).tolist()) for v, s, _ in out["mc"]]
    return out["fd"], mc, out["critical"], out["regions"], out["negative"]


def _certify_check(inputs: CertifyInputs, rounds: list, captured: list, ops: Ops) -> list[str]:
    out = rounds[0]
    problems = []
    for r, other in enumerate(rounds[1:], start=1):
        problems += checks.same_output(f"certify round {r}", _certify_fingerprint(out),
                                       _certify_fingerprint(other))
    for label, teacher, state, _ in inputs.states:
        errors = ops.call(fd_relative_errors, state, teacher)
        if errors is not None:
            problems += checks.fd_errors(label, *errors)
    problems += checks.mc_within(out["mc"])
    for label, norms in out["critical"]:
        if norms is not None:
            problems += checks.critical_gradients(label, norms)
    for label, report in out["regions"]:
        if report is not None:
            problems += checks.region_report(label, report[0], report[1])
    if out["negative"] is not None:
        problems += checks.negative_control(out["negative"])
    return problems


# ---------------------------------------------------------------- trajectories


@dataclass(frozen=True)
class TrajectoryInputs:
    out_dir: Path
    teacher: Any
    schedule: Any
    inits: tuple


def _build_trajectories(seed: int, out_dir: Path) -> TrajectoryInputs:
    teacher = experiments.teacher_for_k(TRAJECTORY_K)
    inits = tuple(optimizer.sample_init(teacher, 1000 * seed + j) for j in range(MONITORED_RUNS))
    return TrajectoryInputs(out_dir, teacher, WarmupSchedule.for_k(TRAJECTORY_K), inits)


def _trajectory_round(inputs: TrajectoryInputs, ops: Ops) -> dict:
    fixed = {v: ops.call(experiments.trajectory_experiment, v, str(inputs.out_dir / v),
                         k=TRAJECTORY_K, record_stride=1) for v in ("ssw", "constant")}
    monitored = []
    for init in inputs.inits:
        traj = ops.call(optimizer.run, init, inputs.teacher, inputs.schedule,
                        max_iters=MONITORED_MAX_ITERS, record_stride=1)
        violations = traj and ops.call(verification.monitor_trajectory, traj, inputs.teacher)
        monitored.append((traj, violations))
    return {"fixed": fixed, "monitored": monitored}


def _trajectory_fingerprint(out: dict) -> list:
    trajs = [f and f[0] for f in out["fixed"].values()] + [t for t, _ in out["monitored"]]
    return [t and (t.outcome.kind, t.outcome.iters, t.final_state.w.tobytes(),
                   t.final_state.a.tobytes()) for t in trajs]


def _trajectory_check(inputs: TrajectoryInputs, rounds: list, captured: list, ops: Ops) -> list[str]:
    problems = []
    for r, other in enumerate(rounds[1:], start=1):
        problems += checks.same_output(f"trajectories round {r}",
                                       _trajectory_fingerprint(rounds[0]),
                                       _trajectory_fingerprint(other))
    teacher = inputs.teacher
    # the files on disk were written by the last round
    for variant, result in rounds[-1]["fixed"].items():
        if result is None:
            continue
        traj, csv_path, svg_path = result
        final = traj.final_state
        final_check = checks.ssw_final if variant == "ssw" else checks.constant_final
        problems += final_check(traj.outcome.kind, final.w, final.a, teacher)
        loss = ops.call(landscape.population_loss, final, teacher)
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
        problems += checks.csv_last_row(f"{variant} CSV", text, traj.outcome.iters,
                                        final.w, final.a, teacher, loss)
        with open(svg_path, encoding="utf-8") as fh:
            if fh.read().count("<polyline") != 5:
                problems.append(f"{variant}: SVG does not hold the five trajectory panels")
    for j, (traj, violations) in enumerate(rounds[0]["monitored"]):
        if traj is not None and violations is not None:
            problems += checks.monitored_run(f"monitored run {j}", traj.outcome.kind, traj.phi,
                                             traj.a_dot_astar, traj.sum_a, violations, teacher)
    return problems


# ---------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, Path], Any]
    run_round: Callable[[Any, Ops], Any]
    check: Callable[[Any, list, list, Ops], list[str]]
    captures_batches: bool


WORKLOADS = {
    "sweep_wide": Workload(
        lambda seed, out: _build_sweep(SWEEP_WIDE_CALLS, SWEEP_WIDE_GATED, seed, out),
        _sweep_round, _sweep_check, True),
    "certify": Workload(_build_certify, _certify_round, _certify_check, False),
    "trajectories": Workload(_build_trajectories, _trajectory_round, _trajectory_check, False),
}


# ---------------------------------------------------------------- tracing targets


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_batch(counts, args, kwargs, result) -> None:
    counts["batch.steps"] += int(result.iters.max()) if result.iters.size else 0
    counts["batch.row_iters"] += int(result.iters.sum())


def _count_iters(counts, args, kwargs, result) -> None:
    counts["optimizer.iters"] += result.outcome.iters


def _count_bytes(counts, args, kwargs, result) -> None:
    counts["experiments.bytes_written"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _count_samples(counts, args, kwargs, result) -> None:
    counts["oracle.samples"] += _arg(args, kwargs, 2, "n_samples")


def _count_region(counts, args, kwargs, result) -> None:
    counts["verification.points"] += result.n_points
    counts["verification.accepted"] += result.n_points


def _count_control(counts, args, kwargs, result) -> None:
    counts["verification.points"] += result.n_points


def _count_membership(counts, args, kwargs, result) -> None:
    counts["verification.membership_calls"] += 1


def trace_targets() -> list:
    """(module, attribute, span name, counter) for every wrapped public call.

    Each function is wrapped under the name its caller looks up, so the
    package's own calls (cli -> experiments -> run_batch, optimizer -> grad_w)
    pass through the wrappers too.
    """
    targets = [
        (cli, "cli_main", "cli.cli_main", None),
        (experiments, "success_rate_sweep", "experiments.success_rate_sweep", None),
        (experiments, "write_sweep_json", "experiments.write_sweep_json", None),
        (experiments, "trajectory_experiment", "experiments.trajectory_experiment", None),
        (experiments, "write_trajectory_csv", "experiments.write_trajectory_csv", _count_bytes),
        (experiments, "plot_trajectory", "experiments.plot_trajectory", _count_bytes),
        (experiments, "run_batch", "batch.run_batch", _count_batch),
        (experiments, "run", "optimizer.run", _count_iters),
        (optimizer, "run", "optimizer.run", _count_iters),
        (oracle, "mc_estimates", "oracle.mc_estimates", _count_samples),
        (oracle, "fd_grad_check", "oracle.fd_grad_check", None),
        (verification, "check_dissipativity", "verification.check_dissipativity", _count_region),
        (verification, "negative_control_filter_basin",
         "verification.negative_control_filter_basin", _count_control),
        (verification, "region_membership", "verification.region_membership", _count_membership),
        (verification, "monitor_trajectory", "verification.monitor_trajectory", None),
    ]
    for module in (landscape, optimizer, oracle, verification):
        for name in ("population_loss", "grad_a", "grad_w"):
            if hasattr(module, name):
                targets.append((module, name, f"landscape.{name}", None))
    return targets
