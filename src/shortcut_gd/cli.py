"""Command-line interface.

Subcommands: run (single trajectory), sweep (success-rate table), verify
(dissipativity reports), check-grad (oracle certification of the closed
forms), show-teacher. An argument that begins with @ names an argument file,
one argument per line (such as --k=16,25): argparse reads it through the
flags' own parser, so it is read exactly as strictly as the flags, and a later
argument overrides an earlier one.
A run or verify option that the path chosen by the other options never
reads is a usage error, whether it comes from a flag or a file.

Exit codes: 0 success, 1 configuration/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import experiments
from .fileio import atomic_write
from .landscape import (
    EscapeRegion, FilterBasinRegion, RefinementRegion, grad_a, grad_w, population_loss,
)
from .model import StudentState, random_state, random_teacher
from .optimizer import DEFAULT_MAX_ITERS, INIT_LAWS, draw_starts, run
from .oracle import MAX_SAMPLES, fd_grad_check, mc_estimates
from .verification import InfeasibleRegionError, check_dissipativity, negative_control_filter_basin


# The largest relative finite-difference error check-grad accepts; the acceptance
# suite certifies the closed forms to the same bound, at the same step.
FD_TOL = 1e-5
FD_STEP = 1e-6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.replace(",", " ").split()))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


@dataclass(frozen=True)
class _Opt:
    name: str
    parse: Callable[[str], Any]
    default: Any
    help: str
    choices: tuple[Any, ...] | None = None


_TABULATED_K = ", ".join(map(str, experiments.SUPPORTED_K))

# --variant of `run` -> the sweep variant whose schedule and start law it shares
_RUN_VARIANTS = {"ssw": "resnet_ssw", "constant": "resnet_constant", "cnn": "cnn_baseline"}

_OPTIONS: dict[str, tuple[_Opt, ...]] = {
    "run": (
        _Opt("variant", str, "ssw", "schedule variant", tuple(_RUN_VARIANTS)),
        _Opt("k", int, 25, "number of patches"),
        _Opt("p", int, 8, "patch dimension"),
        _Opt("init", str, "fixed", "start vector law", ("fixed", *INIT_LAWS)),
        _Opt("seed", int, 0, "seed for ball/gaussian/cnn initialization"),
        _Opt("max-iters", int, DEFAULT_MAX_ITERS, "iteration budget"),
        _Opt("record-stride", int, 1, "record every N iterations"),
        _Opt("eta", float, 0.1, "step size for the cnn variant"),
        _Opt("out-dir", str, ".", "directory for trajectory CSV/SVG"),
    ),
    "sweep": (
        _Opt("k", _int_list, experiments.SUPPORTED_K, "k values, comma separated"),
        _Opt("trials", int, 500, "trials per (variant, k) cell"),
        _Opt("base-seed", int, 0, "per-trial seeds are base-seed + trial index"),
        _Opt("variants", _str_list, experiments.VARIANTS, "variants to run"),
        _Opt("max-iters", int, DEFAULT_MAX_ITERS, "iteration budget per trial"),
        _Opt("cnn-eta", float, 0.1, "step size for cnn_baseline"),
        # kept for callers that pass `--workers 1`; any other value is refused
        _Opt("workers", int, 1, "must be 1: the sweep runs in one process"),
        _Opt("out", str, "sweep.json", "output JSON path"),
    ),
    "verify": (
        _Opt("region", str, "filter-basin", "region to certify",
             ("escape", "filter-basin", "refinement")),
        _Opt("m", float, 0.2, "min alignment for filter-basin/refinement"),
        _Opt("max-alignment", float, None,
             "max alignment for refinement (default: the teacher's alignment_upper)"),
        _Opt("delta", float, 0.1, "filter error bound for refinement"),
        _Opt("k", int, 5, "teacher patches"),
        _Opt("p", int, 4, "teacher patch dimension"),
        _Opt("teacher-seed", int, 0, "random-teacher seed"),
        _Opt("tabulated", int, 0,
             f"1 = use the tabulated teacher; needs --k, one of {_TABULATED_K}", (0, 1)),
        _Opt("points", int, 2000, "sample size"),
        _Opt("seed", int, 0, "sampling seed"),
        _Opt("negative-control", int, 0, "1 = sample outside the filter basin", (0, 1)),
        _Opt("out", str, "", "optional JSON report path"),
    ),
    "check-grad": (
        _Opt("samples", int, 200_000, "Monte-Carlo samples per state"),
        _Opt("states", int, 9, "number of random states"),
        _Opt("seed", int, 0, "base seed"),
    ),
    "show-teacher": (
        _Opt("k", int, 25, "number of patches"),
        _Opt("p", int, 8, "patch dimension"),
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="shortcut-gd", description=__doc__, fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command")
    for command, opts in _OPTIONS.items():
        p = sub.add_parser(command)
        for opt in opts:
            p.add_argument(f"--{opt.name}", type=opt.parse, choices=opt.choices, help=opt.help)
    return parser


def _merge_options(command: str, args: argparse.Namespace) -> tuple[dict[str, Any], set[str]]:
    """Option values (the parsed argument, else the default) and the names given."""
    merged = {opt.name: getattr(args, opt.name.replace("-", "_")) for opt in _OPTIONS[command]}
    given = {name for name, value in merged.items() if value is not None}
    for opt in _OPTIONS[command]:
        if opt.name not in given:
            merged[opt.name] = opt.default
    return merged, given


def _unread_options(command: str, o: dict[str, Any]) -> tuple[tuple[str, ...], str]:
    """The options of a run or verify that the path chosen by its other options never
    reads, and the choices that pick that path."""
    if command == "run":
        path = f"--variant {o['variant']}, --init {o['init']}"
        if o["variant"] == "cnn":
            return ("init",), path
        return ("eta", "p", "seed") if o["init"] == "fixed" else ("eta",), path
    if command == "verify":
        path = f"--tabulated {o['tabulated']}, --negative-control {o['negative-control']}"
        unread = ("teacher-seed",) if o["tabulated"] else ()
        if o["negative-control"]:
            return unread + ("region", "max-alignment", "delta"), path
        path += f", --region {o['region']}"
        if o["region"] == "escape":
            return unread + ("m", "max-alignment", "delta"), path
        if o["region"] == "filter-basin":
            return unread + ("max-alignment", "delta"), path
        return unread, path
    return (), ""


def _cmd_run(o: dict[str, Any]) -> int:
    name, k, budget = o["variant"], o["k"], o["max-iters"]
    if name != "cnn" and o["init"] == "fixed":
        traj, csv_path, svg_path = experiments.trajectory_experiment(
            name, o["out-dir"], k=k, record_stride=o["record-stride"], max_iters=budget,
        )
    else:
        variant = _RUN_VARIANTS[name]
        teacher = experiments.teacher_for_k(k, o["p"])
        # cnn never reads --init: it draws from its sweep law
        law = experiments.DEFAULT_INIT_LAWS[variant] if o["init"] == "fixed" else o["init"]
        v0, a0 = draw_starts(teacher, (o["seed"],), law, plain_filter=name == "cnn")
        traj = run(StudentState(w=v0[0] - teacher.shortcut, a=a0[0]), teacher,
                   experiments.schedule_for(variant, k, o["eta"]), max_iters=budget,
                   record_stride=o["record-stride"], stop_on_spurious=True,
                   basin_success=name == "cnn")
        csv_path, svg_path = experiments.write_trajectory(traj, o["out-dir"], name,
                                                          f"{name}, k={k}")
    print(f"outcome: {traj.outcome.kind} after {traj.outcome.iters} iterations")
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_sweep(o: dict[str, Any]) -> int:
    if o["workers"] != 1:
        raise UsageError(
            f"--workers {o['workers']}: only 1 is accepted; the sweep runs in one process"
        )
    config = experiments.SweepConfig(
        k_values=tuple(o["k"]),
        n_trials=o["trials"],
        base_seed=o["base-seed"],
        variants=tuple(o["variants"]),
        max_iters=o["max-iters"],
        cnn_eta=o["cnn-eta"],
    )
    report = experiments.success_rate_sweep(config)
    experiments.write_sweep_json(report, o["out"])
    for cell in report.cells:
        print(
            f"{cell.variant:16s} k={cell.k:3d} success={cell.success_rate:.4f} "
            f"({cell.success_count}/{cell.n_trials}, spurious={cell.spurious_count}, "
            f"undecided={cell.undecided_count})"
        )
    print(f"wrote {o['out']}")
    return 0


def _cmd_verify(o: dict[str, Any]) -> int:
    if o["tabulated"]:
        if o["k"] not in experiments.SUPPORTED_K:
            raise UsageError(f"--tabulated 1 needs --k, one of {_TABULATED_K}; got --k {o['k']}")
        teacher = experiments.teacher_for_k(o["k"], o["p"])
    else:
        teacher = random_teacher(o["k"], o["p"], o["teacher-seed"])
    name = o["region"]
    if o["negative-control"]:
        report = negative_control_filter_basin(teacher, o["m"], o["points"], o["seed"])
        found = len(report.violating_points) > 0
        print(
            f"negative control: min_slack={report.min_slack:.6g}, "
            f"violations={len(report.violating_points)} (expected > 0)"
        )
        _maybe_write_report(report, o["out"])
        return 0 if found else 2
    if name == "escape":
        region = EscapeRegion(teacher=teacher)
    elif name == "filter-basin":
        region = FilterBasinRegion(teacher=teacher, min_alignment=o["m"])
    else:
        upper = o["max-alignment"]  # None: not given
        region = RefinementRegion(
            teacher=teacher, min_alignment=o["m"], filter_err_bound=o["delta"],
            max_alignment=teacher.alignment_upper if upper is None else upper,
        )
    try:
        report = check_dissipativity(region, o["points"], o["seed"])
    except InfeasibleRegionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"{name}: n={report.n_points} min_slack={report.min_slack:.6g} "
        f"constant={report.region.constant:.6g} "
        f"violations={len(report.violating_points)} -> "
        f"{'pass' if report.passed else 'FAIL'}"
    )
    _maybe_write_report(report, o["out"])
    return 0 if report.passed else 2


def _maybe_write_report(report, path: str) -> None:
    if path:
        with atomic_write(path) as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


def _cmd_check_grad(o: dict[str, Any]) -> int:
    combos = [(k, p) for k in (2, 5, 25) for p in (2, 4, 8)]
    n_states = o["states"]
    if n_states < 1:
        raise UsageError(f"--states {n_states}: at least one state must be checked")
    if n_states * o["samples"] > MAX_SAMPLES:
        raise UsageError(f"--states {n_states} x --samples {o['samples']} exceeds "
                         f"{MAX_SAMPLES} Monte-Carlo samples in all")
    checks = total = 0
    fd_worst = 0.0
    failed = False
    for i in range(n_states):
        k, p = combos[i % len(combos)]
        teacher = random_teacher(k, p, o["seed"] + 1000 + i, a_norm=1.0 + (i % 3))
        state = random_state(teacher, o["seed"] + 2000 + i)
        # first, so that its check of --samples fires before any other work
        loss_est, gw_est, ga_est = mc_estimates(state, teacher, o["samples"], o["seed"] + 3000 + i)
        fd = fd_grad_check(state, teacher, step=FD_STEP)
        fd_worst = max(fd_worst, fd.max_rel_error_a, fd.max_rel_error_w)
        fd_ok = max(fd.max_rel_error_a, fd.max_rel_error_w) <= FD_TOL
        within = 0
        comps = 0
        for est, exact in (
            (loss_est, population_loss(state, teacher)),
            (gw_est, grad_w(state, teacher)),
            (ga_est, grad_a(state, teacher)),
        ):
            err = np.abs(np.atleast_1d(est.value) - np.atleast_1d(exact))
            bound = 4.0 * np.atleast_1d(est.std_error)
            within += int((err <= bound + 1e-12).sum())
            comps += err.size
        checks += within
        total += comps
        status = "ok" if fd_ok else "FD-FAIL"
        print(
            f"state {i}: k={k} p={p} fd_a={fd.max_rel_error_a:.2e} "
            f"fd_w={fd.max_rel_error_w:.2e} fd_vs_largest={fd.max_error_vs_largest:.2e} "
            f"mc {within}/{comps} within 4se [{status}]"
        )
        if not fd_ok:
            failed = True
    frac = checks / total
    print(f"fd worst={fd_worst:.3e} (tol {FD_TOL:g}); mc pooled {checks}/{total}"
          f" = {frac:.4f} (need >= 0.95)")
    if frac < 0.95:
        failed = True
    return 2 if failed else 0


def _cmd_show_teacher(o: dict[str, Any]) -> int:
    teacher = experiments.teacher_for_k(o["k"], o["p"])
    meta = experiments.teacher_metadata(teacher)
    counts = {
        "+1": int((teacher.a_star == 1.0).sum()),
        "-1": int((teacher.a_star == -1.0).sum()),
        "0": int((teacher.a_star == 0.0).sum()),
    }
    print(f"teacher k={teacher.k} p={teacher.p}")
    print(f"  a_star pattern: {counts['+1']} ones, {counts['-1']} minus-ones, {counts['0']} zeros")
    for key in (
        "sum_a_star", "a_star_norm_sq", "quarter_a_star_norm_sq", "alignment_lower",
        "alignment_upper", "strict_prior", "shortcut_vstar_angle_per_pi",
        "nominal_design_angle_per_pi",
    ):
        print(f"  {key}: {meta[key]}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "check-grad": _cmd_check_grad,
    "show-teacher": _cmd_show_teacher,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except RecursionError:  # an argument file that reads itself, directly or not
            raise UsageError("argument files nest too deep: does one include itself?") from None
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        options, given = _merge_options(args.command, args)
        unread, path = _unread_options(args.command, options)
        unread = [name for name in unread if name in given]
        if unread:
            raise UsageError(f"--{unread[0]} is not used by this {args.command} ({path})")
        out = options.get("out")  # checked here, before the work writes to it
        if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise UsageError(f"--out {out} is not a file in an existing directory")
        return _COMMANDS[args.command](options)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
