"""Correctness checks on workload outputs.

Every check returns a list of problems; an empty list means it passed. The
checks test properties of the method (counts add up, the warmup schedule
succeeds, gradients vanish at critical points, monitors stay quiet) or
compare against values the benchmark computes itself (the paper's tabulated
rates, errors recomputed from final states, reruns through the single-run
path). None compares against stored output of an earlier run.
"""

from __future__ import annotations

import math

import numpy as np

# Success rates tabulated in the paper (5000 trials per cell).
REFERENCE_RATES = {
    ("resnet_constant", 16): 0.7042,
    ("cnn_baseline", 16): 0.5348,
    ("cnn_baseline", 25): 0.5528,
}
RATE_TOL = 0.07
SSW_MIN_RATE = 0.995
TRAPPING_VARIANTS = ("resnet_constant", "cnn_baseline")

FD_TOL = 1e-5
MC_SE_BOUND = 4.0
MC_MIN_WITHIN = 0.95
CRITICAL_GRAD_TOL = 1e-10

GLOBAL_TOL = 1e-6
PHI_TOL = 0.1
W_ERR_TOL = 0.2
ESCAPE_MAX_ANGLE = 5.0 * math.pi / 12.0
ENVELOPE_TOL = 1e-9

CSV_HEADER = "t,phi,a_dot_astar,w_err_sq,a_err_sq,loss"
CONVERGED, TRAPPED, UNDECIDED = "converged_global", "trapped_spurious", "undecided"


def sweep_cells(results: list[dict], trials: int, gated: frozenset) -> list[str]:
    """Per-cell properties of a sweep report's `results` block.

    gated holds the (variant, k) cells held to the paper's table: a warmup
    cell must succeed on SSW_MIN_RATE of its trials (the table has 1.0), any
    other within RATE_TOL of the tabulated rate.
    """
    problems = []
    for cell in results:
        label = f"{cell['variant']}/k={cell['k']}"
        n = cell["n_trials"]
        if n != trials:
            problems.append(f"{label}: report has {n} trials, the sweep asked for {trials}")
        total = cell["success_count"] + cell["spurious_count"] + cell["undecided_count"]
        if total != n:
            problems.append(f"{label}: counts add up to {total}, not {n}")
        rate = cell["success_count"] / n
        if cell["variant"] in TRAPPING_VARIANTS and cell["spurious_count"] == 0:
            problems.append(f"{label}: no trial trapped at the spurious optimum")
        key = (cell["variant"], cell["k"])
        if key not in gated:
            continue
        if cell["variant"] == "resnet_ssw":
            if rate < SSW_MIN_RATE:
                problems.append(f"{label}: warmup success rate {rate:.4f} < {SSW_MIN_RATE}")
        elif abs(rate - REFERENCE_RATES[key]) > RATE_TOL:
            problems.append(
                f"{label}: success rate {rate:.4f} is more than {RATE_TOL} from the "
                f"paper's {REFERENCE_RATES[key]}"
            )
    return problems


def trial_kinds(cell: dict, kinds: list) -> list[str]:
    """The per-trial outcome kinds found for a cell must reproduce its counts.

    kinds[i] is the kind the sweep engine gave trial i, or None when no engine
    row matched the trial's init rebuilt with the public sampler.
    """
    label = f"{cell['variant']}/k={cell['k']}"
    problems = []
    missing = sum(kind is None for kind in kinds)
    if missing:
        problems.append(f"{label}: {missing} trials have no engine row with their public-sampler init")
    for kind, key in ((CONVERGED, "success_count"), (TRAPPED, "spurious_count"),
                      (UNDECIDED, "undecided_count")):
        found = sum(k == kind for k in kinds)
        if found != cell[key]:
            problems.append(f"{label}: engine rows give {found} {kind}, the report {cell[key]}")
    return problems


def same_kind(label: str, sweep_kind: str, rerun_kind: str | None) -> list[str]:
    if rerun_kind != sweep_kind:
        return [f"{label}: the sweep gave {sweep_kind}, the single-run rerun {rerun_kind}"]
    return []


def same_output(label: str, first, other) -> list[str]:
    """Rounds of one run use the same inputs, so their outputs must be identical."""
    if first != other:
        return [f"{label}: output differs from the first round's"]
    return []


def fd_errors(label: str, rel_error_a: float, rel_error_w: float) -> list[str]:
    worst = max(rel_error_a, rel_error_w)
    if not worst <= FD_TOL:
        return [f"{label}: finite-difference relative error {worst:.3e} > {FD_TOL}"]
    return []


def mc_within(comparisons: list[tuple]) -> list[str]:
    """Pooled over all (value, std_error, exact) triples, enough components within 4 SE."""
    hits = total = 0
    for value, std_error, exact in comparisons:
        err = np.abs(np.atleast_1d(value) - np.atleast_1d(exact))
        hits += int((err <= MC_SE_BOUND * np.atleast_1d(std_error) + 1e-12).sum())
        total += err.size
    if total == 0 or hits < MC_MIN_WITHIN * total:
        return [f"Monte-Carlo: {hits}/{total} components within {MC_SE_BOUND} standard "
                f"errors of the closed forms (need {MC_MIN_WITHIN})"]
    return []


def critical_gradients(label: str, norms: list[float]) -> list[str]:
    worst = max(norms)
    if not worst <= CRITICAL_GRAD_TOL:
        return [f"{label}: gradient norm {worst:.3e} at a critical point > {CRITICAL_GRAD_TOL}"]
    return []


def region_report(label: str, passed: bool, violations: int) -> list[str]:
    if not passed or violations:
        return [f"{label}: dissipativity report failed with {violations} violating points"]
    return []


def negative_control(violations: int) -> list[str]:
    if violations == 0:
        return ["negative control: no violation found outside the filter basin"]
    return []


def errors_from_state(w, a, teacher) -> dict[str, float]:
    """Diagnostics of one state, computed here rather than by the package."""
    v = teacher.shortcut + w
    v = v / np.linalg.norm(v)
    phi = 2.0 * math.atan2(np.linalg.norm(v - teacher.v_star), np.linalg.norm(v + teacher.v_star))
    return {
        "phi": phi,
        "a_dot_astar": float(a @ teacher.a_star),
        "w_err_sq": float(np.sum((w - teacher.w_star) ** 2)),
        "a_err_sq": float(np.sum((a - teacher.a_star) ** 2)),
    }


def ssw_final(kind: str, w, a, teacher) -> list[str]:
    errors = errors_from_state(w, a, teacher)
    problems = [] if kind == CONVERGED else [f"ssw: outcome {kind}, expected {CONVERGED}"]
    err = errors["w_err_sq"] + errors["a_err_sq"]
    if not err <= GLOBAL_TOL:
        problems.append(f"ssw: squared parameter error {err:.3e} > {GLOBAL_TOL}")
    return problems


def constant_final(kind: str, w, a, teacher) -> list[str]:
    errors = errors_from_state(w, a, teacher)
    problems = [] if kind == TRAPPED else [f"constant: outcome {kind}, expected {TRAPPED}"]
    if not errors["phi"] >= math.pi - PHI_TOL:
        problems.append(f"constant: final angle {errors['phi']:.4f} < pi - {PHI_TOL}")
    if not abs(errors["w_err_sq"] - 4.0) <= W_ERR_TOL:
        problems.append(f"constant: ||w - w*||^2 = {errors['w_err_sq']:.4f}, not within {W_ERR_TOL} of 4")
    return problems


def csv_last_row(label: str, text: str, t_final: int, w, a, teacher, loss: float) -> list[str]:
    """Fixed header, and the last row is the final iterate."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{label}: CSV header is {lines[0] if lines else '(empty)'!r}"]
    if len(lines) < 2:
        return [f"{label}: CSV has no rows"]
    row = lines[-1].split(",")
    expected = errors_from_state(w, a, teacher)
    problems = []
    if int(row[0]) != t_final:
        problems.append(f"{label}: last CSV row is t={row[0]}, the run ended at t={t_final}")
    values = [float(x) for x in row[1:]]
    for name, got in zip(("phi", "a_dot_astar", "w_err_sq", "a_err_sq"), values):
        want = expected[name]
        # phi near pi comes from arccos in the package, good to about 1e-8 there
        atol = 1e-7 if name == "phi" else 1e-14
        if not abs(got - want) <= atol + 1e-9 * abs(want):
            problems.append(f"{label}: last CSV row has {name}={got!r}, final iterate {want!r}")
    if not values[4] == loss:
        problems.append(f"{label}: last CSV row has loss={values[4]!r}, final iterate {loss!r}")
    return problems


def monitored_run(label: str, kind: str, phi, a_dot_astar, sum_a, violations: list,
                  teacher) -> list[str]:
    """A seeded warmup run converges, enters the basin and keeps its invariants."""
    problems = [] if kind == CONVERGED else [f"{label}: outcome {kind}, expected {CONVERGED}"]
    inside = (
        (phi <= ESCAPE_MAX_ANGLE + ENVELOPE_TOL)
        & (a_dot_astar >= teacher.alignment_lower - ENVELOPE_TOL)
        & (a_dot_astar <= teacher.alignment_upper + ENVELOPE_TOL)
    )
    if not inside.any():
        problems.append(f"{label}: never entered the basin")
    s = teacher.sum_a_star
    drift = s * sum_a - s * s
    breaches = int(((drift > ENVELOPE_TOL) | (drift < -3.0 * s * s - ENVELOPE_TOL)).sum())
    if breaches:
        problems.append(f"{label}: running-sum envelope broken at {breaches} recorded steps")
    if violations:
        first = violations[0]
        problems.append(f"{label}: {len(violations)} monitor violations, first {first.monitor} "
                        f"at t={first.t}")
    return problems
