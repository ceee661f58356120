"""Benchmark of the shortcut-gd package: one workload per invocation.

    python3 bench/run.py --workload sweep_wide --seed 0 --seconds 35 --trace 0

Run it from the repository root; it imports the package from ./src. The
timed phase repeats whole rounds of the workload and starts another round
only while the last one still fits in --seconds, so a run always holds at
least one round. The checks run once, after the timed phase. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s, cpu_s,
peak_rss_mb). wall_s and cpu_s are the mean per round over the whole timed
phase; they and setup_s are scaled to a reference host speed that
hostspeed.py measures, and standard error also shows them unscaled. With
--trace 1 the run alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, unscaled, and writes the spans to
.bench_runs/trace_<workload>.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
WORKLOAD_NAMES = ("sweep_wide", "certify", "trajectories")
# One BLAS thread: with workers=1 the process then keeps to one core.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up runs once here and this many more times in fresh interpreters.
SETUP_PROBES = 6


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload: str, seed: int, out_dir: Path):
    """Import the package and build the workload's inputs; returns (module, inputs, seconds)."""
    start = time.perf_counter()
    import workloads

    inputs = workloads.WORKLOADS[workload].build(seed, out_dir)
    return workloads, inputs, time.perf_counter() - start


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def setup_samples(args: argparse.Namespace, seconds_here: float, hostspeed) -> list[tuple[float, float]]:
    """(set-up time, reference time) of the set-up done here and of SETUP_PROBES fresh ones.

    The reference is timed here, in the warm benchmark process, right before
    and after each probe (after only, for the set-up done here).
    """
    samples = [(seconds_here, hostspeed.reference_seconds())]
    for _ in range(SETUP_PROBES):
        before = hostspeed.reference_seconds()
        seconds = probe_setup(args)
        samples.append((seconds, (before + hostspeed.reference_seconds()) / 2.0))
    return samples


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_phase(wl_module, workload, inputs, ops, args, tracer: tracing.Tracer, captured: list,
                sampler):
    """Whole rounds while the last one still fits in args.seconds.

    Returns the rounds' outputs, the untraced rounds' wall and CPU times, the
    traced rounds' indices and wall times, and the peak RSS after round 0.
    The time of the host-speed bursts that ran inside a round is taken out of
    that round's times.
    """
    targets = wl_module.trace_targets() if args.trace else []
    rounds, walls, cpus, traced, traced_walls = [], [], [], [], []
    phase_start = time.perf_counter()
    while True:
        index = len(rounds)
        is_traced = bool(args.trace) and index % 2 == 1
        gc.collect()
        with ExitStack() as stack:
            if index == 0 and workload.captures_batches:
                stack.enter_context(wl_module.capture_batches(captured))
            run_round = workload.run_round
            if is_traced:
                stack.enter_context(tracer.traced_round(index, targets))
                run_round = tracer.wrap("round", run_round)
            c0, w0 = cpu_seconds(), time.perf_counter()
            rounds.append(run_round(inputs, ops))
            w1, c1 = time.perf_counter(), cpu_seconds()
        if is_traced:
            traced.append(index)
            traced_walls.append(w1 - w0)
        else:
            burst_wall, burst_cpu = sampler.within(w0, w1) if sampler else (0.0, 0.0)
            walls.append(w1 - w0 - burst_wall)
            cpus.append(c1 - c0 - burst_cpu)
        if index == 0:
            # later rounds run while the first round's output is kept for the checks
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # a traced run needs one untraced and one traced round at least
        owed = args.trace and not traced
        if not owed and (w1 - phase_start) + (w1 - w0) > args.seconds:
            return rounds, walls, cpus, traced, traced_walls, peak_rss_mb


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "shortcut_gd" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'shortcut_gd'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    out_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if args.setup_probe:
        print(f"{set_up(args.workload, args.seed, out_dir)[2]!r}")
        return 0

    wl_module, inputs, setup_here = set_up(args.workload, args.seed, out_dir)
    # imported only now: it loads numpy, whose import belongs to the set-up
    import hostspeed

    setups = setup_samples(args, setup_here, hostspeed)

    workload = wl_module.WORKLOADS[args.workload]
    ops, tracer, captured = wl_module.Ops(), tracing.Tracer(), []
    # traced runs report raw times: their per-layer spans have no bound
    sampler = None if args.trace else hostspeed.Sampler()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with sampler.sampling() if sampler else nullcontext():
            rounds, walls, cpus, traced, traced_walls, peak_rss_mb = timed_phase(
                wl_module, workload, inputs, ops, args, tracer, captured, sampler)
        problems = workload.check(inputs, rounds, captured, ops)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        per_round = [tracing.layer_metrics(tracer, i) for i in traced]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        tracer.write(str(RUNS_DIR / f"trace_{args.workload}.json"),
                     {"workload": args.workload, "seed": args.seed, "traced_rounds": traced})
    else:
        values = {
            "setup_s": statistics.median(s * hostspeed.NOMINAL_S / r for s, r in setups),
            "wall_s": statistics.fmean(walls) * sampler.wall_scale(),
            "cpu_s": statistics.fmean(cpus) * sampler.cpu_scale(),
            "peak_rss_mb": peak_rss_mb,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"{args.workload}: {len(rounds)} rounds, untraced walls {[round(w, 3) for w in walls]}, "
          f"unscaled setup samples {[round(s, 4) for s, _ in setups]}, "
          f"their reference bursts {[round(r, 4) for _, r in setups]}", file=sys.stderr)
    if sampler:
        print(f"{args.workload}: unscaled wall_s {statistics.fmean(walls):.6g} s, cpu_s "
              f"{statistics.fmean(cpus):.6g} s; {len(sampler.bursts)} bursts, wall scale "
              f"{sampler.wall_scale():.4f}, cpu scale {sampler.cpu_scale():.4f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload}/{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
