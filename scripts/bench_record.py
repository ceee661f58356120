"""Before/after wall times of the test suite, the acceptance criteria, the sweep and the benchmark.

    python3 scripts/bench_record.py --parent HEAD~1 --out BENCH_oracle.json
    python3 scripts/bench_record.py --targets certify,criterion_3,tier1 --out BENCH_x.json

Run it from the repository root. It exports the parent commit with
`git archive` and snapshots the working tree (the files git tracks,
including staged new files, as they are on disk), each into a fresh
temporary directory, so later edits do not leak into the run. It then times
every target (or those `--targets` names) on both trees, REPEATS times each,
in fresh processes of the interpreter that runs this script, alternating
which tree runs first from one repeat to the next:

- the Tier-1 suite, `python -m pytest -q --continue-on-collection-errors`;
- acceptance criteria 1, 3, 4 and 6, each by its pytest node id;
- `shortcut-gd sweep` at its defaults (`python -m shortcut_gd.cli sweep`),
  which writes `sweep.json` into the tree;
- `bench/run.py --workload sweep_wide --trace 0`, `--workload certify` and
  `--workload trajectories`, whose own end-to-end metrics are recorded next
  to the process wall time.
  Each process runs for the benchmark's fixed length, so its
  `change_over_parent` is the ratio of the benchmark's median `wall_s`, not
  of the process wall time.

The record holds the machine (cores, Python, numpy), both commits, every raw
sample and the medians. Each target's `args` follow the interpreter. The
change tree is named by its HEAD commit; when the tracked files differ from
it, the record also holds the SHA-256 of `git diff --binary HEAD`. Times are
raw seconds on the recording machine, not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py::"
PYTEST = ["-m", "pytest", "-q"]
TARGETS = {
    "tier1": [*PYTEST, "--continue-on-collection-errors"],
    "criterion_1": [*PYTEST, ACCEPTANCE + "test_criterion_1_closed_form_certification"],
    "criterion_3": [*PYTEST, ACCEPTANCE + "test_criterion_3_dissipativity_suites"],
    "criterion_4": [*PYTEST, ACCEPTANCE + "test_criterion_4_success_rate_table"],
    "criterion_6": [*PYTEST, ACCEPTANCE + "test_criterion_6_run_monitors"],
    "sweep": ["-m", "shortcut_gd.cli", "sweep"],
    "sweep_wide": ["bench/run.py", "--workload", "sweep_wide", "--trace", "0"],
    "certify": ["bench/run.py", "--workload", "certify", "--trace", "0"],
    "trajectories": ["bench/run.py", "--workload", "trajectories", "--trace", "0"],
}
TREES = ("parent", "change")
REPEATS = 3


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export_parent(rev: str, dest: Path) -> None:
    archive = dest.parent / "parent.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def _snapshot_worktree(dest: Path) -> None:
    names = _git("ls-files", "-z", "--cached").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def _run(tree: Path, args: list[str]) -> dict:
    """One fresh process in the tree: its wall time, exit code and, for the
    benchmark, the metrics of its last output line."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True)
    sample = {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode}
    if args[0] == "bench/run.py" and proc.stdout.strip():
        sample["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample


def _wall(summary: dict) -> float:
    """The benchmark's median wall_s where the tree's samples carry one, else
    the median process wall time."""
    if "median_metrics" in summary:
        return summary["median_metrics"]["wall_s"]
    return summary["median_wall_s"]


def build_record(machine: dict, commits: dict, samples: dict) -> dict:
    """The record: samples[target][tree] is the list of samples of one target on
    one tree; each target gets the medians of its wall times and, where the
    samples carry benchmark results, of each benchmark metric, and the ratio
    of the change's median wall time to the parent's (see _wall)."""
    targets = {}
    for target, by_tree in samples.items():
        entry = {"args": TARGETS.get(target, [])}
        for tree in TREES:
            runs = by_tree[tree]
            summary = {"samples": runs,
                       "median_wall_s": statistics.median(r["wall_s"] for r in runs)}
            results = [r["result"] for r in runs if "result" in r]
            if results:
                summary["median_metrics"] = {
                    name: statistics.median(res["metrics"][name]["value"] for res in results)
                    for name in results[0]["metrics"]
                }
            entry[tree] = summary
        entry["change_over_parent"] = _wall(entry["change"]) / _wall(entry["parent"])
        targets[target] = entry
    return {"machine": machine, "commits": commits, "targets": targets}


def _targets(text: str) -> tuple[str, ...]:
    """Comma-separated names of TARGETS, in TARGETS order; ArgumentTypeError on any other."""
    names = text.split(",")
    unknown = [name for name in names if name not in TARGETS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown target {unknown[0]!r}; expected comma-separated names of: "
            + ", ".join(TARGETS))
    return tuple(target for target in TARGETS if target in names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", type=Path, required=True,
                        help="record to write, e.g. BENCH_<label>.json; never defaulted, "
                             "so a run cannot overwrite a committed record by omission")
    parser.add_argument("--targets", type=_targets, default=tuple(TARGETS),
                        help="comma-separated targets to record (default: every one)")
    args = parser.parse_args(argv)

    machine = {"cores": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "platform": platform.platform()}
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    change = {"base": _git("rev-parse", "HEAD"), "uncommitted_changes": bool(diff)}
    if diff:
        change["diff_sha256"] = hashlib.sha256(diff).hexdigest()
    commits = {"parent": _git("rev-parse", args.parent), "change": change}
    samples = {target: {tree: [] for tree in TREES} for target in args.targets}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {tree: Path(tmp) / tree for tree in TREES}
        for path in trees.values():
            path.mkdir()
        _export_parent(commits["parent"], trees["parent"])
        _snapshot_worktree(trees["change"])
        for rep in range(REPEATS):
            order = TREES if rep % 2 == 0 else TREES[::-1]
            for target in args.targets:
                for tree in order:
                    sample = _run(trees[tree], TARGETS[target])
                    samples[target][tree].append(sample)
                    print(f"[{rep}] {target} {tree}: {sample['wall_s']:.1f} s "
                          f"(exit {sample['exit_code']})", flush=True)
    record = build_record(machine, commits, samples)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for target, entry in record["targets"].items():
        print(f"{target}: parent {entry['parent']['median_wall_s']:.1f} s, "
              f"change {entry['change']['median_wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
