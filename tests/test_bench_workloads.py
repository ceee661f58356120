"""One checked round of each benchmark workload, through the benchmark's own code.

A change that renames a keyword the benchmark passes, or moves an output its
checks read, fails here instead of only in a benchmark run.
"""

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sweep_wide", "certify", "trajectories"])
def test_one_round_passes_the_benchmark_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(0, tmp_path)
    ops, captured = workloads.Ops(), []
    capture = workloads.capture_batches(captured) if workload.captures_batches else contextlib.nullcontext()
    with capture:
        rounds = [workload.run_round(inputs, ops)]
    assert workload.check(inputs, rounds, captured, ops) == []
    assert ops.failed == 0
    if workload.captures_batches:
        # the sweep runs one run_batch call per (variant, k) cell
        assert len(captured) == sum(len(variants) * len(ks) for variants, ks, _ in inputs.calls)


def test_every_traced_call_resolves_to_a_callable():
    # Runs with --trace 1 wrap each of these; the untraced round above would not notice
    # one that the package no longer has.
    for module, attribute, span, _ in workloads.trace_targets():
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)
