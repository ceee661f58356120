"""Spans and counts recorded around calls into the package's public functions.

A traced round replaces module attributes (the names the callers look up at
call time) with wrappers that record one span per call: round, parent span,
name, start and end. Counts of work (rows, steps, samples, points, bytes)
are taken from the arguments and results at the same boundary. Everything
stays in memory until `write` is called once at the end of the run, and
`layer_metrics` derives the per-layer figures from it.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# counter(counts, args, kwargs, result) adds the work a call did to counts.
CountFn = Callable[[Counter, tuple, dict, Any], None]


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [round, parent id or -1, name, start, end]
    counts: dict = field(default_factory=dict)  # round -> Counter
    round: int = -1
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, counter: CountFn | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([self.round, stack[-1] if stack else -1, name, 0.0, 0.0])
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][3] = start
                spans[sid][4] = end
            if counter is not None:
                counter(self.counts.setdefault(self.round, Counter()), args, kwargs, result)
            return result

        return traced

    @contextmanager
    def traced_round(self, index: int, targets: list):
        """Install wrappers on every (module, attr, name, counter) target for one round."""
        self.round = index
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(targets, originals):
                setattr(mod, attr, self.wrap(name, fn, counter))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def write(self, path: str, meta: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            **meta,
            "span_fields": ["id", "round", "parent", "name", "start_s", "end_s"],
            "names": names,
            "spans": [[i, r, p, index[n], s, e] for i, (r, p, n, s, e) in enumerate(self.spans)],
            "counts": {str(r): dict(sorted(c.items())) for r, c in sorted(self.counts.items())},
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _busy(spans: list, by_id: dict, names: tuple[str, ...]) -> tuple[float, int]:
    """Total time and calls of spans named in names, nested repeats counted once."""
    total, calls = 0.0, 0
    for sid, (_, parent, name, start, end) in spans:
        if name not in names:
            continue
        nested = False
        while parent >= 0:
            if by_id[parent][2] in names:
                nested = True
                break
            parent = by_id[parent][1]
        if not nested:
            total += end - start
            calls += 1
    return total, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, index: int) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    spans = [(sid, s) for sid, s in enumerate(tracer.spans) if s[0] == index]
    by_id = {sid: s for sid, s in spans}
    counts = tracer.counts.get(index, Counter())

    def busy(*names: str) -> tuple[float, int]:
        return _busy(spans, by_id, names)

    sweep_s, _ = busy("experiments.success_rate_sweep", "experiments.write_sweep_json")
    batch_s, batch_calls = busy("batch.run_batch")
    cli_s, _ = busy("cli.cli_main")
    write_s, _ = busy("experiments.write_trajectory_csv", "experiments.plot_trajectory")
    opt_s, opt_calls = busy("optimizer.run")
    land_s, land_calls = busy("landscape.population_loss", "landscape.grad_a", "landscape.grad_w")
    mc_s, _ = busy("oracle.mc_estimates")
    fd_s, _ = busy("oracle.fd_grad_check")
    region_s, _ = busy("verification.check_dissipativity",
                       "verification.negative_control_filter_basin")
    monitor_s, _ = busy("verification.monitor_trajectory")
    steps, row_iters = counts["batch.steps"], counts["batch.row_iters"]
    return {
        "cli.self_s": cli_s - sweep_s,
        "experiments.sweep_s": sweep_s,
        "experiments.sweep_self_s": sweep_s - batch_s,
        "experiments.chunks": batch_calls,
        "experiments.write_s": write_s,
        "experiments.bytes_written": counts["experiments.bytes_written"],
        "batch.busy_s": batch_s,
        "batch.calls": batch_calls,
        "batch.steps": steps,
        "batch.row_iters": row_iters,
        "batch.rows_per_step": _ratio(row_iters, steps),
        "batch.us_per_step": _ratio(batch_s * 1e6, steps),
        "batch.ns_per_row_iter": _ratio(batch_s * 1e9, row_iters),
        "optimizer.busy_s": opt_s,
        "optimizer.calls": opt_calls,
        "optimizer.iters": counts["optimizer.iters"],
        "optimizer.us_per_iter": _ratio(opt_s * 1e6, counts["optimizer.iters"]),
        "landscape.calls": land_calls,
        "landscape.busy_s": land_s,
        "landscape.us_per_call": _ratio(land_s * 1e6, land_calls),
        "oracle.mc_s": mc_s,
        "oracle.samples": counts["oracle.samples"],
        "oracle.samples_per_s": _ratio(counts["oracle.samples"], mc_s),
        "oracle.fd_s": fd_s,
        "verification.region_s": region_s,
        "verification.points": counts["verification.points"],
        "verification.points_per_s": _ratio(counts["verification.points"], region_s),
        "verification.accept_ratio": _ratio(counts["verification.accepted"],
                                            counts["verification.membership_calls"]),
        "verification.monitor_s": monitor_s,
    }
