import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_build_record_medians_and_keys():
    def bench(wall, metric):
        # the last line of bench/run.py's output
        result = {"correct": True, "metrics": {"wall_s": {"value": metric, "unit": "s"}}}
        return {"wall_s": wall, "exit_code": 0, "result": result}

    samples = {
        "tier1": {"parent": [{"wall_s": w, "exit_code": 0} for w in (3.0, 1.0, 2.0)],
                  "change": [{"wall_s": w, "exit_code": 0} for w in (1.0, 0.5, 4.0, 0.7)]},
        "certify": {"parent": [bench(40.0, 1.3), bench(41.0, 1.2), bench(39.0, 1.4)],
                    "change": [bench(38.0, 0.9), bench(37.0, 0.8), bench(36.0, 0.7)]},
    }
    machine = {"cores": 2, "python": "3.11", "numpy": "2.4", "platform": "x"}
    commits = {"parent": "a" * 40, "change": {"base": "a" * 40, "uncommitted_changes": True}}
    record = bench_record.build_record(machine, commits, samples)

    assert record["machine"] == machine and record["commits"] == commits
    tier1, certify = record["targets"]["tier1"], record["targets"]["certify"]
    assert tier1["parent"]["median_wall_s"] == 2.0
    assert tier1["change"]["median_wall_s"] == 0.85
    assert tier1["change_over_parent"] == pytest.approx(0.425)
    assert tier1["parent"]["samples"] == samples["tier1"]["parent"]
    assert "median_metrics" not in tier1["parent"]
    assert certify["parent"]["median_metrics"] == {"wall_s": 1.3}
    assert certify["change"]["median_metrics"] == {"wall_s": 0.8}
    assert certify["change_over_parent"] == pytest.approx(0.8 / 1.3)
    assert certify["args"] == bench_record.TARGETS["certify"]
    assert set(bench_record.TARGETS) == {"tier1", "criterion_1", "criterion_3", "criterion_4",
                                         "criterion_6", "sweep", "sweep_wide", "certify",
                                         "trajectories"}


def test_out_is_required_before_any_tree_is_exported(monkeypatch):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("a subprocess ran before the arguments were checked")

    monkeypatch.setattr(bench_record.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as exc:
        bench_record.main([])
    assert exc.value.code == 2


def test_targets_picks_the_named_targets_only(monkeypatch, tmp_path):
    ran = []

    def fake_run(tree, args):
        ran.append((tree.name, args))
        return {"wall_s": 1.0, "exit_code": 0}

    class Diff:
        stdout = b""

    monkeypatch.setattr(bench_record, "_run", fake_run)
    monkeypatch.setattr(bench_record, "_git", lambda *args: "a" * 40)
    monkeypatch.setattr(bench_record, "_export_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_record, "_snapshot_worktree", lambda dest: None)
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs: Diff)
    out = tmp_path / "r.json"
    assert bench_record.main(["--targets", "tier1,certify,criterion_3", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    want = ["tier1", "criterion_3", "certify"]
    assert list(record["targets"]) == want
    assert sorted(args for _, args in ran) == sorted(
        bench_record.TARGETS[t] for t in want for _ in range(2 * bench_record.REPEATS))


@pytest.mark.parametrize("targets", ["certify,sweeps", "", "tier1,,certify"])
def test_an_unknown_target_exits_2_with_one_error_line_before_any_tree_is_exported(
        monkeypatch, capsys, tmp_path, targets):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("a subprocess ran before the arguments were checked")

    monkeypatch.setattr(bench_record.subprocess, "run", no_subprocess)
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--targets", targets, "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unknown target" in errors[0]
