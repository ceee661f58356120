import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shortcut_gd import cli, experiments, optimizer
from shortcut_gd.cli import cli_main
from shortcut_gd.experiments import teacher_for_k, write_trajectory_csv
from shortcut_gd.model import MAX_DIM
from shortcut_gd.optimizer import cnn_run, run, sample_cnn_init, sample_init
from shortcut_gd.schedules import WarmupSchedule


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["sweep", "--bogus", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits_one():
    assert cli_main([]) == 1


def test_show_teacher(capsys):
    assert cli_main(["show-teacher", "--k", "25"]) == 0
    out = capsys.readouterr().out
    assert "14 ones, 11 minus-ones, 0 zeros" in out
    assert "sum_a_star: 3.0" in out


def test_show_teacher_bad_k(capsys):
    assert cli_main(["show-teacher", "--k", "30"]) == 1


def test_sweep_smoke(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = cli_main([
        "sweep", "--k", "16", "--trials", "12", "--variants", "resnet_ssw",
        "--out", str(out),
    ])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["results"][0]["n_trials"] == 12
    assert blob["results"][0]["variant"] == "resnet_ssw"
    assert "wall_time_s" in blob["metadata"]


def test_sweep_rejects_a_cnn_step_size_outside_the_proof(tmp_path, capsys):
    # Refused before any trial runs, so the default cells cost nothing.
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--cnn-eta", "1.0", "--out", str(out)]) == 1
    assert "not proven absorbing" in capsys.readouterr().err
    assert not out.exists()


def test_run_fixed_trajectory(tmp_path):
    code = cli_main([
        "run", "--variant", "constant", "--out-dir", str(tmp_path),
        "--record-stride", "200",
    ])
    assert code == 0
    assert os.path.exists(tmp_path / "trajectory_constant.csv")
    assert os.path.exists(tmp_path / "trajectory_constant.svg")


def test_run_cnn_seeded(tmp_path):
    code = cli_main([
        "run", "--variant", "cnn", "--k", "16", "--seed", "2",
        "--out-dir", str(tmp_path), "--record-stride", "10",
        "--max-iters", "100000",
    ])
    assert code == 0
    data = np.genfromtxt(tmp_path / "trajectory_cnn.csv", delimiter=",", names=True)
    assert data["t"].size > 1


@pytest.mark.parametrize("argv, expected", [
    (["--variant", "cnn", "--k", "16", "--seed", "2"],
     lambda t: cnn_run(*sample_cnn_init(t, 2), t)),
    (["--variant", "ssw", "--init", "ball", "--k", "16", "--seed", "3"],
     lambda t: run(sample_init(t, 3), t, WarmupSchedule.for_k(16), stop_on_spurious=True)),
], ids=["cnn", "ssw-ball"])
def test_seeded_run_writes_the_public_api_trajectory(tmp_path, capsys, argv, expected):
    assert cli_main(["run", *argv, "--out-dir", str(tmp_path / "cli")]) == 0
    variant = argv[1]
    write_trajectory_csv(expected(teacher_for_k(16)), str(tmp_path / "api.csv"))
    got = (tmp_path / "cli" / f"trajectory_{variant}.csv").read_bytes()
    assert got == (tmp_path / "api.csv").read_bytes()


def test_refused_run_makes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    # the fixed start vector exists only for k=25
    assert cli_main(["run", "--variant", "ssw", "--k", "16", "--out-dir", str(out)]) == 1
    assert "only tabulated for k=25" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--variant", "cnn", "--k", "16", "--seed", "-3", "--max-iters", "10"],
    ["sweep", "--base-seed", "-1", "--k", "16", "--trials", "5", "--variants", "resnet_ssw"],
    ["verify", "--seed", "-1", "--points", "5"],
], ids=["run", "sweep", "verify"])
def test_negative_seed_is_a_one_line_error(tmp_path, capsys, argv):
    flag = "--out-dir" if argv[0] == "run" else "--out"
    assert cli_main([*argv, flag, str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "2**64" in err


def test_sweep_with_a_repeated_k_exits_before_running(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--k", "16,16", "--trials", "12", "--variants", "resnet_ssw",
                     "--out", str(out)]) == 1
    assert "k_values repeats [16]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--variant", "cnn", "--k", "16", "--max-iters", "10000001", "--record-stride", "100"],
    ["run", "--variant", "ssw", "--max-iters", "1000001"],
    ["sweep", "--k", "16", "--trials", "5", "--variants", "resnet_ssw", "--max-iters", "10000001"],
], ids=["run-iters", "run-rows", "sweep-iters"])
def test_budget_above_its_bound_exits_before_a_step(tmp_path, capsys, monkeypatch, argv):
    # more than MAX_ITERS steps, or more than MAX_ROWS recorded rows (--record-stride 1)
    monkeypatch.setattr(optimizer, "closed_step", lambda *a, **kw: pytest.fail("a step ran"))
    monkeypatch.setattr(experiments, "run_batch", lambda *a, **kw: pytest.fail("a trial ran"))
    flag = "--out-dir" if argv[0] == "run" else "--out"
    assert cli_main([*argv, flag, str(tmp_path / "out")]) == 1
    assert "at most" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_sweep_with_zero_max_iters_exits_one(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--k", "16", "--trials", "5", "--variants", "resnet_ssw",
                     "--max-iters", "0", "--out", str(out)]) == 1
    assert "max_iters must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
def test_sweep_refuses_more_than_one_worker_before_running(tmp_path, capsys, monkeypatch, source):
    monkeypatch.setattr(experiments, "run_batch", lambda *a, **kw: pytest.fail("a trial ran"))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--k", "16", "--trials", "5", "--out", str(out)]
    if source == "flag":
        argv += ["--workers", "2"]
    else:
        args = tmp_path / "sweep.args"
        args.write_text("--workers=2\n")
        argv += [f"@{args}"]
    assert cli_main(argv) == 1
    assert "runs in one process" in capsys.readouterr().err
    assert not out.exists()


def test_verify_pass_and_negative_control(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli_main([
        "verify", "--region", "filter-basin", "--m", "0.2", "--points", "400",
        "--out", str(out),
    ]) == 0
    blob = json.loads(out.read_text())
    assert blob["passed"] is True
    assert blob["min_slack"] >= -1e-9

    assert cli_main([
        "verify", "--negative-control", "1", "--m", "0.2", "--points", "150",
    ]) == 0


def test_verify_region_takes_only_the_canonical_names(capsys):
    assert cli_main(["verify", "--region", "escape", "--points", "200"]) == 0
    for alias in ("A", "K", "AmMdelta"):
        assert cli_main(["verify", "--region", alias, "--points", "200"]) == 1
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--tabulated", "1", "--k", "16", "--teacher-seed", "5"], "--teacher-seed is not used"),
    (["--tabulated", "1", "--k", "16", "--p", "1"], "needs p >= 2"),
    (["--region", "escape", "--m", "7"], "--m is not used"),
    (["--region", "filter-basin", "--delta", "0.3"], "--delta is not used"),
    (["--region", "filter-basin", "--max-alignment", "3"], "--max-alignment is not used"),
    (["--negative-control", "1", "--region", "refinement", "--delta", "0.3"],
     "--region is not used"),
    (["--negative-control", "1", "--delta", "0.3"], "--delta is not used"),
    (["--tabulated", "2", "--k", "16"], "invalid choice"),
    (["--negative-control", "2"], "invalid choice"),
    (["--tabulated", "1"], "--tabulated 1 needs --k, one of 16, 25, 36, 49, 64, 81, 100"),
    (["--region", "refinement", "--max-alignment", "0"], "max_alignment must be >= min_alignment"),
], ids=["teacher-seed-tabulated", "p-tabulated", "m-escape", "delta-filter-basin",
        "max-alignment-filter-basin", "region-negative-control", "delta-negative-control",
        "tabulated-2", "negative-control-2", "tabulated-default-k", "max-alignment-zero"])
def test_verify_rejects_flags_the_path_never_reads(tmp_path, capsys, monkeypatch, argv, message):
    for name in ("check_dissipativity", "negative_control_filter_basin"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("a point was sampled"))
    out = tmp_path / "report.json"
    assert cli_main(["verify", *argv, "--points", "5", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_check_grad_smoke(capsys):
    code = cli_main(["check-grad", "--samples", "40000", "--states", "3", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "within 4se" in out
    assert "fd_vs_largest=" in out


@pytest.mark.parametrize("source", ["flag", "file"])
def test_check_grad_finite_difference_bound_is_not_settable(tmp_path, capsys, monkeypatch, source):
    # The bound is cli.FD_TOL, the acceptance suite's 1e-5, set at the step cli.FD_STEP;
    # --fd-tol 1 would pass any error, and another step moves the roundoff the bound allows.
    monkeypatch.setattr(cli, "fd_grad_check", lambda *a, **kw: pytest.fail("a state was checked"))
    for flag in ("--fd-tol", "--step"):
        argv = ["check-grad", "--states", "1", "--samples", "1000"]
        if source == "flag":
            argv += [flag, "1e-4"]
        else:
            args = tmp_path / "check-grad.args"
            args.write_text(f"{flag}=1e-4\n")
            argv += [f"@{args}"]
        assert cli_main(argv) == 1
        assert flag in capsys.readouterr().err
    assert (cli.FD_TOL, cli.FD_STEP) == (1e-5, 1e-6)


@pytest.mark.parametrize("states", ["0", "-2"])
def test_check_grad_without_a_state_exits_one(capsys, monkeypatch, states):
    # fewer than one state would pass vacuously, as "mc pooled 0/0"
    monkeypatch.setattr(cli, "random_teacher", lambda *a, **kw: pytest.fail("a state was drawn"))
    assert cli_main(["check-grad", "--states", states, "--samples", "1000"]) == 1
    assert f"--states {states}" in capsys.readouterr().err


def test_check_grad_refuses_more_than_max_samples_in_all(capsys, monkeypatch):
    monkeypatch.setattr(cli, "random_teacher", lambda *a, **kw: pytest.fail("a state was drawn"))
    assert cli_main(["check-grad", "--states", "1000000000", "--samples", "2"]) == 1
    assert "exceeds 100000000 Monte-Carlo samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--samples", "100000001", "--states", "3"], ["--samples", "1"],
], ids=["above-max", "below-two"])
def test_check_grad_refuses_a_sample_count_before_any_finite_difference(capsys, monkeypatch, argv):
    calls = []
    checked = cli.fd_grad_check
    monkeypatch.setattr(cli, "fd_grad_check", lambda *a, **kw: calls.append(a) or checked(*a, **kw))
    assert cli_main(["check-grad", *argv]) == 1
    assert "error" in capsys.readouterr().err
    assert calls == []


# An argument that begins with @ names an argument file, one argument per line, read
# by the flags' own parser: a later argument overrides an earlier one.

def _args_file(tmp_path, text):
    path = tmp_path / "options.args"
    path.write_text(text)
    return f"@{path}"


def _one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    return captured.err


def test_config_file_with_flag_override(tmp_path):
    from_file = tmp_path / "from_file.json"
    args = _args_file(tmp_path, f"--k=16\n--trials=10\n--variants=resnet_ssw\n--out={from_file}\n")
    out = tmp_path / "cli_wins.json"
    code = cli_main(["sweep", args, "--out", str(out)])
    assert code == 0
    assert out.exists() and not from_file.exists()
    blob = json.loads(out.read_text())
    assert blob["config"]["n_trials"] == 10
    assert blob["config"]["k_values"] == [16]


def test_config_file_unknown_key(tmp_path, capsys):
    assert cli_main(["sweep", _args_file(tmp_path, "--bogus=1\n")]) == 1
    assert "unrecognized arguments: --bogus=1" in _one_error_line(capsys)


def test_config_file_missing(tmp_path, capsys):
    assert cli_main(["sweep", f"@{tmp_path / 'nope.args'}"]) == 1
    assert "No such file" in _one_error_line(capsys)


@pytest.mark.parametrize("text, stray", [
    ("[show_teacher]\nk = 16\n", "[show_teacher]"),
    ("[DEFAULT]\nk = 16\n", "[DEFAULT]"),
    ("k = 16\n", "k = 16"),
    ("[show-teacher]\nk = 16\nk = 36\n", "[show-teacher]"),
], ids=["misspelled-section", "default-only", "no-section-header", "repeated-key"])
def test_config_file_read_strictly(tmp_path, capsys, text, stray):
    # A file in the INI format the CLI once read is refused whole, never half read:
    # its lines are arguments, and no subcommand takes a positional one.
    assert cli_main(["show-teacher", _args_file(tmp_path, text)]) == 1
    assert f"unrecognized arguments: {stray}" in _one_error_line(capsys)


def test_config_key_in_both_spellings_exits_one(tmp_path, capsys, monkeypatch):
    # --max_iters is not a spelling of --max-iters: the file is refused before any trial
    monkeypatch.setattr(experiments, "run_batch", lambda *a, **kw: pytest.fail("a trial ran"))
    out = tmp_path / "sweep.json"
    args = _args_file(tmp_path, "--max-iters=5\n--max_iters=7\n")
    assert cli_main(["sweep", args, "--out", str(out)]) == 1
    assert "unrecognized arguments: --max_iters=7" in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("directory", [True, False], ids=["directory", "empty"])
def test_config_path_that_names_no_file_exits_one(tmp_path, capsys, directory):
    # "@" alone names the empty path
    assert cli_main(["show-teacher", f"@{tmp_path}" if directory else "@"]) == 1
    _one_error_line(capsys)


def test_argument_file_that_includes_itself_exits_one(tmp_path, capsys):
    path = tmp_path / "self.args"
    path.write_text(f"--k=16\n@{path}\n")
    assert cli_main(["show-teacher", f"@{path}"]) == 1
    assert "include itself" in _one_error_line(capsys)


def test_later_argument_wins_within_a_file(tmp_path, capsys):
    # a flag repeated in a file is last-wins, as it is on the command line
    assert cli_main(["show-teacher", _args_file(tmp_path, "--k=36\n--k=16\n")]) == 0
    assert "teacher k=16" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag", [
    (["--variant", "ssw", "--p", "4"], "--p"),
    (["--variant", "constant", "--seed", "3"], "--seed"),
    (["--variant", "cnn", "--k", "16", "--init", "gaussian"], "--init"),
    (["--variant", "ssw", "--eta", "0.2"], "--eta"),
    (["--variant", "constant", "--init", "ball", "--k", "16", "--eta", "0.2"], "--eta"),
], ids=["p-fixed-start", "seed-fixed-start", "init-cnn", "eta-ssw", "eta-constant-ball"])
def test_run_rejects_flags_the_path_never_reads(tmp_path, capsys, argv, flag):
    assert cli_main(["run", *argv, "--out-dir", str(tmp_path)]) == 1
    assert f"{flag} is not used" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_run_rejects_unread_option_from_config_file(tmp_path, capsys):
    args = _args_file(tmp_path, "--variant=cnn\n--init=ball\n")
    assert cli_main(["run", args, "--out-dir", str(tmp_path / "out")]) == 1
    assert "--init is not used" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--variant", "ssw"], ["--variant", "cnn", "--k", "16"],
], ids=["fixed-start", "cnn"])
def test_run_with_zero_max_iters_exits_before_a_step(tmp_path, capsys, monkeypatch, argv):
    # 0 is not read as "the default budget": run() refuses it, as sweep --max-iters 0 is
    monkeypatch.setattr(optimizer, "closed_step", lambda *a, **kw: pytest.fail("a step ran"))
    assert cli_main(["run", *argv, "--max-iters", "0", "--out-dir", str(tmp_path / "out")]) == 1
    assert "max_iters and record_stride must be positive" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("eta", ["nan", "inf"])
def test_run_refuses_a_step_size_that_is_not_finite(tmp_path, capsys, monkeypatch, eta):
    monkeypatch.setattr(optimizer, "closed_step", lambda *a, **kw: pytest.fail("a step ran"))
    argv = ["run", "--variant", "cnn", "--k", "16", "--eta", eta, "--out-dir", str(tmp_path / "o")]
    assert cli_main(argv) == 1
    assert "step sizes must be positive and finite" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv", [
    ["--m", "nan"], ["--m", "inf"], ["--region", "refinement", "--m", "nan"],
    ["--region", "refinement", "--delta", "nan"], ["--region", "refinement", "--delta", "inf"],
    ["--region", "refinement", "--max-alignment", "nan"],
], ids=["filter-basin-m-nan", "filter-basin-m-inf", "refinement-m-nan", "refinement-delta-nan",
        "refinement-delta-inf", "refinement-max-alignment-nan"])
def test_verify_refuses_region_bounds_that_are_not_finite_before_sampling(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "check_dissipativity", lambda *a, **kw: pytest.fail("a point was sampled"))
    assert cli_main(["verify", *argv, "--points", "5"]) == 1
    assert "must be" in capsys.readouterr().err


_ABOVE = str(MAX_DIM + 1)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--p", "1", "--k", "5", "--points", "200"], "needs p >= 2"),
    (["verify", "--k", _ABOVE, "--points", "1"], f"k must lie in [1, {MAX_DIM}]"),
    (["verify", "--p", _ABOVE, "--points", "1"], f"p must lie in [2, {MAX_DIM}]"),
    (["show-teacher", "--k", "16", "--p", _ABOVE], f"p must lie in [2, {MAX_DIM}]"),
    (["run", "--variant", "ssw", "--init", "ball", "--p", _ABOVE, "--max-iters", "10"],
     f"p must lie in [2, {MAX_DIM}]"),
], ids=["verify-p-1", "verify-k-above", "verify-p-above", "show-teacher-p-above", "run-p-above"])
def test_a_size_outside_its_bounds_is_one_error_line_before_any_work(
        tmp_path, capsys, monkeypatch, argv, message):
    # verify --p 1 used to print "pass" on 200 points that all lay at x = 1
    for name in ("check_dissipativity", "negative_control_filter_basin", "draw_starts", "run"):
        monkeypatch.setattr(cli, name, lambda *a, **kw: pytest.fail("work began"))
    out = ["--out-dir", str(tmp_path / "out")] if argv[0] == "run" else []
    assert cli_main([*argv, *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert message in captured.err and captured.out == ""


def test_a_list_refusal_names_no_private_function(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--k", "16,x", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "expected comma-separated integers, got '16,x'" in err
    assert not re.search(r"\b_\w", err), err
    assert not out.exists()


def test_sweep_with_no_variant_exits_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "run_batch", lambda *a, **kw: pytest.fail("a trial ran"))
    out = tmp_path / "sweep.json"
    assert cli_main(["sweep", "--variants", ",,", "--k", "16", "--trials", "5",
                     "--out", str(out)]) == 1
    assert "variants must be nonempty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_written_is_refused_before_any_work(
        tmp_path, capsys, monkeypatch, command, target):
    # refused before the work, naming the path given rather than atomic_write's temporary file
    monkeypatch.setattr(experiments, "run_batch", lambda *a, **kw: pytest.fail("a trial ran"))
    monkeypatch.setattr(cli, "check_dissipativity", lambda *a, **kw: pytest.fail("a point was sampled"))
    out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    argv = {"sweep": ["sweep", "--k", "16", "--trials", "5", "--variants", "cnn_baseline"],
            "verify": ["verify", "--points", "5"]}[command]
    assert cli_main([*argv, "--out", str(out)]) == 1
    err = _one_error_line(capsys)
    assert f"--out {out}" in err and ".tmp" not in err, err
    assert list(tmp_path.iterdir()) == []


def test_run_cnn_with_defaults_still_runs(tmp_path):
    assert cli_main([
        "run", "--variant", "cnn", "--k", "16", "--max-iters", "10", "--out-dir", str(tmp_path),
    ]) == 0


def test_module_entry_point_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ok = subprocess.run([sys.executable, "-m", "shortcut_gd.cli", "show-teacher", "--k", "16"],
                        capture_output=True, text=True, env=env, timeout=60)
    assert ok.returncode == 0
    assert "9 ones, 7 minus-ones, 0 zeros" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "shortcut_gd.cli", "show-teacher", "--bogus"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 1
    assert "error" in bad.stderr


def test_readme_cli_section_names_only_real_options():
    """Every --word in README's "## CLI" section is an option of some subcommand."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--([a-z](?:[a-z-]*[a-z])?)", section))
    options = {opt.name for opts in cli._OPTIONS.values() for opt in opts}
    assert named, "README has no ## CLI section with flags"
    assert named <= options, sorted(named - options)
