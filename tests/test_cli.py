"""The command-line entry point: exit codes, options, and the cost of importing it."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import elfkit
from elfkit import tuner
from elfkit.bias import Scheme
from elfkit.cli import _SCAN_ENDS, OPTIONS, main
from elfkit.metrics import GaussianBelief, NoiseModel, slope
from elfkit.sim import ExperimentConfig, run_experiment
from elfkit.tuner import build_lookup_table
from fingerprint import CLI_COMMANDS
from slope_oracle import analytic_l1_slope_optimum


_EXPERIMENT_HEADER = "time,rmse,inv_mse,bias_sq,var_est,mean_perceived_var"
_SIMULATE = ["--true-pi", "0.1", "--prior-mean", "0.12", "--layer-fidelity", "0.95"]
_SIMULATE += ["--runs", "5", "--horizon", "60", "--seed", "1"]
_FLAGGED_ROWS = ["--infidelity-min", "1e-3", "--infidelity-max", "1e-2"]


def _strict_json(text: str):
    """The JSON document in ``text``; a ValueError if it holds NaN or an infinity, which strict JSON has not."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", ["tune", "runtime"])
def test_missing_config_file_exits_4(command, tmp_path, capsys):
    assert main([command, "--config", str(tmp_path / "absent.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["runtime", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_with_a_tolerance_key_is_a_usage_error(tmp_path, capsys):
    # The finish's stop gain is a constant of the tuner, not an option, so a
    # "tolerance" key is unknown like any other: exit 2 naming it, nothing run.
    path = tmp_path / "tune.json"
    path.write_text(json.dumps({"mu": 1, "seed": 1, "tolerance": 1e-8}))
    assert main(["tune", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "unknown config keys: ['tolerance']" in err and out == ""


@pytest.mark.parametrize(
    ("command", "file_cfg", "flag"),
    [
        (["tune"], {"mu": 1, "layers": 1.7, "seed": 2.9}, "--layers"),
        (["tune"], {"mu": 1, "seed": 2.9}, "--seed"),
        (["tune"], {"mu": 1, "layers": True}, "--layers"),
        (["tune"], {"mu": True}, "--mu"),
        (["scan"], {"quantity": "both"}, "--quantity"),
        # A malformed file value fails even where a flag overrides it.
        (["tune", "--layers", "2"], {"mu": 1, "layers": 1.5}, "--layers"),
        # Only --eps reads the comma form a list joins into.
        (["runtime"], {"out": ["a", "b"], "points": 2}, "--out"),
        (["simulate"], {"true-pi": 0.3, "prior-mean": 0.3, "table": ["t.json"]}, "--table"),
    ],
    ids=["float-for-int", "float-seed", "bool-for-int", "bool-for-float", "bad-choice", "overridden", "list-out", "list-table"],
)
def test_config_values_are_checked_like_flags(command, file_cfg, flag, tmp_path, capsys, monkeypatch):
    # Argparse checks a file value as it checks the flag: exit 2 naming the flag, nothing run.
    monkeypatch.chdir(tmp_path)
    for tune in ("elfkit.cli.tune", "elfkit.tuner.tune"):
        monkeypatch.setattr(tune, lambda *a, **k: pytest.fail("tuned a point"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(file_cfg))
    with pytest.raises(SystemExit) as info:
        main([command[0], "--config", str(path), *command[1:]])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument {flag}: invalid" in err and out == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(("file_eps", "flag_eps"), [(0.001, "0.001"), ([0.001, 1e-4], "0.001,0.0001")])
def test_config_eps_scalar_or_list_runs_like_the_flag(file_eps, flag_eps, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps": file_eps, "points": 3, "out": str(tmp_path / "file")}))
    assert main(["runtime", "--config", str(path)]) == 0
    assert main(["runtime", "--eps", flag_eps, "--points", "3", "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "file.csv").read_text() == (tmp_path / "flag.csv").read_text()


def test_explicit_flag_overrides_config_value(tmp_path):
    # The file's tokens go ahead of the flags, so a flag wins wherever it stands.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"points": 5, "eps": "1e-3", "out": str(tmp_path / "file")}))
    assert main(["runtime", "--points", "2", "--config", str(path), "--out", str(tmp_path / "flag")]) == 0
    assert not (tmp_path / "file.csv").exists()
    config = json.loads((tmp_path / "flag.json").read_text())["config"]
    assert (config["points"], config["eps"]) == (2, "1e-3")
    assert len((tmp_path / "flag.csv").read_text().splitlines()) == 1 + 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--quantity", "rhat0", "--points", "3", "--restarts", "1", "--max-rounds", "20", "--seed", "1"],
        ["simulate", "--scheme", "af-clf", *_SIMULATE],
        ["runtime", "--points", "3", "--eps", "1e-3,1e-4", "--gate-time", "2e-8"],
    ],
    ids=["scan", "simulate", "runtime"],
)
def test_sidecar_config_reproduces_the_csv(argv, tmp_path):
    # A sidecar's config, fed back through --config with a new prefix, gives the same CSV byte for byte.
    assert main(argv + ["--out", str(tmp_path / "first")]) == 0
    config = json.loads((tmp_path / "first.json").read_text())["config"]
    config["out"] = str(tmp_path / "again")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main([argv[0], "--config", str(path)]) == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    assert json.loads((tmp_path / "again.json").read_text())["config"] == config


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ([], "table must be a JSON object with an 'entries' list"),
        (
            {"version": "elf-table/1", "entries": [{"pi": 0.0, "angles": [math.nan, 2.0]}]},
            "table entry 0: angles must be finite",
        ),
    ],
    ids=["not-an-object", "nan-angle"],
)
def test_simulate_rejects_malformed_table_file(doc, message, tmp_path, capsys):
    # A usage error (2) with the table's message, and no output; tests/test_tuner.py checks each malformed table.
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--scheme", "af-elf", "--table", str(path), *_SIMULATE, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == f"error: {message}" and out == ""
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["runtime", "--eps", "nan", "--points", "3"], "eps must lie in (0, 2], got nan"),
        (["runtime", "--eps", "inf", "--points", "2"], "eps must lie in (0, 2], got inf"),
        (["runtime", "--eps", "1e-3,abc", "--points", "2"], "--eps must be comma-separated numbers, got '1e-3,abc'"),
        (["runtime", "--eps", "-1", "--points", "3"], "eps must lie in (0, 2], got -1.0"),
        # Every row of this grid has a decay exponent above 1, so no row reaches runtime_bounds.
        (["runtime", "--eps", "-1", *_FLAGGED_ROWS], "eps must lie in (0, 2], got -1.0"),
        (["runtime", "--eps", "nan", *_FLAGGED_ROWS], "eps must lie in (0, 2], got nan"),
        (["runtime", "--eps", "0", *_FLAGGED_ROWS], "eps must lie in (0, 2], got 0.0"),
    ],
    ids=["eps", "eps-inf", "eps-not-a-number", "eps-negative"]
    + ["eps-negative-lam-gt-1", "eps-nan-lam-gt-1", "eps-zero-lam-gt-1"],
)
def test_nan_is_a_usage_error(argv, message, tmp_path, capsys, monkeypatch):
    # NaN fails a guard written "not x > 0", and a domain check: exit 2 naming the value, no output.
    # An infinite, negative or unreadable error target is a usage error as well.  --eps is a list,
    # which the edge sweep of the numeric options leaves out.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_drawn_seed_is_printed_only_for_a_run(tmp_path, capsys, monkeypatch):
    # Without --seed a seed is drawn, but a usage error (2) runs nothing, so it
    # prints none; a run prints the seed that its output's config records.
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["tune", "--mu", "1", "--layer-fidelity", "nan"],
        ["simulate", "--scheme", "af-clf", "--true-pi", "0.3", "--prior-mean", "1.5"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "seed:" not in err and out == ""
    assert main(["tune", "--mu", "1", "--restarts", "1", "--max-rounds", "5"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines()[-1] == f"seed: {json.loads(out)['config']['seed']}"
    assert list(tmp_path.iterdir()) == []


def test_simulate_sidecar_is_strict_json(tmp_path):
    # A horizon of one round leaves no growth-rate window: the rate is null, not NaN.
    argv = ["simulate", "--scheme", "af-clf", "--layers", "1", "--true-pi", "0.3", "--prior-mean", "0.3"]
    assert main(argv + ["--runs", "4", "--horizon", "3", "--seed", "1", "--out", str(tmp_path / "run")]) == 0
    sidecar = _strict_json((tmp_path / "run.json").read_text())
    assert sidecar["growth_rate"] is None and sidecar["final_rmse"] > 0.0


def test_tune_rejects_mu_near_a_multiple_of_pi(capsys):
    # A degenerate estimand angle is outside the domain, as mu = 0 is: a usage error (2), so no seed is drawn.
    assert main(["tune", "--mu", "1e-13"]) == 2
    out, err = capsys.readouterr()
    assert "mu=1e-13" in err and "seed:" not in err and out == ""


def test_tune_with_every_start_singular_writes_strict_json(capsys):
    # Noiseless, mu = 1e-7 puts the L=1 Fisher information beyond the singular guard at every
    # start: the objective is -inf, written as null, not as the non-JSON -Infinity.
    assert main(["tune", "--mu", "1e-7", "--seed", "1", "--restarts", "2", "--max-rounds", "5"]) == 0
    assert _strict_json(capsys.readouterr().out)["result"]["objective_value"] is None


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--eps", "1e200"], "eps must lie in (0, 2], got 1e+200"),
        (["--eps", "1e-100"], "eps_theta must lie in [1e-75, 1e75], got 1e-100"),
        (["--spam-fidelity", "1e-300"], "spam must lie in [1e-150, 1], got 1e-300"),
        # Every row's decay exponent is above 1, so no row reaches runtime_bounds.
        (["--spam-fidelity", "1e-300", *_FLAGGED_ROWS], "spam must lie in [1e-150, 1], got 1e-300"),
    ],
    ids=["eps-above-2", "eps-theta-squared-underflows", "spam-squared-underflows", "spam-lam-gt-1"],
)
def test_runtime_inputs_whose_squares_leave_the_floats_are_usage_errors(argv, message, tmp_path, capsys):
    # They tripped the numeric guard (exit 3) with an OverflowError or ZeroDivisionError naming no input.
    assert main(["runtime", "--points", "2", *argv, "--out", str(tmp_path / "rt")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_runtime_rows_flagged_ok_are_finite(tmp_path, capsys):
    # At a SPAM fidelity of 1e-150 the bounds near 1e298 s are finite, and so is their geometric mean.
    assert main(["runtime", "--spam-fidelity", "1e-150", "--points", "2", "--out", str(tmp_path / "rt")]) == 0
    with open(tmp_path / "rt.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["flags"] == "ok"]
    assert len(rows) == 3 and all(math.isfinite(float(r[k])) for r in rows for k in ("t_lower_s", "t_upper_s", "t_mid_s"))
    # With eps = 1e-70 the bounds themselves leave the floats: a usage error naming spam and eps, and no output.
    argv = ["runtime", "--spam-fidelity", "1e-150", "--eps", "1e-70", "--points", "2", "--out", str(tmp_path / "bad")]
    assert main(argv) == 2
    assert "error: spam 1e-150, eps 1e-70 and depth * gate_time 2e-06 give a runtime bound of inf s" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rt.csv", "rt.json"]


def test_numeric_guard_exits_3_and_writes_nothing(tmp_path, capsys):
    # The noiseless L=1 Chebyshev bias is -1 at theta = pi/3, where the Fisher information diverges.
    argv = ["scan", "--quantity", "fisher", "--min", "1.0471975511965976", "--max", "2", "--points", "2"]
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "scan")]) == 3
    assert "numeric guard: fisher information diverges" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [pytest.param(c, "threads", 2, id=c) for c in ("tune", "table", "scan", "runtime")]
    # tune has one ascent method, so it takes no --method, and the sinusoid
    # fit has one width, so simulate takes no --fit-points.
    + [pytest.param("tune", "method", "grad", id="tune-method")]
    + [pytest.param("simulate", "fit-points", 11, id="simulate-fit-points")]
    # runtime draws nothing at random, so it takes no --seed.
    + [pytest.param("runtime", "seed", 1, id="runtime-seed")],
)
def test_threads_is_a_simulate_option_only(command, flag, value, tmp_path, capsys):
    # The flag is a usage error (argparse exits 2), and so is the config key.
    with pytest.raises(SystemExit) as info:
        main([command, f"--{flag}", str(value)])
    assert info.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({flag: value}))
    assert main([command, "--config", str(path)]) == 2
    assert flag in capsys.readouterr().err


def test_simulate_takes_threads(tmp_path):
    argv = ["simulate", "--scheme", "af-clf", "--true-pi", "0.1", "--prior-mean", "0.12", "--runs", "3"]
    argv += ["--horizon", "30", "--seed", "1", "--threads", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "run.json").read_text())["config"]["threads"] == 2


@pytest.mark.parametrize("scheme", ["af-elf", "af-clf", "ab-elf", "ab-clf"])
def test_simulate_needs_prior_mean_but_for_standard(scheme, tmp_path, capsys, monkeypatch):
    # A usage error (2) naming the flag, before any table is built, and no output.
    monkeypatch.setattr("elfkit.cli.build_lookup_table", lambda *a, **k: pytest.fail("built a table"))
    argv = ["simulate", "--scheme", scheme, "--true-pi", "0.3", "--seed", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--prior-mean" in err and "building a" not in err
    assert list(tmp_path.iterdir()) == []


def test_standard_takes_no_prior_mean(tmp_path):
    # The standard scheme reads no prior: without --prior-mean it writes the CSV it writes with one,
    # and its sidecar's null prior mean, fed back through --config, reproduces that CSV.
    argv = ["simulate", "--scheme", "standard", "--true-pi", "0.31", "--runs", "4", "--horizon", "40", "--seed", "2"]
    assert main(argv + ["--out", str(tmp_path / "none")]) == 0
    assert main(argv + ["--prior-mean", "0.9", "--out", str(tmp_path / "prior")]) == 0
    assert (tmp_path / "none.csv").read_bytes() == (tmp_path / "prior.csv").read_bytes()
    config = json.loads((tmp_path / "none.json").read_text())["config"]
    assert config["prior-mean"] is None
    config["out"] = str(tmp_path / "again")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "cfg.json")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "none.csv").read_bytes()


def test_zero_mse_checkpoint_leaves_the_growth_rate_finite(tmp_path):
    # At t = 20 all four runs' sample means equal 0.3 exactly, so that checkpoint's
    # MSE is 0: its inverse is inf without a warning, and the rate is fitted over
    # the window's finite checkpoints.
    argv = ["simulate", "--scheme", "standard", "--true-pi", "0.3", "--runs", "4", "--horizon", "40", "--seed", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    times, inv_mse = (np.array([float(r[k]) for r in rows]) for k in ("time", "inv_mse"))
    assert inv_mse[times == 20].tolist() == [math.inf]
    window = (times >= 10) & np.isfinite(inv_mse)
    growth_rate = json.loads((tmp_path / "run.json").read_text())["growth_rate"]
    assert math.isfinite(growth_rate)
    assert growth_rate == pytest.approx(np.polyfit(times[window], inv_mse[window], 1)[0], rel=1e-9)


@pytest.mark.parametrize(
    ("args", "flag"),
    [
        (["--infidelity-max=-1e-2", "--infidelity-min=-1e-4"], "--infidelity-min"),
        (["--infidelity-max=2", "--infidelity-min=1.5"], "--infidelity-min"),
    ],
)
def test_runtime_rejects_infidelities_outside_unit_interval(args, flag, tmp_path, capsys):
    # Checked before the curve is computed, so no bad value reaches the rate model.
    assert main(["runtime", *args, "--points", "3", "--out", str(tmp_path / "rt")]) == 2
    assert f"{flag} must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "rt.csv").exists()


@pytest.mark.parametrize(
    ("grid", "lo", "hi"),
    [("9", "0.5", "-0.5"), ("2", "-1.0", "1.0")],
    ids=["ends-out-of-order", "no-inner-point"],
)
def test_table_rejects_a_bad_grid_before_tuning(grid, lo, hi, tmp_path, capsys, monkeypatch):
    # A grid out of order, or one whose every point sits at Pi = +-1 (so every entry would be flagged), is a
    # usage error (2) naming the three grid flags, raised before the first point is tuned: no output.
    monkeypatch.setattr("elfkit.tuner.tune", lambda *a, **k: pytest.fail("tuned a point"))
    argv = ["table", "--grid", grid, "--grid-min", lo, "--grid-max", hi, "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "t")]) == 2
    flags = f"--grid {grid}, --grid-min {lo} and --grid-max {hi}"
    assert capsys.readouterr().err == f"error: {flags} must give a strictly increasing grid with a point in (-1, 1)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("quantity", "flag", "value", "domain"),
    [
        # The edge sweep scans fisher and rhat0; slope takes fisher's domain.
        ("slope", "min", "0", "(0, pi)"),
    ],
)
def test_scan_rejects_grid_end_outside_domain(quantity, flag, value, domain, tmp_path, capsys, monkeypatch):
    # Both ends are checked before the first point is tuned: a usage error (2) naming the flag.
    monkeypatch.setattr("elfkit.tuner.tune", lambda *a, **k: pytest.fail("tuned a point"))
    argv = ["scan", "--quantity", quantity, f"--{flag}", value, "--points", "3", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "scan")]) == 2
    assert f"--{flag} must lie in {domain}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (["--min", "1", "--max", "1"], "--min 1.0, --max 1.0 and --points 41 must give distinct Pi values"),
        (["--quantity", "rhat0", "--min", "0.2", "--max", "0.2"], "--min 0.2, --max 0.2 and --points 41 must give"),
        (
            ["--min", "2e-8", "--max", "2.1e-8", "--points", "3"],
            "--min 2e-08, --max 2.1e-08 and --points 3 must give distinct Pi values",
        ),
        (
            ["--quantity", "rhat0", "--min", "0.1", "--max", "0.10000000000000002", "--points", "5"],
            "--min 0.1, --max 0.10000000000000002 and --points 5 must give distinct Pi values",
        ),
    ],
    ids=["equal-theta-ends", "equal-pi-ends", "theta-points-share-cos", "pi-points-share-a-value"],
)
def test_scan_rejects_a_grid_of_one_value(args, message, tmp_path, capsys, monkeypatch):
    # A scan tunes a lookup table, which needs 2 distinct points: a usage error (2)
    # naming the flags, before the first point is tuned, and no output.  Distinct
    # theta ends near 0 can still give neighbouring points one cos value.
    monkeypatch.setattr("elfkit.tuner.tune", lambda *a, **k: pytest.fail("tuned a point"))
    assert main(["scan", *args, "--seed", "1", "--out", str(tmp_path / "scan")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scan_descending_theta_grid_is_the_ascending_one_reversed(tmp_path):
    # Both grids are the same table in Pi; the rows follow the grid as given.
    common = ["scan", "--layers", "2", "--layer-fidelity", "0.95", "--spam-fidelity", "0.99", "--points", "5"]
    common += ["--restarts", "2", "--max-rounds", "50", "--seed", "3"]
    for name, lo, hi in (("down", "2.5", "0.5"), ("up", "0.5", "2.5")):
        assert main([*common, "--min", lo, "--max", hi, "--out", str(tmp_path / name)]) == 0
    down, up = ((tmp_path / f"{name}.csv").read_text().splitlines() for name in ("down", "up"))
    assert down[0] == up[0] == "theta_or_pi,clf_value,elf_value"
    assert [float(row.split(",")[0]) for row in down[1:]] == [2.5, 2.0, 1.5, 1.0, 0.5]
    assert down[1:] == up[:0:-1]


def test_simulate_rejects_table_that_does_not_fit(tmp_path, capsys):
    # An AB L=3 table for an AF L=1 run: a usage error (2) naming the table.
    path = tmp_path / "table.json"
    build_lookup_table(Scheme.AB, 3, NoiseModel(0.95, 0.99), [-0.5, 0.5], restarts=1, seed=0, max_rounds=5).save(path)
    argv = ["simulate", "--scheme", "af-elf", "--layers", "1", "--table", str(path), "--true-pi", "0.1"]
    argv += ["--prior-mean", "0.12", "--runs", "3", "--horizon", "30", "--seed", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "table holds 6-angle vectors, but layers=1" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("scheme", ["af-clf", "ab-clf", "standard"])
def test_simulate_refuses_a_table_that_no_run_reads(scheme, tmp_path, capsys, monkeypatch):
    # A usage error (2) naming --table and --scheme, before the table is read or a run starts:
    # the drawn seed is not printed, and nothing is written.
    monkeypatch.setattr("elfkit.cli.run_experiment", lambda config: pytest.fail("ran"))
    argv = ["simulate", "--scheme", scheme, "--table", str(tmp_path / "none.json"), "--true-pi", "0.3"]
    argv += ["--prior-mean", "0.3", "--runs", "4", "--horizon", "30", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "--table" in err and f"--scheme {scheme}" in err and "seed:" not in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mu", [0.3, 1.3, 2.2])
def test_tune_slope_reaches_l1_optimum(mu, capsys):
    # The slope objective through the CLI, against the closed-form L=1 optimum.
    assert main(["tune", "--mu", str(mu), "--objective", "slope", "--layers", "1", "--seed", "1"]) == 0
    value = json.loads(capsys.readouterr().out)["result"]["objective_value"]
    assert value == pytest.approx(analytic_l1_slope_optimum(mu)[0], rel=1e-9)


def test_tune_slope_and_metrics_slope_differ_by_half_the_fidelity(capsys):
    # tune --objective slope reports |d(bias)/dtheta|; metrics.slope (scan's
    # slope) is f |d(bias)/dtheta| / 2 at the process fidelity f.
    argv = ["tune", "--mu", "1.3", "--objective", "slope", "--layers", "2", "--layer-fidelity", "0.9"]
    assert main(argv + ["--restarts", "2", "--seed", "1"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    f = NoiseModel(0.9).process_fidelity(2)
    value = slope(Scheme.AF, 1.3, f, np.array(result["x_opt"]))
    assert value == pytest.approx(f / 2 * result["objective_value"], rel=1e-12)


def test_scan_slope_never_below_chebyshev(tmp_path):
    argv = ["scan", "--quantity", "slope", "--layers", "2", "--points", "7", "--restarts", "3", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "scan")]) == 0
    with open(tmp_path / "scan.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    assert all(float(r["elf_value"]) >= float(r["clf_value"]) for r in rows)


def test_import_loads_no_scipy(tmp_path):
    # SciPy is a test dependency only: importing the CLI loads none of it, and
    # with it blocked a small simulate (table build included) and runtime still run.
    src = os.path.dirname(os.path.dirname(elfkit.__file__))
    simulate = ["simulate", "--table-grid", "3", "--restarts", "1", *_SIMULATE, "--out", str(tmp_path / "sim")]
    runtime = ["runtime", "--points", "3", "--out", str(tmp_path / "runtime")]
    code = (
        "import sys, elfkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.modules['scipy'] = None\n"
        f"sys.exit(elfkit.cli.main({simulate!r}) or elfkit.cli.main({runtime!r}))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runtime.csv", "runtime.json", "sim.csv", "sim.json"]


_RUNTIME_HEADER = "f2q,eps,t_lower_s,t_upper_s,t_mid_s,flags"


@pytest.mark.parametrize(
    ("argv", "header", "n_rows", "out"),
    [
        pytest.param(
            ["scan", "--points", "3", "--restarts", "1", "--max-rounds", "20", "--seed", "1"],
            "theta_or_pi,clf_value,elf_value",
            3,
            "out.csv",
            id="scan-theta",
        ),
        pytest.param(
            ["scan", "--quantity", "rhat0", "--points", "3", "--restarts", "1", "--max-rounds", "20", "--seed", "1"],
            "theta_or_pi,clf_value,elf_value",
            3,
            "out.csv",
            id="scan-rhat0",
        ),
        pytest.param(
            ["simulate", "--scheme", "af-clf", *_SIMULATE], _EXPERIMENT_HEADER, None, "out.csv", id="simulate-af-clf"
        ),
        pytest.param(
            ["simulate", "--scheme", "standard", *_SIMULATE],
            _EXPERIMENT_HEADER,
            None,
            "out.csv",
            id="simulate-standard",
        ),
        pytest.param(["runtime", "--points", "3", "--eps", "1e-3,1e-4"], _RUNTIME_HEADER, 6, "out.csv", id="runtime"),
        pytest.param(["runtime", "--points", "2"], _RUNTIME_HEADER, 6, "out.json", id="runtime-json-suffix"),
    ],
)
def test_csv_and_sidecar_outputs(argv, header, n_rows, out, tmp_path):
    # A trailing .csv or .json on --out names the same prefix as no suffix.
    assert main(argv + ["--out", str(tmp_path / out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.json"]
    text = (tmp_path / "out.csv").read_text(encoding="utf-8")
    assert text.split("\n")[0] == header and text.endswith("\n") and "\r" not in text
    rows = list(csv.reader(text.splitlines()))[1:]
    sidecar = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert sidecar["command"] == argv[0]
    if argv[0] != "simulate":
        assert len(rows) == n_rows
        # Every value cell is the repr of a Python float ("np.float64(...)" is not).
        values = [c for row in rows for c in row if c not in ("ok", "lam_gt_1")]
        assert all(repr(float(c)) == c for c in values)
        return
    traces = run_experiment(
        ExperimentConfig(
            scheme=argv[2],
            true_pi=0.1,
            prior_pi=GaussianBelief(0.12, 0.03**2),
            layers=1,
            noise=NoiseModel(0.95),
            runs=5,
            horizon=60,
            master_seed=1,
        )
    )
    columns = [traces.times, traces.rmse, traces.inv_mse, traces.bias_sq, traces.var_est, traces.mean_perceived_var]
    assert [row[0] for row in rows] == [str(t) for t in traces.times.tolist()]
    cells = np.array([[float(c) for c in row] for row in rows])
    assert np.array_equal(cells, np.column_stack(columns), equal_nan=True)
    assert np.isnan(cells[:, 5]).all() == (argv[2] == "standard")
    assert sidecar["final_rmse"] == traces.rmse[-1]


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_each_fingerprinted_command_runs_and_writes_strict_json(name, tmp_path, capsys):
    # The commands whose outputs fingerprint.py hashes, one list for both: each exits 0, and its
    # JSON (tune's stdout, or the file at --out) parses as strict JSON, null where a value is not finite.
    argv = CLI_COMMANDS[name].split()
    if argv[0] != "tune":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    _strict_json(out if argv[0] == "tune" else (tmp_path / "out.json").read_text())


# One small valid command each; the sweep sets one option at a time to an edge value.  The af-elf
# simulate builds a 3-point table, whose one inner point it tunes.
_SIMULATE_SWEEP = ["--true-pi", "0.3", "--prior-mean", "0.3", "--runs", "4", "--horizon", "60"]
_SWEEP_BASE = {
    "simulate": ["--scheme", "af-clf", *_SIMULATE_SWEEP],
    "simulate-af-elf": ["--scheme", "af-elf", *_SIMULATE_SWEEP, "--table-grid", "3", "--restarts", "1"],
    "tune": ["--mu", "1", "--restarts", "1", "--max-rounds", "5"],
    "table": ["--grid", "3", "--restarts", "1", "--max-rounds", "5"],
    "scan": ["--quantity", "fisher", "--points", "3", "--restarts", "1", "--max-rounds", "5"],
    "scan-rhat0": ["--quantity", "rhat0", "--points", "3", "--restarts", "1", "--max-rounds", "5"],
    "runtime": ["--points", "2"],
}
# The library's own checks that a domain leaves in place name a field, not the flag:
# horizon >= 2L + 1, a mu within 1e-12 of a multiple of pi, and the runtime bounds' SPAM
# fidelity, whose square must stay a positive float.  These may refuse an in-domain
# value; each of _RULES below must.
_LIBRARY_MESSAGES = {
    ("runtime", "spam-fidelity"): "spam must lie in [1e-150, 1]",
    # A gate time of 1e300 s puts the bounds beyond the float range.
    ("runtime", "gate-time"): "and depth * gate_time 2e+302 give a runtime bound of inf s",
    ("simulate", "horizon"): "horizon must be >= ",
    ("simulate-af-elf", "horizon"): "horizon must be >= ",
    ("tune", "mu"): "mu=",
}

# The rules that must refuse an in-domain value, like ``_RULES`` in test_domains.py: the end of the
# message, the values refused, and values the sweep adds.  A scan's grid must give distinct Pi
# values with |Pi| < 1: fisher's theta ends whose cos rounds to +-1 give a Pi = +-1 entry, flagged.
# A table's grid must be strictly increasing and hold a point with |Pi| < 1: on the sweep base's
# 3 points over [-1, 1], an end too close to the other leaves no room for three distinct floats,
# and 2 points are Pi = -1 and 1 alone.
_TABLE_GRID = "must give a strictly increasing grid with a point in (-1, 1)"
_RULES = {
    **{
        ("scan", end): (
            "must give distinct Pi values in (-1, 1)",
            lambda v: 0.0 < v < math.pi and abs(math.cos(v)) == 1.0,
            ["1e-09"],
        )
        for end in ("min", "max")
    },
    ("table", "grid-min"): (
        _TABLE_GRID,
        lambda v: -1.0 <= v <= 1.0 and not (np.diff(np.linspace(v, 1.0, 3)) > 0.0).all(),
        [],
    ),
    ("table", "grid-max"): (
        _TABLE_GRID,
        lambda v: -1.0 <= v <= 1.0 and not (np.diff(np.linspace(-1.0, v, 3)) > 0.0).all(),
        [],
    ),
    ("table", "grid"): (_TABLE_GRID, lambda v: v == 2.0, []),
}
_NO_RULE = ("", lambda v: False, [])


def _domains(base: str, opt) -> list:
    """The domains an option's value is checked against, in order: its ``Opt``'s, then a scan grid end's quantity's."""
    args = _SWEEP_BASE[base]
    if opt.name in ("min", "max"):
        return [opt.domain, _SCAN_ENDS[args[args.index("--quantity") + 1]]]
    return [opt.domain]


def _edge_values(opt, domain: str):
    """The fixed edge set of an option: fixed values, and each finite end of ``domain`` with its neighbours."""
    ends = [math.pi if end == "pi" else float(end) for end in domain[1:-1].split(", ")]
    if opt.type is int:
        values = [0, -1] + [int(e) + d for e in ends if math.isfinite(e) for d in (-1, 0, 1)]
    else:
        values = [0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e-300]
        finite = [e for e in ends if math.isfinite(e)]
        values += [v for e in finite for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
    return list(dict.fromkeys(repr(v) for v in values))


def _in_domain(value: str, domain: str) -> bool:
    lo, hi = (math.pi if end == "pi" else float(end) for end in domain[1:-1].split(", "))
    v = float(value)
    return lo < v < hi or (domain[0] == "[" and v == lo) or (domain[-1] == "]" and v == hi)


@pytest.mark.parametrize(
    ("base", "name", "value"),
    [
        pytest.param(base, opt.name, value, id=f"{base}-{opt.name}={value}")
        for base in _SWEEP_BASE
        for opt in OPTIONS[base.split("-")[0]]
        if opt.domain
        for value in _edge_values(opt, _domains(base, opt)[-1]) + _RULES.get((base, opt.name), _NO_RULE)[2]
    ],
)
def test_every_option_at_its_edge_values(base, name, value, tmp_path, capsys, monkeypatch):
    # Each edge value runs (0), is a usage error (2), or trips the numeric guard (3) without an
    # errno tuple; nothing raises past main, and pytest turns a RuntimeWarning into an error.  A
    # value outside one of the option's domains is the usage error "--<name> must lie in <domain>,
    # got <value>", naming the first it leaves; one inside may be a usage error of the library's own
    # checks, and must be where one of _RULES refuses it, and only there.  A usage error starts no
    # tune, prints nothing on stdout and no seed, and writes no file.
    command = base.split("-")[0]
    tuned, tune = [], tuner.tune
    for path in ("elfkit.tuner.tune", "elfkit.cli.tune"):
        monkeypatch.setattr(path, lambda *a, **k: tuned.append(a) or tune(*a, **k))
    monkeypatch.chdir(tmp_path)
    argv = [command, *_SWEEP_BASE[base], f"--{name}={value}"]
    if name != "seed" and command != "runtime":
        argv.insert(1, "--seed=1")
    if command != "tune":
        argv.append(f"--out={tmp_path / 'out'}")
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    domains = _domains(base, next(o for o in OPTIONS[command] if o.name == name))
    outside = next((domain for domain in domains if not _in_domain(value, domain)), None)
    flag_message = f"--{name} must lie in {outside or domains[-1]}, got {value}"
    rule, refuses, _ = _RULES.get((base, name), _NO_RULE)
    refused = refuses(float(value))
    assert status in (0, 2, 3), err
    if outside:
        assert status == 2 and err.splitlines()[-1] == f"error: {flag_message}", err
    if refused or rule and rule in err:
        assert status == 2 and refused and err.endswith(f"{rule}\n"), err
    if status == 2:
        library_message = rule if refused else _LIBRARY_MESSAGES.get((base, name), flag_message)
        assert flag_message in err or library_message in err, err
        assert out == "" and "seed:" not in err and tuned == [] and list(tmp_path.iterdir()) == []
    elif status == 3:
        last = err.splitlines()[-1]
        assert last.startswith("numeric guard") and not re.search(r"\(\d+, '", last), err
    else:
        _strict_json(out if command == "tune" else (tmp_path / "out.json").read_text())
