"""The command-line entry point: exit codes, options, and the cost of importing it."""

import json
import os
import subprocess
import sys

import pytest

import elfkit
from elfkit.cli import main


@pytest.mark.parametrize("command", ["tune", "runtime"])
def test_missing_config_file_exits_4(command, tmp_path, capsys):
    assert main([command, "--config", str(tmp_path / "absent.json")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["runtime", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_tune_rejects_zero_max_rounds(capsys):
    # A zero round budget used to return the untuned starts with exit 0.
    assert main(["tune", "--mu", "1.0", "--max-rounds", "0"]) == 2
    assert "max_rounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "flag", "value"),
    [pytest.param(c, "threads", 2, id=c) for c in ("tune", "table", "scan", "runtime")]
    # tune has one ascent method, so it takes no --method.
    + [pytest.param("tune", "method", "grad", id="tune-method")],
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


@pytest.mark.parametrize("fit_points", ["1", "0"])
def test_simulate_rejects_fewer_than_two_fit_points(fit_points, tmp_path, capsys):
    # A usage error (2) from the config's check, not a numeric guard (3).
    argv = ["simulate", "--scheme", "af-clf", "--true-pi", "0.1", "--prior-mean", "0.12", "--runs", "3"]
    argv += ["--horizon", "30", "--seed", "1", "--fit-points", fit_points, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert "fit_points" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # SciPy costs about half a second to import; only the runtime ODE needs it.
    src = os.path.dirname(os.path.dirname(elfkit.__file__))
    code = "import sys, elfkit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
