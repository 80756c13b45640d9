"""Exit codes of the command-line entry point for unreadable config files."""

import json

import pytest

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


@pytest.mark.parametrize("command", ["tune", "table", "scan", "runtime"])
def test_threads_is_a_simulate_option_only(command, tmp_path, capsys):
    # The flag is a usage error (argparse exits 2), and so is the config key.
    with pytest.raises(SystemExit) as info:
        main([command, "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text('{"threads": 2}')
    assert main([command, "--config", str(path)]) == 2
    assert "threads" in capsys.readouterr().err


def test_simulate_takes_threads(tmp_path):
    argv = ["simulate", "--scheme", "af-clf", "--true-pi", "0.1", "--prior-mean", "0.12", "--runs", "3"]
    argv += ["--horizon", "30", "--seed", "1", "--threads", "2", "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "run.json").read_text())["config"]["threads"] == 2
