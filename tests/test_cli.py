"""Exit codes of the command-line entry point for unreadable config files."""

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
