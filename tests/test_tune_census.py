"""The tuned-value census runs, and its compare mode flags a planted fall and a missing item, not a rise."""

import json
import os
import subprocess
import sys
from pathlib import Path

import elfkit

SCRIPT = Path(__file__).resolve().parent / "tune_census.py"


def test_write_and_compare_flag_a_planted_fall(tmp_path):
    src = os.path.dirname(os.path.dirname(elfkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    old = tmp_path / "old.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "write", str(old), "--quick"], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    items = json.loads(old.read_text())
    assert {name.split("/")[0] for name in items} == {"tune", "table"}
    values = [v for v in items.values() if isinstance(v, float)]
    assert len(values) >= len(items) - 2 and all(v > 0.0 for v in values)  # the two table ends are flagged

    # Plant a fall of 1e-9 relative, a rise, and a missing item.
    fell, rose, gone = [name for name, v in items.items() if isinstance(v, float)][:3]
    planted = {**items, fell: items[fell] * (1.0 - 1e-9), rose: items[rose] * (1.0 + 1e-9)}
    del planted[gone]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(planted))
    args = [sys.executable, str(SCRIPT), "compare"]
    same = subprocess.run(args + [str(old), str(old)], env=env, capture_output=True, text=True)
    assert same.returncode == 0
    assert same.stdout.splitlines()[0] == f"{len(items)} identical, 0 rose, 0 fell ({len(items)} items)"
    diff = subprocess.run(args + [str(old), str(new)], env=env, capture_output=True, text=True)
    assert diff.returncode == 1
    head, *lines = diff.stdout.splitlines()
    assert head == f"{len(items) - 3} identical, 1 rose, 1 fell ({len(items)} items)"
    listed = {line.split(":")[0]: line for line in lines}
    assert sorted(listed) == sorted([fell, gone])
    assert "fell by 1e-09 relative" in listed[fell] and "only in the old file" in listed[gone]
    # A rise alone is not listed.
    risen = tmp_path / "risen.json"
    risen.write_text(json.dumps({**items, rose: items[rose] * (1.0 + 1e-9)}))
    assert subprocess.run(args + [str(old), str(risen)], env=env, capture_output=True).returncode == 0
