"""The output-fingerprint script runs, and its compare mode reports a planted change.

Exact hashes stay out of these tests: numpy's SIMD paths may change last bits between machines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import elfkit
import fingerprint

SCRIPT = Path(__file__).resolve().parent / "fingerprint.py"


def test_write_and_compare_report_a_planted_change(tmp_path):
    src = os.path.dirname(os.path.dirname(elfkit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    old = tmp_path / "old.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "write", str(old), "--quick"], env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    items = json.loads(old.read_text())
    # One hash per item, of every kind.
    assert {name.split("/")[0] for name in items} == {"tune", "table", "traces", "cli"}
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in items.values())

    # Plant a change: one item's hash differs, one item is gone, one is new.
    changed, gone = sorted(items)[:2]
    planted = {**items, changed: "0" * 64, "tune/planted": "1" * 64}
    del planted[gone]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(planted))
    args = [sys.executable, str(SCRIPT), "compare"]
    same = subprocess.run(args + [str(old), str(old)], env=env, capture_output=True, text=True)
    assert same.returncode == 0 and same.stdout.startswith("no item differs")
    diff = subprocess.run(args + [str(old), str(new)], env=env, capture_output=True, text=True)
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == sorted(
        [f"{changed}: differs", f"{gone}: only in the old file", "tune/planted: only in the new file"]
    )


def test_the_quick_items_repeat_within_a_process():
    # The outputs are pure functions of their inputs, so a second pass hashes the same.
    assert fingerprint.fingerprints(quick=True) == fingerprint.fingerprints(quick=True)
