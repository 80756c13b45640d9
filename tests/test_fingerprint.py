"""The output-fingerprint script runs, and its compare mode reports a planted change.

Exact hashes stay out of these tests: numpy's SIMD paths may change last bits between machines.
"""

import json

import fingerprint


def test_write_and_compare_report_a_planted_change(tmp_path, run_script):
    old = tmp_path / "old.json"
    run = run_script("fingerprint.py", "write", str(old), "--quick")
    assert run.returncode == 0, run.stderr
    items = json.loads(old.read_text())
    # One hash per item, of every kind.
    assert {name.split("/")[0] for name in items} == {"tune", "table", "traces", "records", "cli"}
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in items.values())

    # Plant a change: one item's hash differs, one item is gone, one is new.
    changed, gone = sorted(items)[:2]
    planted = {**items, changed: "0" * 64, "tune/planted": "1" * 64}
    del planted[gone]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(planted))
    same = run_script("fingerprint.py", "compare", str(old), str(old))
    assert same.returncode == 0 and same.stdout.startswith("no item differs")
    diff = run_script("fingerprint.py", "compare", str(old), str(new))
    assert diff.returncode == 1
    assert diff.stdout.splitlines() == sorted(
        [f"{changed}: differs", f"{gone}: only in the old file", "tune/planted: only in the new file"]
    )


def test_the_quick_items_repeat_within_a_process():
    # The outputs are pure functions of their inputs, so a second pass hashes the same.
    assert fingerprint.fingerprints(quick=True) == fingerprint.fingerprints(quick=True)
