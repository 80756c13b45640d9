"""The tuned-value census runs, and its compare mode flags a planted fall and a missing item, not a rise."""

import json


def test_write_and_compare_flag_a_planted_fall(tmp_path, run_script):
    old = tmp_path / "old.json"
    run = run_script("tune_census.py", "write", str(old), "--quick")
    assert run.returncode == 0, run.stderr
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
    same = run_script("tune_census.py", "compare", str(old), str(old))
    assert same.returncode == 0
    assert same.stdout.splitlines()[0] == f"{len(items)} identical, 0 rose, 0 fell ({len(items)} items)"
    diff = run_script("tune_census.py", "compare", str(old), str(new))
    assert diff.returncode == 1
    head, *lines = diff.stdout.splitlines()
    assert head == f"{len(items) - 3} identical, 1 rose, 1 fell ({len(items)} items)"
    listed = {line.split(":")[0]: line for line in lines}
    assert sorted(listed) == sorted([fell, gone])
    assert "fell by 1e-09 relative" in listed[fell] and "only in the old file" in listed[gone]
    # A rise alone is not listed.
    risen = tmp_path / "risen.json"
    risen.write_text(json.dumps({**items, rose: items[rose] * (1.0 + 1e-9)}))
    assert run_script("tune_census.py", "compare", str(old), str(risen)).returncode == 0
