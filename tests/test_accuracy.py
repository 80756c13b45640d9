"""The accuracy census runs, its figures hang together, and its compare mode flags a planted regression
(rate-ratio and rhat0-ratio drops among them) but not an added config or a file without ratios."""

import json


def test_write_and_compare_flag_a_planted_regression(tmp_path, run_script):
    old = tmp_path / "old.json"
    run = run_script("accuracy.py", "write", str(old), "--quick")
    assert run.returncode == 0, run.stderr
    items = json.loads(old.read_text())
    assert len(items) == 2 and all(sorted(seeds) == ["seed0", "seed1", "seed2"] for seeds in items.values())
    for seeds in items.values():
        for v in seeds.values():
            assert not v["aborted"] and v["excluded"] == 0
            assert 0.0 < v["rmse_lo"] <= v["final_rmse"] <= v["rmse_hi"]
            assert 0 <= v["beyond_5sd"] <= 64 and 0.0 <= v["within_3sd"] <= 1.0

    # The run_experiment config records its rate ratio against standard sampling, and the predicted one
    # (rhat0's), the same at every seed; the near/ row, one run_estimation per run, records neither.
    first, second = sorted(items)
    assert first.startswith("bench/") and second.startswith("near/")
    for v in items[first].values():
        assert v["ratio_lo"] <= v["rate_ratio"] <= v["ratio_hi"] and v["rate_ratio"] > 1.0
    assert len({v["rhat0_ratio"] for v in items[first].values()}) == 1 and items[first]["seed0"]["rhat0_ratio"] > 1.0
    assert not any("rate_ratio" in v or "rhat0_ratio" in v for v in items[second].values())

    # Plant a regression in each config: an RMSE above the old upper bound, a rate ratio below the
    # old lower bound and a smaller rhat0 ratio, and an aborted seed with one more run beyond 5 sd on another.
    planted = json.loads(old.read_text())
    planted[first]["seed1"]["final_rmse"] = 2.0 * items[first]["seed1"]["rmse_hi"]
    planted[first]["seed2"]["rate_ratio"] = 0.5 * items[first]["seed2"]["ratio_lo"]
    planted[first]["seed0"]["rhat0_ratio"] *= 0.999
    planted[second]["seed0"] = {"aborted": True}
    planted[second]["seed2"]["beyond_5sd"] += 1
    new = tmp_path / "new.json"
    new.write_text(json.dumps(planted))
    same = run_script("accuracy.py", "compare", str(old), str(old))
    assert same.returncode == 0 and same.stdout.startswith("no config does worse")
    diff = run_script("accuracy.py", "compare", str(old), str(new))
    assert diff.returncode == 1
    lines = diff.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [first, second]
    beyond = sum(items[second][s]["beyond_5sd"] for s in ("seed1", "seed2"))
    assert "seed1 rmse" in lines[0] and "seed2 rate ratio" in lines[0] and "seed0 rhat0 ratio" in lines[0]
    assert "seed1 rhat0" not in lines[0] and "seed2 rhat0" not in lines[0]
    assert "seed0 aborts" in lines[1] and f"beyond_5sd {beyond + 1} > {beyond}" in lines[1]
    # A better census is not a regression, and a file without ratios has none to fall short.
    assert run_script("accuracy.py", "compare", str(new), str(old)).returncode == 0
    for seeds in planted.values():
        for v in seeds.values():
            for key in ("rate_ratio", "ratio_lo", "ratio_hi", "rhat0_ratio"):
                v.pop(key, None)
    new.write_text(json.dumps(planted))
    for pair in ((old, new), (new, old)):
        assert " ratio " not in run_script("accuracy.py", "compare", *map(str, pair)).stdout


def test_compare_takes_a_config_only_the_new_file_holds_as_added(tmp_path, run_script):
    # A census with more configs than an older one is compared on the configs they share; one that
    # only the old file holds is still a regression.
    seed = {"aborted": False, "final_rmse": 0.01, "rmse_lo": 0.009, "rmse_hi": 0.011, "beyond_5sd": 0}
    seeds = {f"seed{m}": {**seed, "within_3sd": 1.0, "excluded": 0} for m in range(3)}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"kept": seeds}))
    new.write_text(json.dumps({"kept": seeds, "new/row": seeds}))
    grown = run_script("accuracy.py", "compare", str(old), str(new))
    assert grown.returncode == 0 and grown.stdout.splitlines() == ["no config does worse (1 configs)", "new/row: added"]
    shrunk = run_script("accuracy.py", "compare", str(new), str(old))
    assert shrunk.returncode == 1 and shrunk.stdout.splitlines() == ["new/row: only in the old file"]
