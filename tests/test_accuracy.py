"""The accuracy census runs, its figures hang together, and its compare mode flags a planted regression
(rate-ratio and rhat0-ratio drops and a calibration rise among them) but not an added config or a file without
ratios; the narrow ``bayes/`` row at one seed is calibrated and no better than the exact posterior's floor, whose
count formula matches a sum over every outcome sequence."""

import itertools
import json

import numpy as np
import pytest

import accuracy

# The narrow ``bayes/`` row's calibration ratio E[(theta* - m)^2] / E[v] over 256 runs read 0.892-1.279 at master
# seeds 0-19 (mean 1.070, sd 0.111); the band widens that range by a margin of 0.1, about one sd.
NARROW = "bayes/narrow/af-clf-L3"
CALIBRATION_BAND = (0.79, 1.38)


@pytest.fixture(scope="module")
def narrow_row():
    return accuracy.bayes_census(accuracy.CONFIGS[NARROW], 256, 0)


def test_the_narrow_bayes_row_is_calibrated(narrow_row):
    # Truth drawn from the engine's own prior: the exact posterior's ratio is 1, and a Gaussian belief that
    # tracks it stays in the band, with every run kept and none beyond 5 sd.
    lo, hi = CALIBRATION_BAND
    assert lo <= narrow_row["calibration"] <= hi
    assert narrow_row["calibration_lo"] <= narrow_row["calibration"] <= narrow_row["calibration_hi"]
    assert narrow_row["theta_rmse_lo"] <= narrow_row["theta_rmse"] <= narrow_row["theta_rmse_hi"]
    assert (narrow_row["excluded"], narrow_row["beyond_5sd"]) == (0, 0)


def test_the_floor_sums_over_counts_as_over_every_outcome_sequence(narrow_row):
    # At 10 rounds (horizon 10 (2L + 1)) the risk over counts with binomial weights equals the risk of
    # the exact posterior mean summed over all 2^10 outcome sequences, each with its own likelihood.
    for name in ("bayes/wide/af-clf-L1", "bayes/wide/ab-clf-L3", "bayes/edge/af-clf-L3"):
        config = accuracy.CONFIGS[name]._replace(horizon=10 * (2 * accuracy.CONFIGS[name].layers + 1))
        theta, weight, p1 = accuracy.outcome_grid(config, 2000)
        risk = 0.0
        for outcomes in itertools.product((0, 1), repeat=10):
            joint = weight * np.prod([p1 if d else 1.0 - p1 for d in outcomes], axis=0)
            risk += float((joint * (theta - (theta @ joint) / joint.sum()) ** 2).sum())
        assert accuracy.bayes_floor(config, 2000) == pytest.approx(np.sqrt(risk), rel=1e-12), name
    # No estimator beats the exact posterior mean's risk by more than the bootstrap allows.
    assert narrow_row["theta_rmse_hi"] >= narrow_row["theta_floor"]


def test_write_and_compare_flag_a_planted_regression(tmp_path, run_script, narrow_row):
    old = tmp_path / "old.json"
    run = run_script("accuracy.py", "write", str(old), "--quick")
    assert run.returncode == 0, run.stderr
    items = json.loads(old.read_text())
    assert len(items) == 3 and all(sorted(seeds) == ["seed0", "seed1", "seed2"] for seeds in items.values())
    narrow, first, second = sorted(items)
    assert narrow == NARROW and first.startswith("bench/") and second.startswith("near/")
    for seeds in (items[first], items[second]):
        for v in seeds.values():
            assert not v["aborted"] and v["excluded"] == 0
            assert 0.0 < v["rmse_lo"] <= v["final_rmse"] <= v["rmse_hi"]
            assert 0 <= v["beyond_5sd"] <= 64 and 0.0 <= v["within_3sd"] <= 1.0
    # The quick census's bayes/ row, at 64 runs, records the theta figures and its floor.
    for v in items[NARROW].values():
        assert not v["aborted"] and v["excluded"] == 0 and 0 <= v["beyond_5sd"] <= 64
        assert v["theta_rmse_lo"] <= v["theta_rmse"] <= v["theta_rmse_hi"]
        assert v["calibration_lo"] <= v["calibration"] <= v["calibration_hi"]
        assert v["theta_floor"] == narrow_row["theta_floor"]

    # The run_experiment config records its rate ratio against standard sampling, and the predicted one
    # (rhat0's), the same at every seed; the near/ row, one run_estimation per run, records neither.
    for v in items[first].values():
        assert v["ratio_lo"] <= v["rate_ratio"] <= v["ratio_hi"] and v["rate_ratio"] > 1.0
    assert len({v["rhat0_ratio"] for v in items[first].values()}) == 1 and items[first]["seed0"]["rhat0_ratio"] > 1.0
    assert not any("rate_ratio" in v or "rhat0_ratio" in v for v in items[second].values())

    # Plant a regression in each config: an RMSE above the old upper bound, a rate ratio below the
    # old lower bound and a smaller rhat0 ratio, an aborted seed with one more run beyond 5 sd on another,
    # and a calibration ratio above the old upper bound.
    planted = json.loads(old.read_text())
    planted[first]["seed1"]["final_rmse"] = 2.0 * items[first]["seed1"]["rmse_hi"]
    planted[first]["seed2"]["rate_ratio"] = 0.5 * items[first]["seed2"]["ratio_lo"]
    planted[first]["seed0"]["rhat0_ratio"] *= 0.999
    planted[second]["seed0"] = {"aborted": True}
    planted[second]["seed2"]["beyond_5sd"] += 1
    planted[NARROW]["seed1"]["calibration"] = 1.01 * items[NARROW]["seed1"]["calibration_hi"]
    new = tmp_path / "new.json"
    new.write_text(json.dumps(planted))
    same = run_script("accuracy.py", "compare", str(old), str(old))
    assert same.returncode == 0 and same.stdout.startswith("no config does worse")
    diff = run_script("accuracy.py", "compare", str(old), str(new))
    assert diff.returncode == 1
    lines = diff.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [NARROW, first, second]
    raised, hi = planted[NARROW]["seed1"]["calibration"], items[NARROW]["seed1"]["calibration_hi"]
    assert lines.pop(0) == f"{NARROW}: seed1 calibration {raised:.4g} > {hi:.4g}"
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
