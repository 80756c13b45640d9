"""Accuracy census: final estimation error of fixed configs, and a comparison of two census files.

    PYTHONPATH=src python tests/accuracy.py write FILE [--quick]
    PYTHONPATH=src python tests/accuracy.py compare OLD NEW

``write`` runs every config with the ``elfkit`` found on the path, so one copy
of this script measures any tree: point ``PYTHONPATH`` at that tree's ``src``.
All configs use the benchmark's device (layer fidelity 0.95, SPAM fidelity
0.99) and 256 runs at each master seed 0-2.  The configs are

- ``wide/...``, ``narrow/...``, ``edge/...``: the ``run_experiment`` rows of
  the accuracy table of ROADMAP direction 1 at horizon 3000 (the ``*-elf``
  rows read an AF L=3 table of 41 points, 10 restarts, ``max_rounds`` 100,
  seed 1).  The edge config aborts at the time of writing;
- ``bench/...``: the benchmark's three ``experiment`` kinds at three Pi
  values, the prior mean 0.02 above Pi with sd 0.03 (the ``*-elf`` kinds read
  the benchmark's 17-point tables);
- ``near/...``: the benchmark's ``adaptive`` near-edge kind (true Pi 0.995 or
  -0.993, prior +-0.9 with sd 0.2, horizon 300) at the Chebyshev angles, AF and
  AB at L = 1..3, one ``run_estimation`` call per run;
- the rows that can judge a depth rule, at horizon 3000 (ROADMAP direction
  18): ``offcentre/...``, true Pi 0.2 under the wide rows' prior 0 +- 0.3, so
  that a run which stays at its prior mean shows its error, as it need not
  where the prior is centred on Pi; ``deep/af-clf-L6``, true Pi 0.1 under a
  prior 0.12 +- 0.03; and ``edge/ab-clf-L3``, AB at the edge rows' Pi and
  prior;
- ``bayes/...``: the truth drawn from the prior (ROADMAP direction 19), at the
  Chebyshev angles, one ``run_estimation`` call per run: ``wide/`` rows AF
  L = 1, 2, 3 and 6 and AB L = 3 and 5 under the prior 0 +- 0.3 at horizon
  3000, ``narrow/af-clf-L3`` under 0.3 +- 0.03 at horizon 1400, and
  ``edge/af-clf-L3`` under -0.9 +- 0.1 at horizon 3000.  Each run draws its
  true theta from the engine's own theta prior, ``pi_to_theta(prior)``,
  redrawn until it lies in (0, pi), on a stream keyed by the run index
  (``SeedSequence(master, spawn_key=(run,))``), apart from the run's outcome
  stream (seed master * 10^6 + run, as the ``near/`` rows).

For each other config and master seed a census records the final RMSE in
Pi over the runs that were not excluded, with a bootstrap 95% interval (1000
resamples), the runs whose final estimate lies more than 5 perceived sd from
Pi, the share within 3 perceived sd, the excluded runs, and whether the
experiment aborted.  A ``run_experiment`` config also runs its ``standard``
twin (the same true Pi, horizon, runs and master seed, so the same run
streams) and records the ratio of the two ``growth_rate``s (ROADMAP
direction 17), with a bootstrap 95% interval that resamples the runs in
pairs, the same resamples as the RMSE's.  An aborting seed and the
``near/...`` rows, which run no ``run_experiment`` and so have no
``TraceSeries``, record no ratio.  Every seed of a ``run_experiment`` config,
an aborting one too, also records ``rhat0_ratio``: ``metrics.rhat0`` of the
angles its runs use at the true Pi (the Chebyshev angles, or the valid table
entry nearest the true Pi, ``tests/table_oracle.py``) over standard
sampling's rate f0^2 / (1 - f0^2 Pi^2), the predicted form of the rate ratio.
A ``bayes/`` row records instead, over the runs not excluded, the
final theta-RMSE against each run's truth and the calibration ratio
E[(theta* - m)^2] / E[v] of the final theta moments (m, v), which is 1 for the
exact posterior, each with a bootstrap 95% interval over the same resamples,
the runs beyond 5 sd and the excluded runs, and beside them the row's floor,
the exact posterior's Bayes-risk theta-RMSE (``bayes_floor``): with one angle
vector the outcomes are i.i.d., so the posterior depends only on the count of
1s, and the risk is a sum over counts with binomial weights, on a theta grid
under the truncated theta prior the runs draw from.  ``--quick`` writes three
Chebyshev configs at 64 runs, ``bayes/narrow/af-clf-L3`` among them, so that
its theta draws and outcome streams repeat across processes too.

``compare`` lists each config that the new file does worse on, and exits 1 if
there is any: a seed newly aborted, more excluded runs or more runs beyond
5 sd over the seeds, a final RMSE above the old file's upper bound at some
seed, a theta-RMSE or calibration ratio above the old file's upper bound at
some seed, a rate ratio below the old file's lower bound at some seed, an
``rhat0`` ratio below the old file's at some seed (a file without ratios
counts as having none), or a config that only the old file holds.  A config
that only the new file holds is listed as added, which is no regression.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

import census_cli
from elfkit.bias import Scheme, bias, clf_angles
from elfkit.inference import EstimationConfig, pi_to_theta, run_estimation
from elfkit.metrics import GaussianBelief, NoiseModel, rhat0, round_times
from elfkit.sim import FIT_WINDOW_FRACTION, ExperimentConfig, _growth_rate, run_experiment
from elfkit.tuner import build_lookup_table, chebyshev_table
from table_oracle import nearest_valid_entry

DEVICE = NoiseModel(0.95, 0.99)
RUNS, QUICK_RUNS = 256, 64
MASTER_SEEDS = (0, 1, 2)
BOOTSTRAP = 1000
# The theta grid of the exact Bayes-risk floor: its figures agree with 80000 points to about 1e-10.
FLOOR_POINTS = 20000


class Config(NamedTuple):
    scheme: str
    layers: int
    true_pi: float | None  # None for a ``bayes/`` row, whose runs draw theirs
    prior_mean: float
    prior_sd: float
    horizon: int
    table: tuple | None  # (scheme, layers) of a table built once per census (``_table``)


L3_TABLE = ("af", 3)
CONFIGS = {
    "wide/af-clf-L3": Config("af-clf", 3, 0.0, 0.0, 0.3, 3000, None),
    "wide/af-clf-L2": Config("af-clf", 2, 0.0, 0.0, 0.3, 3000, None),
    "edge/af-clf-L3": Config("af-clf", 3, -0.995, -0.9, 0.1, 3000, None),
    "narrow/af-elf-L3": Config("af-elf", 3, 0.3, 0.32, 0.03, 3000, L3_TABLE),
    "wide/af-elf-L3": Config("af-elf", 3, 0.0, 0.0, 0.3, 3000, L3_TABLE),
    "edge/af-elf-L3": Config("af-elf", 3, -0.995, -0.9, 0.1, 3000, L3_TABLE),
    **{
        f"bench/{scheme}-L{layers}/pi{pi:+}": Config(scheme, layers, pi, pi + 0.02, 0.03, horizon, table)
        for scheme, layers, horizon, table in (
            ("af-elf", 2, 1000, ("af", 2)),
            ("ab-elf", 2, 1000, ("ab", 2)),
            ("af-clf", 3, 1400, None),
        )
        for pi in (-0.6, 0.1, 0.7)
    },
    **{
        f"near/{scheme}-L{layers}/pi{pi:+}": Config(scheme, layers, pi, math.copysign(0.9, pi), 0.2, 300, None)
        for scheme in ("af-clf", "ab-clf")
        for layers in (1, 2, 3)
        for pi in (0.995, -0.993)
    },
    **{
        f"offcentre/{scheme}-L{layers}": Config(scheme, layers, 0.2, 0.0, 0.3, 3000, table)
        for scheme, layers, table in (
            ("af-clf", 3, None),
            ("af-clf", 6, None),
            ("ab-clf", 3, None),
            ("ab-clf", 5, None),
            ("af-elf", 3, L3_TABLE),
        )
    },
    "deep/af-clf-L6": Config("af-clf", 6, 0.1, 0.12, 0.03, 3000, None),
    "edge/ab-clf-L3": Config("ab-clf", 3, -0.995, -0.9, 0.1, 3000, None),
    **{
        f"bayes/wide/{scheme}-L{layers}": Config(scheme, layers, None, 0.0, 0.3, 3000, None)
        for scheme, layers in (("af-clf", 1), ("af-clf", 3), ("ab-clf", 3), ("af-clf", 2), ("af-clf", 6), ("ab-clf", 5))
    },
    "bayes/narrow/af-clf-L3": Config("af-clf", 3, None, 0.3, 0.03, 1400, None),
    "bayes/edge/af-clf-L3": Config("af-clf", 3, None, -0.9, 0.1, 3000, None),
}
QUICK = ("bench/af-clf-L3/pi+0.1", "near/ab-clf-L1/pi+0.995", "bayes/narrow/af-clf-L3")


def _table(key):
    """The table of a config's ``table`` key: ROADMAP's AF L=3 table, or one of the benchmark's set-up tables."""
    scheme, layers = Scheme(key[0]), key[1]
    if key == L3_TABLE:
        return build_lookup_table(scheme, layers, DEVICE, 41, restarts=10, seed=1, max_rounds=100)
    return build_lookup_table(scheme, layers, DEVICE, 17, restarts=2, seed=2020, max_rounds=50)


def _bias_scheme(config: Config) -> Scheme:
    return Scheme.AB if config.scheme.startswith("ab") else Scheme.AF


def _final_beliefs(name: str, table, runs: int, master: int):
    """(estimates, perceived variances, alive, traces) of each run at the horizon; None if the experiment aborts.

    ``traces`` holds the ``TraceSeries`` of the config and of its ``standard`` twin, or None for a ``near/`` row.
    """
    scheme, layers, true_pi, mean, sd, horizon, _ = CONFIGS[name]
    prior = GaussianBelief(mean, sd * sd)
    if not name.startswith("near/"):
        try:
            traces = run_experiment(
                ExperimentConfig(scheme, true_pi, prior, layers, DEVICE, runs, horizon, master, table)
            )
        except FloatingPointError:
            return None
        twin = run_experiment(ExperimentConfig("standard", true_pi, None, layers, DEVICE, runs, horizon, master))
        alive = np.ones(runs, dtype=bool)
        alive[traces.excluded_runs] = False
        return traces.estimates[:, -1], traces.perceived_var[:, -1], alive, (traces, twin)
    bias_scheme = _bias_scheme(CONFIGS[name])
    est, var, alive = np.zeros(runs), np.ones(runs), np.ones(runs, dtype=bool)
    for i in range(runs):
        run = EstimationConfig(bias_scheme, layers, DEVICE, prior, true_pi, horizon, master * 10**6 + i, "clf")
        try:
            last = run_estimation(run)[-1]
        except ValueError:  # the run's update left the Gaussians: it is excluded
            alive[i] = False
            continue
        est[i], var[i] = last.pi_belief.mean, last.pi_belief.variance
    return est, var, alive, None


def _rhat0_ratio(config: Config, table) -> float:
    """``rhat0`` of the angles a config's runs use at its true Pi over standard sampling's f0^2 / (1 - f0^2 Pi^2)."""
    scheme, f0 = _bias_scheme(config), DEVICE.spam_fidelity
    angles = nearest_valid_entry(table or chebyshev_table(config.layers), config.true_pi).angles
    rate = rhat0(scheme, config.true_pi, DEVICE.process_fidelity(config.layers), angles)
    return rate * (1.0 - (f0 * config.true_pi) ** 2) / f0**2


def _growth_rates(traces, resamples, true_pi: float, horizon: int) -> np.ndarray:
    """The inverse-MSE growth rate of ``traces`` over each resample, a row of run indices."""
    late = traces.times >= FIT_WINDOW_FRACTION * horizon
    times, err_sq = traces.times[late], (traces.estimates[:, late] - true_pi) ** 2
    with np.errstate(divide="ignore"):
        return np.array([_growth_rate(times, 1.0 / err_sq[rows].mean(axis=0), horizon) for rows in resamples])


def outcome_grid(config: Config, points: int = FLOOR_POINTS):
    """(theta, weight, p1) of a ``bayes/`` row on the midpoint grid of (0, pi) with ``points`` cells.

    The weights are the row's truncated theta prior, normalized on the grid; p1 is the chance of
    outcome 1 at the Chebyshev angles, (1 - f bias) / 2, as the engine draws it.
    """
    theta_prior = pi_to_theta(GaussianBelief(config.prior_mean, config.prior_sd**2))
    theta = (np.arange(points) + 0.5) * (math.pi / points)
    weight = np.exp(-0.5 * ((theta - theta_prior.mean) / theta_prior.std) ** 2)
    f = DEVICE.process_fidelity(config.layers)
    return theta, weight / weight.sum(), (1.0 - f * bias(_bias_scheme(config), theta, clf_angles(config.layers))) / 2.0


def bayes_floor(config: Config, points: int = FLOOR_POINTS) -> float:
    """The exact posterior's Bayes-risk theta-RMSE of a ``*-clf`` ``bayes/`` row over its rounds.

    One angle vector makes the outcomes i.i.d., so the posterior depends only on the count k of 1s
    in n rounds: the risk is the sum over k and the ``outcome_grid`` of prior weight times the
    binomial chance of k, times the squared distance of theta from the posterior mean given k.
    """
    theta, weight, p1 = outcome_grid(config, points)
    n = round_times(config.layers, config.horizon).size
    counts = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in counts])
    log_p1, log_p0 = np.log(p1)[:, None], np.log1p(-p1)[:, None]
    risk = 0.0
    for k in np.array_split(counts, (n + 64) // 64):  # 64 counts at a time bound the (points, counts) block
        joint = weight[:, None] * np.exp(log_choose[k] + k * log_p1 + (n - k) * log_p0)
        mean = (theta @ joint) / joint.sum(axis=0)
        risk += float((joint * (theta[:, None] - mean) ** 2).sum())
    return math.sqrt(risk)


def bayes_census(config: Config, runs: int, master: int) -> dict:
    """The theta figures of a ``bayes/`` row at one master seed, each run's truth drawn from the theta prior."""
    prior = GaussianBelief(config.prior_mean, config.prior_sd**2)
    theta_prior = pi_to_theta(prior)
    truth, mean, var = np.zeros(runs), np.zeros(runs), np.ones(runs)
    alive = np.ones(runs, dtype=bool)
    for i in range(runs):
        draws = np.random.default_rng(np.random.SeedSequence(master, spawn_key=(i,)))
        while not 0.0 < (theta := draws.normal(theta_prior.mean, theta_prior.std)) < math.pi:
            pass
        truth[i] = theta
        run = EstimationConfig(
            _bias_scheme(config), config.layers, DEVICE, prior, math.cos(theta), config.horizon, master * 10**6 + i, "clf"
        )
        try:
            last = run_estimation(run)[-1]
        except ValueError:  # the run's update left the Gaussians: it is excluded
            alive[i] = False
            continue
        mean[i], var[i] = last.theta_mean, last.theta_variance
    sq, v = (truth - mean)[alive] ** 2, var[alive]
    picks = np.random.default_rng(0).integers(0, sq.size, (BOOTSTRAP, sq.size))
    rmse_lo, rmse_hi = np.percentile(np.sqrt(sq[picks].mean(axis=1)), [2.5, 97.5])
    ratio_lo, ratio_hi = np.percentile(sq[picks].mean(axis=1) / v[picks].mean(axis=1), [2.5, 97.5])
    return {
        "aborted": False,
        "theta_rmse": float(np.sqrt(sq.mean())),
        "theta_rmse_lo": float(rmse_lo),
        "theta_rmse_hi": float(rmse_hi),
        "calibration": float(sq.mean() / v.mean()),
        "calibration_lo": float(ratio_lo),
        "calibration_hi": float(ratio_hi),
        "beyond_5sd": int(np.count_nonzero(sq > 25.0 * v)),
        "excluded": int(np.count_nonzero(~alive)),
        "theta_floor": bayes_floor(config),
    }


def census(name: str, table, runs: int, master: int) -> dict:
    """The figures of one config at one master seed."""
    if name.startswith("bayes/"):
        return bayes_census(CONFIGS[name], runs, master)
    true_pi, horizon = CONFIGS[name].true_pi, CONFIGS[name].horizon
    predicted = {} if name.startswith("near/") else {"rhat0_ratio": _rhat0_ratio(CONFIGS[name], table)}
    beliefs = _final_beliefs(name, table, runs, master)
    if beliefs is None:
        return {"aborted": True, **predicted}
    est, var, alive, traces = beliefs
    err, sd = est[alive] - true_pi, np.sqrt(var[alive])
    sq = err * err
    picks = np.random.default_rng(0).integers(0, sq.size, (BOOTSTRAP, sq.size))
    lo, hi = np.percentile(np.sqrt(sq[picks].mean(axis=1)), [2.5, 97.5])
    ratio = {}
    if traces is not None:
        pairs = np.flatnonzero(alive)[picks]
        rates = [_growth_rates(t, pairs, true_pi, horizon) for t in traces]
        ratio_lo, ratio_hi = np.percentile(rates[0] / rates[1], [2.5, 97.5])
        ratio = {
            "rate_ratio": traces[0].growth_rate / traces[1].growth_rate,
            "ratio_lo": float(ratio_lo),
            "ratio_hi": float(ratio_hi),
        }
    return {
        "aborted": False,
        "final_rmse": float(np.sqrt(sq.mean())),
        "rmse_lo": float(lo),
        "rmse_hi": float(hi),
        "beyond_5sd": int(np.count_nonzero(np.abs(err) > 5.0 * sd)),
        "within_3sd": float(np.count_nonzero(np.abs(err) <= 3.0 * sd) / sq.size),
        "excluded": int(np.count_nonzero(~alive)),
        **ratio,
        **predicted,
    }


def accuracy(quick: bool = False) -> dict:
    names = QUICK if quick else tuple(CONFIGS)
    keys = {CONFIGS[name].table for name in names} - {None}
    tables = {key: _table(key) for key in sorted(keys)}
    runs = QUICK_RUNS if quick else RUNS
    return {
        name: {
            f"seed{m}": census(name, tables.get(CONFIGS[name].table), runs, m) for m in MASTER_SEEDS
        }
        for name in names
    }


def regressions(old: dict, new: dict) -> tuple[list[str], bool]:
    """One line per config that the new census does worse on, or that only the old one holds (else one line saying
    so), then one per config that only the new one holds, as added; and whether there is a line of the first kind."""
    lines, added = [], [f"{name}: added" for name in sorted(new.keys() - old.keys())]
    for name in sorted(old.keys()):
        if name not in new:
            lines.append(f"{name}: only in the old file")
            continue
        a, b = old[name], new[name]
        why = [f"{s} aborts" for s in sorted(b) if b[s]["aborted"] and not a.get(s, {}).get("aborted")]
        done = [s for s in sorted(a.keys() & b.keys()) if not a[s]["aborted"] and not b[s]["aborted"]]
        for key in ("excluded", "beyond_5sd"):
            if (m := sum(b[s][key] for s in done)) > (n := sum(a[s][key] for s in done)):
                why.append(f"{key} {m} > {n}")
        for label, key, hi in (
            ("rmse", "final_rmse", "rmse_hi"),
            ("theta rmse", "theta_rmse", "theta_rmse_hi"),
            ("calibration", "calibration", "calibration_hi"),
        ):
            why += [f"{s} {label} {b[s][key]:.4g} > {a[s][hi]:.4g}" for s in done
                    if b[s].get(key, -math.inf) > a[s].get(hi, math.inf)]
        why += [f"{s} rate ratio {b[s]['rate_ratio']:.4g} < {a[s]['ratio_lo']:.4g}" for s in done
                if b[s].get("rate_ratio", math.inf) < a[s].get("ratio_lo", -math.inf)]
        why += [f"{s} rhat0 ratio {b[s]['rhat0_ratio']:.6g} < {a[s]['rhat0_ratio']:.6g}" for s in sorted(a.keys() & b.keys())
                if b[s].get("rhat0_ratio", math.inf) < a[s].get("rhat0_ratio", -math.inf)]
        if why:
            lines.append(f"{name}: " + ", ".join(why))
    return (lines or [f"no config does worse ({len(old)} configs)"]) + added, bool(lines)


def summary(items: dict) -> list[str]:
    """One line per config: the range over seeds of the final RMSE, of the runs beyond 5 sd and of the ratios to
    standard sampling, and the aborts; for a ``bayes/`` row, each seed's theta-RMSE and calibration ratio with their
    intervals, the row's floor beside the theta-RMSE, and the runs beyond 5 sd."""
    lines = []
    for name, seeds in items.items():
        done = [v for v in seeds.values() if not v["aborted"]]
        aborts = len(seeds) - len(done)
        text = f"{name}: aborts {aborts}/{len(seeds)}"
        if name.startswith("bayes/"):
            for s, v in seeds.items():
                text += f"; {s} theta rmse {v['theta_rmse']:.3g} [{v['theta_rmse_lo']:.3g}, {v['theta_rmse_hi']:.3g}]"
                text += f" (floor {v['theta_floor']:.3g})"
                text += f", calibration {v['calibration']:.3g} [{v['calibration_lo']:.3g}, {v['calibration_hi']:.3g}]"
                text += f", beyond 5 sd {v['beyond_5sd']}, excluded {v['excluded']}"
        elif done:
            rmse = [v["final_rmse"] for v in done]
            beyond = [v["beyond_5sd"] for v in done]
            excluded = sum(v["excluded"] for v in done)
            text += f", rmse {min(rmse):.3g}-{max(rmse):.3g}, beyond 5 sd {min(beyond)}-{max(beyond)}"
            text += f", within 3 sd {min(v['within_3sd'] for v in done):.3f}+, excluded {excluded}"
            if ratios := [v["rate_ratio"] for v in done if "rate_ratio" in v]:
                text += f", rate ratio {min(ratios):.3g}-{max(ratios):.3g}"
        if predicted := {v["rhat0_ratio"] for v in seeds.values() if "rhat0_ratio" in v}:
            text += f", rhat0 ratio {min(predicted):.3g}"
        lines.append(text)
    return lines


def main(argv=None) -> int:
    helps = (
        "run the census with the elfkit on the path",
        "three Chebyshev configs at 64 runs",
        "list the configs that the new census does worse on",
    )
    return census_cli.main(argv, __doc__, helps, accuracy, regressions, "configs", summary)


if __name__ == "__main__":
    sys.exit(main())
