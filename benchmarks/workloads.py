"""The benchmark's workloads, their set-up, and the checks on their outputs.

Each workload turns its seed into a fixed list of calls (a "pass") into the
public elfkit API.  ``run_op`` performs one call and returns an ``Outcome``;
a call that raises is an outcome too, counted as failed, never dropped.
All calls use ``threads=1``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from elfkit import algebra, bias, cli, csbd, inference, metrics, sim, tuner

from harness import OpCounts

LAYER_MODULES = [algebra, bias, csbd, tuner, inference, sim, metrics, cli]

AF, AB = bias.Scheme.AF, bias.Scheme.AB
# One simulated device for every estimation call, and the lookup tables tuned
# for it.  The tables come from a fixed seed, so all seeds share them.
DEVICE = metrics.NoiseModel(layer_fidelity=0.95, spam_fidelity=0.99)
TABLE_SEED = 2020
TABLE_GRID = 17
TABLE_TUNE = {"restarts": 2, "max_rounds": 50}
# Cold tunes of the tuning workload; its tables are tuned like the set-up ones.
TUNING_TUNE = {"restarts": 3, "max_rounds": 100}

# One Monte Carlo call is one lockstep chunk of runs, so that a run makes
# enough calls for a median latency.
EXPERIMENT_RUNS = sim.CHUNK_SIZE
EXPERIMENT_KINDS = (("af-elf", 2, 1000), ("ab-elf", 2, 1000), ("af-clf", 3, 1400))
# The configuration that aborts a whole experiment (true Pi near -1).
EDGE_EXPERIMENT = {"scheme": "af-clf", "true_pi": -0.995, "prior": (-0.9, 0.1), "layers": 3, "horizon": 3000}

ADAPTIVE_KINDS = (
    (AF, 1, "table"),
    (AB, 1, "table"),
    (AF, 2, "table"),
    (AB, 2, "table"),
    (AF, 2, "clf"),
    (AB, 2, "clf"),
    (AF, 3, "clf"),
    (AB, 3, "clf"),
)
ADAPTIVE_PER_KIND = 20
ADAPTIVE_EDGE_PER_KIND = 5  # of ADAPTIVE_PER_KIND: true Pi within 1% of +-1, wide prior
ADAPTIVE_HORIZON = 300

TUNING_KINDS = tuple((s, L) for s in (AF, AB) for L in (1, 2, 3))
TUNING_PER_KIND = 4
TUNING_TABLES = ((AF, 2), (AB, 3))
TUNING_TABLE_GRID = 7

SETUP_TABLES = {
    "experiment": ((AF, 2), (AB, 2)),
    "adaptive": ((AF, 1), (AB, 1), (AF, 2), (AB, 2)),
    "tuning": (),
}


@dataclass
class Outcome:
    attempted: int  # operations asked for
    failed: int  # operations not delivered
    work: int  # run-rounds or tuned points delivered
    value: object  # the call's result, or the exception it raised

    @property
    def raised(self) -> bool:
        return isinstance(self.value, Exception)


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, n)]


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    u = (np.arange(n) + rng.random(n)) / n
    return [float(v) for v in rng.permutation(lo + (hi - lo) * u)]


def _device(rng: np.random.Generator) -> metrics.NoiseModel:
    return metrics.NoiseModel(float(rng.uniform(0.93, 0.97)), float(rng.uniform(0.98, 0.995)))


def _belief(mean: float, std: float) -> metrics.GaussianBelief:
    return metrics.GaussianBelief(float(np.clip(mean, -0.999, 0.999)), std**2)


# -- inputs -----------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The calls of one pass, generated from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    if workload == "experiment":
        ops = []
        pis = _stratified(rng, -0.8, 0.8, 2 * len(EXPERIMENT_KINDS))
        seeds = _seeds(rng, len(pis) + 1)
        for i, pi in enumerate(pis):
            scheme, layers, horizon = EXPERIMENT_KINDS[i % len(EXPERIMENT_KINDS)]
            prior = (pi + 0.02 * float(rng.standard_normal()), 0.03)
            ops.append(dict(scheme=scheme, true_pi=pi, prior=prior, layers=layers, horizon=horizon, seed=seeds[i]))
        ops.append(dict(EDGE_EXPERIMENT, seed=seeds[-1]))
        return ops
    if workload == "adaptive":
        ops = []
        for scheme, layers, source in ADAPTIVE_KINDS:
            pis = _stratified(rng, -0.8, 0.8, ADAPTIVE_PER_KIND)
            edge = set(rng.choice(ADAPTIVE_PER_KIND, ADAPTIVE_EDGE_PER_KIND, replace=False).tolist())
            for i, (pi, seed_i) in enumerate(zip(pis, _seeds(rng, ADAPTIVE_PER_KIND))):
                if i in edge:
                    sign = 1.0 if pi >= 0.0 else -1.0
                    pi = sign * float(rng.uniform(0.99, 0.999))
                    prior = (sign * 0.9, 0.2)
                else:
                    prior = (pi + 0.02 * float(rng.standard_normal()), 0.05)
                ops.append(dict(scheme=scheme, layers=layers, source=source, true_pi=pi, prior=prior, seed=seed_i))
        return [ops[i] for i in rng.permutation(len(ops))]
    if workload == "tuning":
        # The tuning points and restarts are fixed and the seed draws the
        # device.  Tune time and gain swing widely with mu and with the random
        # restarts, so seeding those would make the seed, not the program, set
        # the figures.  Calls cycle through the kinds, so any prefix of a pass
        # is a balanced mix.
        ops = []
        mus = np.pi * (np.arange(TUNING_PER_KIND) + 0.5) / TUNING_PER_KIND
        tables = iter(TUNING_TABLES)
        for rep, mu in enumerate(mus):
            for scheme, layers in TUNING_KINDS:
                op = dict(kind="tune", scheme=scheme, layers=layers, mu=float(mu), noise=_device(rng), seed=len(ops))
                ops.append(op)
            if rep % 2 == 1:
                scheme, layers = next(tables)
                ops.append(dict(kind="table", scheme=scheme, layers=layers, noise=_device(rng), seed=len(ops)))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def _table_path(directory: str, scheme, layers: int) -> str:
    return os.path.join(directory, f"table-{scheme.value}-L{layers}.json")


def build_tables(workload: str, directory: str) -> dict:
    """Tune the workload's lookup tables, save them as JSON and load them back."""
    for scheme, layers in SETUP_TABLES[workload]:
        table = tuner.build_lookup_table(scheme, layers, DEVICE, TABLE_GRID, seed=TABLE_SEED, **TABLE_TUNE)
        table.save(_table_path(directory, scheme, layers))
    return load_tables(workload, directory)


def load_tables(workload: str, directory: str) -> dict:
    """The workload's lookup tables, read back as CLI users read them."""
    return {
        (scheme, layers): tuner.LookupTable.load(_table_path(directory, scheme, layers))
        for scheme, layers in SETUP_TABLES[workload]
    }


# -- one call -----------------------------------------------------------------------


def _experiment_config(op: dict, tables: dict) -> sim.ExperimentConfig:
    scheme = op["scheme"]
    table = None
    if scheme.endswith("elf"):
        table = tables[AB if scheme.startswith("ab") else AF, op["layers"]]
    return sim.ExperimentConfig(
        scheme=scheme,
        true_pi=op["true_pi"],
        prior_pi=_belief(*op["prior"]),
        layers=op["layers"],
        noise=op.get("noise", DEVICE),
        runs=EXPERIMENT_RUNS,
        horizon=op["horizon"],
        master_seed=op["seed"],
        table=table,
        threads=1,
    )


def _call(fn, *args, **kwargs) -> tuple[object, bool]:
    # Every exception is a failed operation of the workload, recorded by type.
    try:
        return fn(*args, **kwargs), True
    except Exception as exc:  # noqa: BLE001
        return exc, False


def run_op(workload: str, op: dict, tables: dict) -> Outcome:
    if workload == "experiment":
        config = _experiment_config(op, tables)
        result, ok = _call(sim.run_experiment, config)
        if not ok:
            return Outcome(config.runs, config.runs, 0, result)
        failed = len(result.excluded_runs)
        rounds = config.horizon // (2 * config.layers + 1)
        return Outcome(config.runs, failed, (config.runs - failed) * rounds, result)
    if workload == "adaptive":
        config = inference.EstimationConfig(
            scheme=op["scheme"],
            layers=op["layers"],
            noise=DEVICE,
            prior_pi=_belief(*op["prior"]),
            true_pi=op["true_pi"],
            seed=op["seed"],
            horizon=ADAPTIVE_HORIZON,
            angle_source=op["source"],
            table=tables.get((op["scheme"], op["layers"])) if op["source"] == "table" else None,
        )
        result, ok = _call(inference.run_estimation, config)
        return Outcome(1, 0, len(result), result) if ok else Outcome(1, 1, 0, result)
    if workload == "tuning":
        if op["kind"] == "tune":
            spec = tuning_spec(op)
            result, ok = _call(tuner.tune, spec)
            return Outcome(1, 0, 1, result) if ok else Outcome(1, 1, 0, result)
        grid = np.linspace(-1.0, 1.0, TUNING_TABLE_GRID)
        interior = int(np.count_nonzero(np.abs(grid) < 1.0))
        result, ok = _call(
            tuner.build_lookup_table, op["scheme"], op["layers"], op["noise"], grid, seed=op["seed"], **TABLE_TUNE
        )
        if not ok:
            return Outcome(interior, interior, 0, result)
        failed = sum(1 for e in result.entries if e.flag is not None and e.flag != tuner.DEGENERATE_FLAG)
        return Outcome(interior, failed, interior - failed, result)
    raise ValueError(f"unknown workload {workload!r}")


def tuning_spec(op: dict) -> tuner.TuneSpec:
    return tuner.TuneSpec(
        scheme=op["scheme"],
        layers=op["layers"],
        mu=op["mu"],
        fidelity=op["noise"].process_fidelity(op["layers"]),
        seed=op["seed"],
        **TUNING_TUNE,
    )


def fingerprint(outcome: Outcome) -> object:
    """A summary of a call's output that must repeat exactly on a repeated call."""
    v = outcome.value
    if isinstance(v, Exception):
        return type(v).__name__, str(v)
    if isinstance(v, sim.TraceSeries):
        return v.rmse.tobytes(), tuple(v.excluded_runs)
    if isinstance(v, list):  # run_estimation records
        last = v[-1]
        return len(v), last.theta_belief.mean, last.theta_belief.variance
    if isinstance(v, tuner.TuneResult):
        return v.x_opt.tobytes(), v.objective_value
    if isinstance(v, tuner.LookupTable):
        return tuple((e.pi, e.objective, e.flag) for e in v.entries)
    raise TypeError(f"no fingerprint for {type(v).__name__}")


# -- quality and checks ------------------------------------------------------------


def _table_points(scheme, layers: int, table: "tuner.LookupTable") -> list[tuple]:
    f = table.metadata["process_fidelity"]
    return [(scheme, layers, math.acos(e.pi), f, e.angles, e.objective) for e in table.entries if e.flag is None]


def tuned_points(ops: list[dict], outcomes: list[Outcome], tables: dict) -> list[tuple]:
    """``(scheme, layers, mu, f, angles, objective)`` of every tuned point.

    The points of the set-up tables, and of the tuning workload's tunes and
    tables.
    """
    points = [p for (scheme, layers), table in tables.items() for p in _table_points(scheme, layers, table)]
    for op, out in zip(ops, outcomes):
        if out.raised or "kind" not in op:
            continue
        if op["kind"] == "tune":
            f = op["noise"].process_fidelity(op["layers"])
            points.append((op["scheme"], op["layers"], op["mu"], f, out.value.x_opt, out.value.objective_value))
        else:
            points += _table_points(op["scheme"], op["layers"], out.value)
    return points


def score_tuned(points: list[tuple]) -> tuple[list[float], list[str]]:
    """Fisher gain of each tuned point over the Chebyshev angles, and check failures.

    ``metrics.fisher_information`` scores the angles independently of the
    tuner: the tuner's objective must equal it and be at least the Chebyshev
    value.
    """
    gains, errors = [], []
    for scheme, layers, mu, f, x, objective in points:
        tuned = metrics.fisher_information(scheme, mu, f, x)
        chebyshev = metrics.fisher_information(scheme, mu, f, bias.clf_angles(layers))
        gains.append(tuned / chebyshev)
        where = f"{scheme.value} L={layers} mu={mu:.6g}"
        if not math.isclose(objective, tuned, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"tuner objective {objective!r} != fisher_information {tuned!r} at {where}")
        if not objective >= chebyshev * (1.0 - 1e-12):
            errors.append(f"tuned Fisher information {objective!r} below Chebyshev {chebyshev!r} at {where}")
    return gains, errors


def check_kernel() -> list[str]:
    """Closed forms at the Chebyshev angles, and batched against scalar bias."""
    errors = []
    theta = np.linspace(0.05, math.pi - 0.05, 33)
    rng = np.random.default_rng(0)
    for layers in (1, 4, 16, 64):
        clf = bias.clf_angles(layers)
        expected = {AF: np.cos((2 * layers + 1) * theta), AB: (-1) ** layers * np.cos(layers * theta)}
        x = rng.uniform(-math.pi, math.pi, 2 * layers)
        for scheme in (AF, AB):
            err = np.max(np.abs(bias.bias(scheme, theta, clf) - expected[scheme]))
            if not err <= 1e-12:
                errors.append(f"{scheme.value} bias at Chebyshev angles, L={layers}: error {err:.3g}")
            batched = bias.bias(scheme, theta, x)
            scalar = np.array([bias.bias(scheme, float(t), x) for t in theta])
            err = np.max(np.abs(batched - scalar))
            if not err <= 1e-12:
                errors.append(f"{scheme.value} batched bias differs from scalar, L={layers}: {err:.3g}")
    return errors


def check_estimates(ops: list[dict], outcomes: list[Outcome]) -> list[str]:
    """Estimates of Pi are finite and within [-1, 1]."""
    errors = []
    for op, out in zip(ops, outcomes):
        v = out.value
        if isinstance(v, sim.TraceSeries):
            est = v.estimates[np.setdiff1d(np.arange(v.runs), v.excluded_runs)]
        elif isinstance(v, list):  # run_estimation records
            est = np.array([v[-1].pi_belief.mean])
        else:
            continue
        if not (np.all(np.isfinite(est)) and np.all(np.abs(est) <= 1.0)):
            errors.append(f"estimates outside [-1, 1] for {op}")
    return errors


def check_pipeline(ops: list[dict], outcomes: list[Outcome], tables: dict, seed: int, directory: str) -> list[str]:
    """CLI ``simulate --table`` against ``run_experiment``, and one scalar run.

    Both use an ancilla-free L=2 table of the workload: a set-up table, or
    the one the tuning workload builds.  The CLI reads it from JSON.
    """
    table = tables.get((AF, 2)) or next(
        out.value
        for op, out in zip(ops, outcomes)
        if op.get("kind") == "table" and (op["scheme"], op["layers"]) == (AF, 2) and not out.raised
    )
    table_path = os.path.join(directory, "check-table.json")
    table.save(table_path)
    meta = table.metadata
    noise = metrics.NoiseModel(meta["layer_fidelity"], meta["spam_fidelity"])
    op = dict(scheme="af-elf", true_pi=0.3, prior=(0.32, 0.03), layers=2, horizon=500, seed=seed, noise=noise)
    prefix = os.path.join(directory, "simulate")
    argv = ["simulate", "--scheme", "af-elf", "--table", table_path, "--layers", "2"]
    argv += ["--true-pi", "0.3", "--prior-mean", "0.32", "--prior-std", "0.03"]
    argv += ["--layer-fidelity", repr(noise.layer_fidelity), "--spam-fidelity", repr(noise.spam_fidelity)]
    argv += ["--runs", str(EXPERIMENT_RUNS), "--horizon", "500", "--seed", str(seed), "--threads", "1"]
    argv += ["--out", prefix]
    code = cli.main(argv)
    if code != 0:
        return [f"cli simulate exited with {code}"]
    with open(prefix + ".json", encoding="utf-8") as fh:
        cli_rmse = json.load(fh)["final_rmse"]
    direct = float(sim.run_experiment(_experiment_config(op, {(AF, 2): table})).rmse[-1])
    errors = []
    if cli_rmse != direct:
        errors.append(f"cli simulate final_rmse {cli_rmse!r} != run_experiment {direct!r}")

    records = inference.run_estimation(
        inference.EstimationConfig(
            scheme=AF,
            layers=2,
            noise=noise,
            prior_pi=_belief(0.32, 0.03),
            true_pi=0.3,
            seed=seed,
            horizon=500,
            angle_source="table",
            table=table,
        )
    )
    errors += check_estimates([op], [Outcome(1, 0, 0, records)])
    return errors


def counts_of(outcomes: list[Outcome]) -> OpCounts:
    counts = OpCounts()
    for out in outcomes:
        counts.add(out.attempted, out.failed)
    return counts
