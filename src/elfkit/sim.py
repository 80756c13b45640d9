"""Synthetic-outcome generation and the Monte Carlo evaluation harness.

Outcomes are drawn classically from the noisy likelihood at the true
estimand, so no state-vector simulation is involved.  ``run_experiment``
repeats the adaptive estimation loop over many independent runs with
per-run random substreams derived from one master seed, advances all runs
of a chunk in lockstep (vectorized over runs), and aggregates the
root-mean-squared error of the estimator on a geometric time grid together
with an inverse-MSE growth-rate fit over the late-time window.
"""

from __future__ import annotations

import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import csv

import numpy as np

from .algebra import DEGENERATE_TOL, DegenerateSubspaceError
from .bias import Scheme, bias, clf_angles
from .inference import (
    ARCSIN_CLAMP,
    _cos_moments,
    _fit_line,
    _posterior_moments,
    fit_points_grid,
    pi_to_theta,
)
from .metrics import GaussianBelief, NoiseModel, likelihood

EXPERIMENT_SCHEMES = ("af-elf", "af-clf", "ab-elf", "ab-clf", "standard")
CHUNK_SIZE = 64

EXPERIMENT_CSV_COLUMNS = (
    "time",
    "rmse",
    "inv_mse",
    "bias_sq",
    "var_est",
    "mean_perceived_var",
)


@dataclass
class ExperimentConfig:
    scheme: str
    true_pi: float
    prior_pi: GaussianBelief
    layers: int
    noise: NoiseModel
    runs: int
    horizon: int
    master_seed: int = 0
    table: "object | None" = None  # tuner.LookupTable for the *-elf schemes
    fit_points: int = 11
    checkpoints_per_decade: int = 50
    fit_window_fraction: float = 0.25
    threads: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in EXPERIMENT_SCHEMES:
            raise ValueError(f"scheme must be one of {EXPERIMENT_SCHEMES}")
        if not -1.0 < self.true_pi < 1.0:
            raise ValueError("true_pi must lie in (-1, 1)")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        min_horizon = 1 if self.scheme == "standard" else 2 * self.layers + 1
        if self.horizon < min_horizon:
            raise ValueError(f"horizon must be >= {min_horizon}")
        if self.scheme.endswith("elf") and self.table is None:
            raise ValueError("the engineered schemes require a lookup table")

    @property
    def bias_scheme(self) -> Scheme:
        return Scheme.AB if self.scheme.startswith("ab") else Scheme.AF


@dataclass
class TraceSeries:
    """Aggregated Monte Carlo results on the checkpoint time grid."""

    times: np.ndarray
    rmse: np.ndarray
    inv_mse: np.ndarray
    bias_sq: np.ndarray
    var_est: np.ndarray
    mean_perceived_var: np.ndarray
    estimates: np.ndarray  # per run x per checkpoint estimates of Pi
    perceived_var: np.ndarray | None
    growth_rate: float
    true_pi: float
    runs: int
    excluded_runs: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bias/variance decomposition of the estimator along the time grid."""

    times: np.ndarray
    bias_sq: np.ndarray
    var_est: np.ndarray
    mean_perceived_var: np.ndarray


def sample_outcome(scheme: Scheme, theta_star: float, f: float, x, rng) -> int:
    """One Bernoulli outcome from the noisy likelihood at the true angle."""
    p0 = likelihood(scheme, 0, theta_star, f, x)
    return 0 if rng.random() < p0 else 1


def standard_sampling_run(true_pi: float, noise: NoiseModel, horizon: int, rng) -> np.ndarray:
    """Sample-mean estimator trace of one standard-sampling run.

    Each sample costs one time unit; entry t-1 is the estimate after t
    samples, in {-1, ..., +1}, so a single sample gives exactly +-1.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    p0 = (1.0 + noise.process_fidelity(0) * true_pi) / 2.0
    signs = np.where(rng.random(horizon) < p0, 1.0, -1.0)
    return np.cumsum(signs) / np.arange(1, horizon + 1)


# -- the lockstep engine ---------------------------------------------------------


def _checkpoint_rounds(n_rounds: int, per_decade: int) -> np.ndarray:
    if n_rounds <= 1:
        return np.array([n_rounds])
    decades = math.log10(n_rounds)
    count = max(2, math.ceil(decades * per_decade))
    ks = np.unique(np.rint(np.geomspace(1, n_rounds, count)).astype(int))
    return ks


def _run_chunk(config: ExperimentConfig, run_indices: np.ndarray, checkpoints: np.ndarray):
    """Advance one chunk of runs in lockstep; returns per-checkpoint state."""
    scheme = config.bias_scheme
    layers = config.layers
    f = config.noise.process_fidelity(layers)
    n_rounds = config.horizon // (2 * layers + 1)
    r = run_indices.size

    prior_theta = pi_to_theta(config.prior_pi)
    mu = np.full(r, prior_theta.mean)
    var = np.full(r, prior_theta.variance)
    alive = np.ones(r, dtype=bool)
    star = np.full((1, r), math.acos(config.true_pi))  # theta*

    uniforms = np.stack(
        [
            np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(int(i),))).random(n_rounds)
            for i in run_indices
        ]
    )
    fixed_angles = None
    if config.scheme.endswith("clf"):
        fixed_angles = np.broadcast_to(clf_angles(layers), (r, 2 * layers))

    est = np.empty((r, checkpoints.size))
    per_var = np.empty((r, checkpoints.size))
    cp_pos = 0
    for k in range(1, n_rounds + 1):
        if fixed_angles is not None:
            xmat = fixed_angles
        else:
            pi_est, _ = _cos_moments(mu, var)
            xmat = config.table.batch_angles(np.clip(pi_est, -1.0, 1.0))
        thetas = fit_points_grid(mu, np.sqrt(var), config.fit_points)
        if np.any(np.abs(np.sin(thetas)) < DEGENERATE_TOL):
            raise DegenerateSubspaceError("a sinusoid-fit abscissa reached a multiple of pi")
        # One kernel call per round, runs along the last axis (the fast
        # broadcasting layout): the fit abscissae, then theta* as one more row.
        values = bias(scheme, np.vstack([thetas.T, star]), xmat)
        z = np.arcsin(np.clip(values[:-1].T, -1.0 + ARCSIN_CLAMP, 1.0 - ARCSIN_CLAMP))
        rfit, bfit = _fit_line(thetas, z)
        p0 = (1.0 + f * values[-1]) / 2.0
        d = (uniforms[:, k - 1] >= p0).astype(int)
        mu_next, var_next = _posterior_moments(mu, var, rfit, bfit, f, d)
        good = np.isfinite(mu_next) & np.isfinite(var_next) & (var_next > 0.0)
        step = alive & good
        mu = np.where(step, mu_next, mu)
        var = np.where(step, var_next, var)
        alive &= good
        if cp_pos < checkpoints.size and k == checkpoints[cp_pos]:
            pi_mu, pi_var = _cos_moments(mu, var)
            est[:, cp_pos] = pi_mu
            per_var[:, cp_pos] = np.maximum(pi_var, np.finfo(float).tiny)
            cp_pos += 1
    return est, per_var, run_indices[~alive]


def _growth_rate(times: np.ndarray, inv_mse: np.ndarray, horizon: int, window_fraction: float) -> float:
    mask = times >= window_fraction * horizon
    if np.count_nonzero(mask) < 2:
        return float("nan")
    t = times[mask].astype(float)
    y = inv_mse[mask]
    tc = t - t.mean()
    return float(np.sum(tc * (y - y.mean())) / np.sum(tc * tc))


def _standard_chunk(config: ExperimentConfig, run_indices: np.ndarray, checkpoints: np.ndarray):
    p0 = (1.0 + config.noise.process_fidelity(0) * config.true_pi) / 2.0
    est = np.empty((run_indices.size, checkpoints.size))
    for row, i in enumerate(run_indices):
        rng = np.random.default_rng(np.random.SeedSequence(config.master_seed, spawn_key=(int(i),)))
        signs = np.where(rng.random(config.horizon) < p0, 1.0, -1.0)
        trace = np.cumsum(signs) / np.arange(1, config.horizon + 1)
        est[row] = trace[checkpoints - 1]
    return est, None, np.array([], dtype=int)


def run_experiment(config: ExperimentConfig) -> TraceSeries:
    """Monte Carlo evaluation of one estimation scheme.

    Output is a pure function of the config including the master seed: runs
    use substreams keyed by run index and are aggregated in run order, so the
    result is independent of chunking and worker count.  Raises
    ``DegenerateSubspaceError`` when a run's sinusoid-fit abscissa reaches a
    multiple of pi.
    """
    standard = config.scheme == "standard"
    round_cost = 1 if standard else 2 * config.layers + 1
    n_rounds = config.horizon // round_cost
    checkpoints = _checkpoint_rounds(n_rounds, config.checkpoints_per_decade)
    times = checkpoints * round_cost

    chunk_fn = _standard_chunk if standard else _run_chunk
    chunks = [
        np.arange(lo, min(lo + CHUNK_SIZE, config.runs))
        for lo in range(0, config.runs, CHUNK_SIZE)
    ]
    try:
        if config.threads > 1 and len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                results = list(pool.map(chunk_fn, [config] * len(chunks), chunks, [checkpoints] * len(chunks)))
        else:
            results = [chunk_fn(config, idx, checkpoints) for idx in chunks]
    except DegenerateSubspaceError as exc:
        # Free the engine's run arrays now: a caller that keeps the exception
        # would otherwise keep them alive through the traceback's frames.
        traceback.clear_frames(exc.__traceback__)
        raise

    estimates = np.vstack([res[0] for res in results])
    if standard:
        perceived = None
    else:
        perceived = np.vstack([res[1] for res in results])
    excluded = sorted(int(i) for res in results for i in res[2])
    included = np.setdiff1d(np.arange(config.runs), np.asarray(excluded, dtype=int))
    est_ok = estimates[included]

    err_sq = (est_ok - config.true_pi) ** 2
    mse = err_sq.mean(axis=0)
    rmse = np.sqrt(mse)
    inv_mse = 1.0 / mse
    mean_est = est_ok.mean(axis=0)
    bias_sq = (mean_est - config.true_pi) ** 2
    var_est = est_ok.var(axis=0, ddof=1) if est_ok.shape[0] > 1 else np.zeros_like(mean_est)
    if perceived is None:
        mean_perceived = np.full_like(mean_est, np.nan)
    else:
        mean_perceived = perceived[included].mean(axis=0)

    return TraceSeries(
        times=times,
        rmse=rmse,
        inv_mse=inv_mse,
        bias_sq=bias_sq,
        var_est=var_est,
        mean_perceived_var=mean_perceived,
        estimates=estimates,
        perceived_var=perceived,
        growth_rate=_growth_rate(times, inv_mse, config.horizon, config.fit_window_fraction),
        true_pi=config.true_pi,
        runs=config.runs,
        excluded_runs=excluded,
    )


def diagnostics(traces: TraceSeries) -> DiagnosticsReport:
    """Squared bias, estimator variance, and mean perceived variance per checkpoint."""
    if traces.runs < 30:
        raise ValueError("diagnostics need at least 30 runs")
    return DiagnosticsReport(
        times=traces.times,
        bias_sq=traces.bias_sq,
        var_est=traces.var_est,
        mean_perceived_var=traces.mean_perceived_var,
    )


def write_experiment_csv(traces: TraceSeries, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(EXPERIMENT_CSV_COLUMNS)
    for i, t in enumerate(traces.times):
        writer.writerow(
            [
                int(t),
                repr(float(traces.rmse[i])),
                repr(float(traces.inv_mse[i])),
                repr(float(traces.bias_sq[i])),
                repr(float(traces.var_est[i])),
                repr(float(traces.mean_perceived_var[i])),
            ]
        )
