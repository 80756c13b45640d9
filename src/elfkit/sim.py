"""Synthetic-outcome generation and the Monte Carlo evaluation harness.

Outcomes are drawn classically from the noisy likelihood at the true
estimand, so no state-vector simulation is involved.  ``run_experiment``
repeats the adaptive estimation loop over many independent runs, each on its
stream of the master seed keyed by its index (``inference._run_uniforms``),
in lockstep chunks of ``inference``'s engine, which keeps their states at the
checkpoint rounds, and aggregates the root-mean-squared error of the
estimator on a geometric time grid together with an inverse-MSE growth-rate
fit over the late-time window.  A run of a non-standard scheme runs, and is
checked, as ``ExperimentConfig._run_config``.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import check, check_type
from .bias import Scheme
from .inference import EstimationConfig, _cos_moments, _rounds, _run_uniforms
from .metrics import GaussianBelief, NoiseModel, round_times
from .tuner import LookupTable

EXPERIMENT_SCHEMES = ("af-elf", "af-clf", "ab-elf", "ab-clf", "standard")
CHUNK_SIZE = 64
# Density of the geometric checkpoint grid, and the late share of the
# horizon over which the inverse-MSE growth rate is fitted.
CHECKPOINTS_PER_DECADE = 50
FIT_WINDOW_FRACTION = 0.25


@dataclass
class ExperimentConfig:
    scheme: str
    true_pi: float
    prior_pi: GaussianBelief | None  # None only for "standard", which reads no prior
    layers: int
    noise: NoiseModel
    runs: int
    horizon: int
    master_seed: int = 0
    table: LookupTable | None = None  # for the *-elf schemes, None for the others
    threads: int = 1

    def __post_init__(self) -> None:
        if self.scheme not in EXPERIMENT_SCHEMES:
            raise ValueError(f"scheme must be one of {EXPERIMENT_SCHEMES}")
        # The standard scheme reads no layers, so it takes any one integer; the others' runs check theirs.
        check("layers", self.layers, "(-inf, inf)")
        for name in ("true_pi", "runs", "horizon", "master_seed", "threads"):
            check(name, getattr(self, name))
        check_type("noise", self.noise, NoiseModel)
        if self.scheme != "standard":
            self._run_config()  # EstimationConfig checks what the runs read, a prior_pi of None included
        elif self.table is not None:
            raise ValueError(f"table must be None with scheme 'standard', got {self.table!r}")

    @property
    def bias_scheme(self) -> Scheme:
        return Scheme.AB if self.scheme.startswith("ab") else Scheme.AF

    def _run_config(self) -> EstimationConfig:
        """The ``EstimationConfig`` of each run of a non-standard scheme; its ``seed`` is unused."""
        return EstimationConfig(
            self.bias_scheme, self.layers, self.noise, self.prior_pi, self.true_pi, self.horizon,
            angle_source="clf" if self.scheme.endswith("clf") else "table", table=self.table,
        )


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
    perceived_var: np.ndarray  # per run x per checkpoint perceived variances; NaN for "standard"
    growth_rate: float
    runs: int
    excluded_runs: list[int]


# -- the lockstep engine ---------------------------------------------------------


def _checkpoint_rounds(n_rounds: int) -> np.ndarray:
    decades = math.log10(n_rounds)
    count = max(2, math.ceil(decades * CHECKPOINTS_PER_DECADE))
    rounds = np.sort(np.rint(np.geomspace(1, n_rounds, count)).astype(int))
    return rounds[np.diff(rounds, prepend=0) > 0]  # each distinct round once; not np.unique, which loads numpy.ma


def _run_chunk(config: ExperimentConfig, checkpoints: np.ndarray, n_rounds: int, run_indices: np.ndarray):
    """Advance one chunk of runs in lockstep; returns (estimates, perceived variances, alive), run by checkpoint."""
    uniforms = np.stack([_run_uniforms(config.master_seed, n_rounds, i) for i in run_indices.tolist()], axis=1)
    _, mus, variances, alive = _rounds(config._run_config(), uniforms, checkpoints.tolist(), abort=True)
    est, pi_var = _cos_moments(mus, variances)
    return est.T, pi_var.T, alive[-1]


def _growth_rate(times: np.ndarray, inv_mse: np.ndarray, horizon: int) -> float:
    """The slope of a line fit to the late window's finite inverse MSEs (a zero-MSE checkpoint is left out)."""
    mask = (times >= FIT_WINDOW_FRACTION * horizon) & np.isfinite(inv_mse)
    if np.count_nonzero(mask) < 2:
        return float("nan")
    t, y = times[mask].astype(float), inv_mse[mask]
    tc = t - t.mean()
    return float(np.sum(tc * (y - y.mean())) / np.sum(tc * tc))


def _standard_chunk(config: ExperimentConfig, checkpoints: np.ndarray, n_rounds: int, run_indices: np.ndarray):
    """Sample means of +-1 outcomes, one a depth-0 round, divided by the SPAM fidelity f0 that scales them.

    Outcome 1 (sign -1) is the engine's, drawn where 2u - 1 >= f0 bias(theta*) = f0 Pi; round k ends at time k.
    Returns ``_run_chunk``'s shape, with NaN perceived variances and every run alive.
    """
    f0, est = config.noise.spam_fidelity, np.empty((run_indices.size, checkpoints.size))
    for row, i in enumerate(run_indices.tolist()):
        signs = np.where(2.0 * _run_uniforms(config.master_seed, n_rounds, i) - 1.0 >= f0 * config.true_pi, -1.0, 1.0)
        est[row] = np.cumsum(signs)[checkpoints - 1] / checkpoints
    return est / f0, np.full(est.shape, np.nan), np.ones(run_indices.size, dtype=bool)


def run_experiment(config: ExperimentConfig) -> TraceSeries:
    """Monte Carlo evaluation of one estimation scheme.

    Each chunk of runs is one lockstep batch of ``inference``'s estimation
    round, the same round ``run_estimation`` runs for a single run.  Output
    is a pure function of the config including the master seed: runs use
    substreams keyed by run index and are aggregated in run order, so the
    result is independent of chunking and worker count: at most ``threads``
    processes, and no more than the chunks or the CPUs.  A run whose update
    is not a finite Gaussian is excluded, not fatal; its index is listed in
    ``excluded_runs`` and the aggregates cover the other runs.  Raises
    ``FloatingPointError`` when a run's sinusoid-fit abscissa reaches a
    multiple of pi, which fails the whole experiment.
    """
    standard = config.scheme == "standard"
    rounds = round_times(0 if standard else config.layers, config.horizon)
    checkpoints = _checkpoint_rounds(rounds.size)
    times = rounds[checkpoints - 1]

    run_chunk = partial(_standard_chunk if standard else _run_chunk, config, checkpoints, rounds.size)
    chunks = [np.arange(lo, min(lo + CHUNK_SIZE, config.runs)) for lo in range(0, config.runs, CHUNK_SIZE)]
    # A forked pool starts every worker at its first submit, so it gets no more than the chunks or the cores.
    workers = min(config.threads, len(chunks), os.cpu_count() or 1)
    try:
        if workers > 1:
            # Imported here: only a pooled run needs multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run_chunk, chunks))
        else:
            results = list(map(run_chunk, chunks))
    except FloatingPointError as exc:
        # Free the engine's run arrays now: a caller that keeps the exception
        # would otherwise keep them alive through the traceback's frames.
        traceback.clear_frames(exc.__traceback__)
        raise

    estimates, perceived, alive = map(np.concatenate, zip(*results))
    est_ok, n_ok = estimates[alive], np.count_nonzero(alive)
    # Means as sums over the kept runs by their count, mean()'s bits; with no run kept, NaN without a warning.
    with np.errstate(divide="ignore", invalid="ignore"):
        mse = np.sum((est_ok - config.true_pi) ** 2, axis=0) / n_ok
        inv_mse = 1.0 / mse
        mean_est, mean_perceived_var = est_ok.sum(axis=0) / n_ok, perceived[alive].sum(axis=0) / n_ok
    bias_sq = (mean_est - config.true_pi) ** 2
    var_est = est_ok.var(axis=0, ddof=1) if n_ok > 1 else np.zeros_like(mean_est)

    return TraceSeries(
        times=times,
        rmse=np.sqrt(mse),
        inv_mse=inv_mse,
        bias_sq=bias_sq,
        var_est=var_est,
        mean_perceived_var=mean_perceived_var,
        estimates=estimates,
        perceived_var=perceived,
        growth_rate=_growth_rate(times, inv_mse, config.horizon),
        runs=config.runs,
        excluded_runs=np.flatnonzero(~alive).tolist(),
    )
