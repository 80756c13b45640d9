"""Adaptive Bayesian estimation with Gaussian beliefs: the one estimation engine.

The belief over theta = arccos(Pi) stays Gaussian throughout.  Each round (``_lockstep``) takes
circuit angles for the current belief from a lookup table (``tuner.chebyshev_table`` holds the
Chebyshev angles), reads the bias from their cached theta-series (``LookupTable.series``), fits it
with a sinusoid arcsin-linear in theta (a closed-form line over ``FIT_POINTS`` abscissae spanning
+-1 sd of the belief; its slope and phase at the mean), samples an outcome from the noisy
likelihood at the true theta, and applies the fit's closed-form posterior-moment update
(``_posterior_moments``).  The engine advances a batch of runs, shaped like the belief arrays, in
lockstep, and keeps their states at the rounds its caller marks.  ``_rounds`` starts runs of an
``EstimationConfig``, each drawing on its one stream (``_run_uniforms``), for two callers:
``run_estimation`` marks every round of a 0-d batch (its ``RoundRecord`` per round holds plain
numbers, the time, the outcome and the theta moments, and computes its Pi belief by
``_cos_moments`` when read), and ``sim.run_experiment`` marks the checkpoints of 1-D Monte Carlo
chunks.  A 0-d batch runs on numpy scalars, which skip a 1-element array's per-call cost and round
as the arrays do; Python floats would not (``math.exp`` and ``math.asin`` differ from numpy's in
the last bit).  Conversions between theta- and Pi-beliefs are analytic one way (moments of cos of a
Gaussian) and numeric the other (moments of arccos of a clipped Gaussian, integrated over theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import DEGENERATE_TOL, DOMAINS, check, check_fields, check_type
from .bias import Scheme, _horner
from .metrics import GaussianBelief, NoiseModel, round_cost, round_times
from .tuner import LookupTable, chebyshev_table

ARCSIN_CLAMP = 1e-12
PI_TO_THETA_ORDER = 100  # of pi_to_theta's Clenshaw-Curtis rule: 101 nodes
PI_TO_THETA_TAIL_Z = 12.0
TINY = np.finfo(float).tiny  # floor of a reported variance
FIT_POINTS = 11  # abscissae of the sinusoid fit
# Their offsets o in mu + sd * o, exactly antisymmetric in [-1, 1], and o / |o|^2.
_FIT_OFFSETS = np.arange(1 - FIT_POINTS, FIT_POINTS, 2) / (FIT_POINTS - 1.0)
_FIT_WEIGHTS = _FIT_OFFSETS / np.sum(_FIT_OFFSETS * _FIT_OFFSETS)
_FIT_OFFSETS.flags.writeable = _FIT_WEIGHTS.flags.writeable = False


class RoundRecord(NamedTuple):
    """One round of ``run_estimation``: time so far, outcome and theta moments; ``pi_belief`` computes Pi's when read."""

    cumulative_time: int
    outcome: int
    theta_mean: float
    theta_variance: float
    theta_belief = property(lambda self: GaussianBelief(self.theta_mean, self.theta_variance))
    pi_belief = property(lambda self: GaussianBelief(*map(float, _cos_moments(self.theta_mean, self.theta_variance))))


# -- belief conversions --------------------------------------------------------


def _cos_moments(mu, var):
    """Mean and variance, floored at ``TINY``, of cos(X) for X ~ N(mu, var); exact and underflow-safe.
    sin(mu) is squared as a product: ``**`` on a numpy scalar calls ``pow``, which rounds unlike an array's square."""
    shrink = np.expm1(-var)  # exp(-var) - 1, accurate for tiny var
    s = np.sin(mu)
    pi_var = 0.5 * shrink * (np.cos(2.0 * mu) * shrink - 2.0 * (s * s))
    return np.exp(-var / 2.0) * np.cos(mu), np.maximum(pi_var, TINY)


@lru_cache(maxsize=1)
def _clenshaw_curtis(n: int):
    """Clenshaw-Curtis nodes cos(k pi / n), k = 0..n, and weights on [-1, 1], exact to degree n, in closed form:
    w_k = (c_k / n)(1 - sum_{j=1}^{n/2} b_j cos(2 j k pi / n) / (4 j^2 - 1)), c_k = 1 at the ends, b_{n/2} = 1, else 2;
    an element-wise sum (no BLAS, so no build-dependent bits) of cosines of 2 pi (j k mod n) / n, then symmetrized."""
    k, j = np.arange(n + 1), np.arange(1, n // 2 + 1)[:, None]
    b = np.where(2 * j == n, 1.0, 2.0) / (4.0 * j * j - 1.0)
    w = np.where(k % n, 2.0, 1.0) / n * (1.0 - np.sum(b * np.cos(2.0 * np.pi / n * (j * k % n)), axis=0))
    x = np.cos(np.pi / n * k)
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def pi_to_theta(belief: GaussianBelief) -> GaussianBelief:
    """Moment-matched Gaussian belief over theta = arccos(clip(Pi, -1, 1)).

    Point masses at the clipped tails (theta = pi below -1, theta = 0 above +1) plus the in-range part,
    integrated over theta offsets g from c = arccos(clip(mean)) by the Clenshaw-Curtis rule over the 12-sd
    window, with the Jacobian sin(theta): smooth up to Pi = +-1.  cos(theta) - mean is formed as
    (cos c - mean) - 2 sin(c + g/2) sin(g/2), without cancellation, so tiny variances keep their precision.
    """
    mu, sd = belief.mean, belief.std
    w_lo = 0.5 * math.erfc((1.0 + mu) / (sd * math.sqrt(2.0)))  # mass clipped to Pi = -1
    w_hi = 0.5 * math.erfc((1.0 - mu) / (sd * math.sqrt(2.0)))  # mass clipped to Pi = +1
    center = math.acos(min(1.0, max(-1.0, mu)))
    m1 = w_lo * (math.pi - center) + w_hi * (0.0 - center)
    m2 = w_lo * (math.pi - center) ** 2 + w_hi * center**2
    lo = max(-1.0, mu - PI_TO_THETA_TAIL_Z * sd)
    hi = min(1.0, mu + PI_TO_THETA_TAIL_Z * sd)
    if hi > lo:
        t, w = _clenshaw_curtis(PI_TO_THETA_ORDER)
        g_lo, g_hi = math.acos(hi) - center, math.acos(lo) - center
        half = 0.5 * (g_hi - g_lo)
        g = 0.5 * (g_hi + g_lo) + half * t
        x = (math.cos(center) - mu) - 2.0 * np.sin(center + 0.5 * g) * np.sin(0.5 * g)  # cos(center + g) - mu
        density = np.exp(-x * x / (2.0 * sd * sd)) * np.sin(center + g) * (half / (sd * math.sqrt(2.0 * math.pi)))
        m1 += float(np.sum(w * density * g))
        m2 += float(np.sum(w * density * g * g))
    var = m2 - m1 * m1
    return GaussianBelief(center + m1, max(var, TINY))


# -- sinusoid fit and posterior update ----------------------------------------


def _window_fit(mu, sd, z):
    """Least-squares line z ~ r (theta - mu) + p over the abscissae mu + sd * o, along z's last axis: (r, p).

    With sum(o) = 0 the normal equations are diagonal: r = (z . o / |o|^2) / sd and p = mean(z),
    the line's value, its phase, at the belief mean.  The width sd is positive and finite:
    ``pi_to_theta`` floors the variance at ``TINY`` and ``_lockstep`` keeps only finite, positive updates.
    """
    return np.add.reduce(z * _FIT_WEIGHTS, axis=-1) / sd, np.add.reduce(z, axis=-1) / FIT_POINTS


def _posterior_moments(mu, var, r, p, f, d):
    """Closed-form posterior mean/variance for the sinusoidal likelihood (1 + (-1)^d f sin(r (theta - mu) + p)) / 2.

    With the signed decay g = (1 - 2d) f exp(-r^2 var / 2) and den = 1 + g sin p, the mean
    moves by g r var cos(p) / den and the variance by -(r var)^2 g (g + sin p) / den^2.
    """
    rv = r * var
    signed = (f - 2.0 * f * d) * np.exp(-0.5 * r * rv)
    s_ = np.sin(p)
    den = 1.0 + signed * s_
    step = signed * rv / den
    return mu + step * np.cos(p), var - step * rv * (signed + s_) / den


# -- the estimation loop -------------------------------------------------------


@dataclass
class EstimationConfig:
    """One adaptive estimation run against a synthetic noisy device."""

    scheme: Scheme
    layers: int
    noise: NoiseModel
    prior_pi: GaussianBelief
    true_pi: float
    horizon: int  # total time budget, units of the ansatz duration
    seed: int = 0
    angle_source: str = "table"  # "table" | "clf", a constructor input only: the runs read ``table``
    table: LookupTable | None = None  # for "table"; None for "clf", whose runs read chebyshev_table

    def __post_init__(self) -> None:
        check_fields(self)
        check_type("scheme", self.scheme, Scheme)
        check_type("noise", self.noise, NoiseModel)
        check("prior_pi mean", check_type("prior_pi", self.prior_pi, GaussianBelief).mean, DOMAINS["prior_mean"])
        if self.angle_source not in ("table", "clf"):
            raise ValueError("angle_source must be 'table' or 'clf'")
        if self.horizon < round_cost(self.layers):
            raise ValueError(f"horizon must be >= {round_cost(self.layers)}")
        if (self.table is None) == (self.angle_source == "table"):
            raise ValueError(f"table must be given exactly when the angles come from a table, got {self.table!r}")
        if self.table is not None:
            check_type("table", self.table, LookupTable).check_fits(self.scheme, self.layers)


def _angle_policy(scheme: Scheme, f: float, theta_star: float, table):
    """A round's theta-series columns and thresholds f bias(theta_star) as a function of the theta beliefs (mu, var).

    Each run reads the column of the valid table entry nearest its Pi mean (``LookupTable.series``); one valid
    entry (``chebyshev_table``) gives one column, unbroadcast.  The thresholds are read once, at two copies of
    e^{i theta_star}: numpy rounds a length-1 in-place complex product unlike the rounds' longer ones.
    """
    midpoints, columns = table.series(scheme)
    e = np.full(2, complex(np.cos(theta_star), np.sin(theta_star)))
    thresholds = f * _horner(columns[..., None], e)[..., 0]
    if not midpoints.size:  # one entry: its column and threshold broadcast against any runs
        pair = columns[:, 0], thresholds[0]
        return lambda mu, var: pair

    def policy(mu, var):
        i = midpoints.searchsorted(np.exp(var * -0.5) * np.cos(mu), side="right")
        return columns[:, i], thresholds[i]

    return policy


def _lockstep(f, mu, var, angles, uniforms, marks, abort=False):
    """Advance runs with theta beliefs N(mu, var) one round per row of ``uniforms``; keep the states at ``marks``.

    Each round reads the bias at every run's ``FIT_POINTS`` fit abscissae mu + sd * o from the
    run's theta-series column (``angles``) by Horner's rule in e^{i theta}, fits the line of
    ``_window_fit`` to arcsin of the bias, and updates by ``_posterior_moments``.  The work is
    element-wise and each run is fitted over a contiguous row, so its numbers do not depend on
    the batch shape, that of ``mu``: 1-D for ``sim``'s chunks, 0-d (numpy scalars, see the module
    docstring) for ``run_estimation``.  The uniforms u become 2u - 1 once per batch: outcome 1 is
    drawn where 2u - 1 >= the column's threshold f bias(theta_star), i.e. u >= P(0).  From its first
    update with a non-finite mean or a variance outside (0, inf) a run is excluded (``alive`` false)
    and its belief frozen; once every run is, the rounds stop and later marks keep the frozen state.
    With ``abort`` an abscissa within ``DEGENERATE_TOL`` of a multiple of pi raises ``FloatingPointError``.
    ``marks`` are increasing round numbers from 1, the last the last round.  Returns ``(d, mu, var,
    alive)`` after each marked round: the outcomes, theta moments and ``alive``, one row per mark.
    """
    n, shape = FIT_POINTS, np.shape(mu)
    offsets = _FIT_OFFSETS.reshape((n,) + (1,) * len(shape))
    alive, excluded, j = np.ones(shape, dtype=bool), False, 0
    block = np.empty((n,) + shape)
    e = np.empty(block.shape, dtype=complex)
    kept_d, kept_mu, kept_var, kept_alive = (np.empty((len(marks),) + shape, dt) for dt in (bool, float, float, bool))
    for k, t in enumerate(2.0 * uniforms - 1.0, start=1):
        sd = np.sqrt(var)
        np.add(mu, offsets * sd, out=block)
        np.cos(block, out=e.real)
        np.sin(block, out=e.imag)
        if abort and (np.abs(e.imag) < DEGENERATE_TOL).any():
            raise FloatingPointError("a sinusoid-fit abscissa reached a multiple of pi")
        columns, threshold = angles(mu, var)
        z = np.ascontiguousarray(_horner(columns, e).T)
        np.arcsin(z.clip(-1.0 + ARCSIN_CLAMP, 1.0 - ARCSIN_CLAMP, out=z), out=z)  # not np.clip: 2-3 us more a call
        r, p = _window_fit(mu, sd, z)
        d = t >= threshold
        mu_next, var_next = _posterior_moments(mu, var, r, p, f, d)
        ok = (abs(mu_next) < np.inf) & (0.0 < var_next) & (var_next < np.inf)
        if excluded := excluded or np.count_nonzero(ok) < ok.size:
            alive &= ok
            mu, var = np.where(alive, mu_next, mu), np.where(alive, var_next, var)
        else:
            mu, var = mu_next, var_next
        if k == marks[j]:
            kept_d[j], kept_mu[j], kept_var[j], kept_alive[j] = d, mu, var, alive
            j += 1
        if excluded and not alive.any():
            break
    kept_d[j:], kept_mu[j:], kept_var[j:], kept_alive[j:] = d, mu, var, alive
    return kept_d, kept_mu, kept_var, kept_alive


def _rounds(config: EstimationConfig, uniforms, marks, abort=False):
    """``_lockstep``'s states at ``marks`` for runs of ``config`` from its theta prior, a round per row of ``uniforms``.

    A run per column of a 2-D ``uniforms``; a 1-D one gives a 0-d batch of numpy scalars (``[()]``).
    """
    prior, shape = pi_to_theta(config.prior_pi), np.shape(uniforms)[1:]
    f = config.noise.process_fidelity(config.layers)
    angles = _angle_policy(config.scheme, f, math.acos(config.true_pi), config.table or chebyshev_table(config.layers))
    mu, var = np.full(shape, prior.mean)[()], np.full(shape, prior.variance)[()]
    return _lockstep(f, mu, var, angles, uniforms, marks, abort)


def _run_uniforms(seed: int, n_rounds: int, *key: int) -> np.ndarray:
    """A run's one random stream, a uniform per round, from ``SeedSequence(seed, spawn_key=key)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key)).random(n_rounds)


def run_estimation(config: EstimationConfig) -> list[RoundRecord]:
    """Run the adaptive loop as a 0-d lockstep batch that marks every round; return one record per round.

    A record holds its round's theta moments; its Pi belief, their analytic cosine
    transform, is computed when read (``RoundRecord.pi_belief``).  Outcomes are drawn
    from the noisy likelihood at the true theta on the run's one stream, ``_run_uniforms``
    of the seed with no key, i.e. ``SeedSequence(seed)``.  Raises a ``ValueError`` naming
    the round whose update gives a non-finite mean or a variance outside (0, inf); the
    engine stops at that round.
    """
    times = round_times(config.layers, config.horizon)
    d, mu, var, ok = _rounds(config, _run_uniforms(config.seed, times.size), range(1, times.size + 1))
    if not ok[-1]:
        raise ValueError(f"round {ok.argmin() + 1}: the update gave a non-finite mean or a variance outside (0, inf)")
    return list(map(RoundRecord._make, zip(times.tolist(), d.astype(int).tolist(), mu.tolist(), var.tolist())))
