"""Statistical figures of merit of the noisy two-outcome likelihoods.

The noise model rescales the bias by a process fidelity f = spam * layer^L,
leaving the likelihood (1 + (-1)^d f * bias)/2.  From that follow the Fisher
information, the slope, and the Gaussian-prior quantities: expected bias
b(mu, sigma; x), the variance reduction factor, the inverse-variance growth
rate per time step, and the asymptotic inverse-MSE rate predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bias import Scheme, _bias_pair, bias, bias_derivative, bias_series

# Treat 1 - f^2 b^2 below this as a singular likelihood rather than clamping.
SINGULAR_TOL = 1e-14


class SingularLikelihoodError(ArithmeticError):
    """The likelihood is deterministic (f |bias| -> 1) and the metric diverges."""


@dataclass(frozen=True)
class NoiseModel:
    """Exponential-decay noise: per-layer fidelity and SPAM fidelity."""

    layer_fidelity: float = 1.0
    spam_fidelity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.layer_fidelity <= 1.0:
            raise ValueError("layer_fidelity must be in (0, 1]")
        if not 0.0 < self.spam_fidelity <= 1.0:
            raise ValueError("spam_fidelity must be in (0, 1]")

    def process_fidelity(self, layers: int) -> float:
        """Fidelity of the whole L-layer process: spam * layer^L."""
        if layers < 0:
            raise ValueError("layers must be >= 0")
        return self.spam_fidelity * self.layer_fidelity**layers


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian description of the current knowledge of theta (or of Pi)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("belief moments must be finite")
        if self.variance <= 0.0:
            raise ValueError("belief variance must be positive")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def _check_fidelity(f: float) -> float:
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    return f


def likelihood(scheme: Scheme, d: int, theta, f: float, x):
    """Probability of outcome d under the noisy likelihood (sums to 1 exactly)."""
    if d not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    f = _check_fidelity(f)
    sign = 1.0 if d == 0 else -1.0
    return (1.0 + sign * f * bias(scheme, theta, x)) / 2.0


def fisher_information(scheme: Scheme, theta, f: float, x):
    """Fisher information of the two-outcome likelihood with respect to theta."""
    f = _check_fidelity(f)
    delta, ddelta = (np.asarray(v) for v in _bias_pair(scheme, theta, x))
    denom = 1.0 - (f * delta) ** 2
    if np.any(denom < SINGULAR_TOL):
        raise SingularLikelihoodError("fisher information diverges: f|bias| -> 1")
    out = (f * ddelta) ** 2 / denom
    return out if out.ndim else float(out)


def slope(scheme: Scheme, theta, f: float, x):
    """Magnitude of the likelihood slope: f |d(bias)/dtheta| / 2."""
    f = _check_fidelity(f)
    out = f * np.abs(np.asarray(bias_derivative(scheme, theta, x))) / 2.0
    return out if out.ndim else float(out)


def expected_bias(scheme: Scheme, belief: GaussianBelief, x) -> tuple[float, float]:
    """Gaussian-prior average of the bias and its derivative in the prior mean.

    With bias(theta) = Re sum_k c_k e^{ik theta} (``bias_series``) and the
    Gaussian moments phi_k = E[e^{ik theta}] = e^{ik mu - k^2 sigma^2 / 2},
    both are closed forms, exact at every sigma > 0 and every L:
    b = Re sum_k c_k phi_k and db/dmu = Re sum_k ik c_k phi_k.
    """
    c = bias_series(scheme, x)
    k = np.arange(c.size)
    weighted = c * np.exp(1j * belief.mean * k - 0.5 * belief.variance * k * k)
    return float(weighted.real.sum()), float(-(k * weighted.imag).sum())


def variance_reduction_factor(scheme: Scheme, belief: GaussianBelief, f: float, x) -> float:
    """Expected fractional one-round shrinkage of the posterior variance.

    Satisfies E_d[Var(theta | d)] = sigma^2 (1 - sigma^2 * V) exactly.
    """
    f = _check_fidelity(f)
    b, db = expected_bias(scheme, belief, x)
    denom = 1.0 - (f * b) ** 2
    if denom < SINGULAR_TOL:
        raise SingularLikelihoodError("variance reduction factor diverges: f|b| -> 1")
    return (f * db) ** 2 / denom


def inverse_variance_rate(
    scheme: Scheme, belief: GaussianBelief, f: float, x, layers: int
) -> float:
    """Growth rate per time step of the inverse variance of theta.

    Time is measured in ansatz durations; one L-layer round costs 2L + 1.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != 2 * layers:
        raise ValueError("angle vector length must be 2 * layers")
    v = variance_reduction_factor(scheme, belief, f, x)
    shrink = belief.variance * v
    if shrink >= 1.0:
        raise SingularLikelihoodError("sigma^2 V >= 1: rate expression invalid")
    return v / ((2 * layers + 1) * (1.0 - shrink))


def rhat0(scheme: Scheme, pi_star: float, f: float, x, layers: int) -> float:
    """Predicted asymptotic growth rate per time step of the inverse MSE of Pi.

    Evaluated at the true point theta* = arccos(pi_star) for the given angles;
    maximizing over the angles gives the rate predictor reported per scheme.
    """
    pi_star = float(pi_star)
    if not -1.0 < pi_star < 1.0:
        raise ValueError("pi_star must lie strictly inside (-1, 1)")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != 2 * layers:
        raise ValueError("angle vector length must be 2 * layers")
    info = fisher_information(scheme, math.acos(pi_star), f, x)
    return info / ((2 * layers + 1) * (1.0 - pi_star**2))
