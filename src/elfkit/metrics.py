"""Statistical figures of merit of the noisy two-outcome likelihoods.

The noise model rescales the bias by a process fidelity f = spam * layer^L,
leaving the likelihood (1 + (-1)^d f * bias)/2.  From that follow the Fisher
information, the slope, and the asymptotic inverse-MSE rate predictor per
time step, of which a round spends ``round_cost`` of its depth; the Gaussian
belief is the estimator's state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check, check_fields, one_vector
from .bias import Scheme, _bias_pair, bias_derivative

# Treat 1 - f^2 b^2 below this as a singular likelihood rather than clamping.
# Nearer 0 the Fisher information is rounding noise: noiseless tuning at a
# Chebyshev node climbed above its Bernstein bound n^2 with a floor of 1e-14.
SINGULAR_TOL = 1e-8


@dataclass(frozen=True)
class NoiseModel:
    """Exponential-decay noise: per-layer fidelity and SPAM fidelity."""

    layer_fidelity: float = 1.0
    spam_fidelity: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)

    def process_fidelity(self, layers: int) -> float:
        """Fidelity of the whole L-layer process: spam * layer^L."""
        return self.spam_fidelity * self.layer_fidelity ** check("layers", layers)


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian description of the current knowledge of theta (or of Pi)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def round_cost(layers: int) -> int:
    """Time steps of a round of depth L: 2L + 1 ansatz applications.  Standard sampling is the depth-0 round."""
    return 2 * layers + 1


def round_times(layers: int, horizon: int) -> np.ndarray:
    """The end time of each round of depth ``layers`` that ends by ``horizon``: k ``round_cost(layers)``, k >= 1."""
    return np.arange(round_cost(layers), horizon + 1, round_cost(layers))


def climbed(g: float, f: float, delta: float, ddelta: float) -> float:
    """(g d(bias)/dtheta)^2 / (1 - (f bias)^2): F at (g, f) = (f, f), the squared slope at (1, 0); -inf if singular."""
    denom = 1.0 - (f * delta) ** 2
    if denom < SINGULAR_TOL:
        return -math.inf
    return (g * ddelta) ** 2 / denom


def fisher_information(scheme: Scheme, theta: float, f: float, x) -> float:
    """Fisher information of the two-outcome likelihood with respect to theta, at one theta and one angle vector."""
    f = float(check("fidelity", f))
    if (info := climbed(f, f, *_bias_pair(scheme, check("theta", theta), one_vector(x)))) == -math.inf:
        raise FloatingPointError("fisher information diverges: f|bias| -> 1")
    return info


def slope(scheme: Scheme, theta: float, f: float, x) -> float:
    """Magnitude of the likelihood slope, f |d(bias)/dtheta| / 2, at one theta and one angle vector."""
    return float(check("fidelity", f)) * abs(bias_derivative(scheme, check("theta", theta), one_vector(x))) / 2.0


def rhat0(scheme: Scheme, pi_star: float, f: float, x) -> float:
    """Predicted asymptotic growth rate per time step of the inverse MSE of Pi, at one pi_star and one angle vector.

    Evaluated at the true point theta* = arccos(pi_star) for the given angles;
    maximizing over the angles gives the rate predictor reported per scheme.
    One round of L layers takes 2L angles and costs ``round_cost(L)`` time steps.
    """
    pi_star = float(check("pi_star", pi_star))
    return fisher_information(scheme, math.acos(pi_star), f, x) / (round_cost(np.size(x) // 2) * (1.0 - pi_star**2))
