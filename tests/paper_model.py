"""The paper's Gaussian-prior figures and runtime model in closed form: oracles kept in the tests only.

No ``elfkit`` command runs these, so they live beside the tests that use
them, like ``slope_oracle``.  Each is the paper's formula as written:

* ``likelihood``: the noisy two-outcome likelihood (1 + (-1)^d f bias)/2
  (``test_metrics``, and ``test_sim``'s outcome frequencies).
* ``expected_bias``, ``variance_reduction_factor`` and
  ``inverse_variance_rate``: the Gaussian-prior average of the bias, the
  expected one-round shrinkage of the posterior variance, and the growth rate
  of the inverse variance per time step (``test_metrics``).
* ``rbar`` and ``chebyshev_rate_bounds``: the optimal-depth inverse-variance
  rate and its constant-factor Chebyshev envelope (``test_runtime_model``).
* ``integrate_inverse_variance`` and ``InverseVarianceCurve``: the ODE
  dF/dt = rbar(1/sqrt(F)) between the Heisenberg and shot-noise regimes
  (``test_runtime_model``).
* ``NoiseParams`` and ``RateDomainError``: the runtime model's exponents lam
  and alpha, and the error of inputs outside the rate model's validity
  region; ``elfkit.runtime_model`` takes lam alone (``test_runtime_model``).
* ``from_noise_model``: the runtime model's exponents of a
  ``metrics.NoiseModel`` (``test_runtime_model``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from elfkit.algebra import check
from elfkit.bias import Scheme, bias, bias_series
from elfkit.metrics import SINGULAR_TOL, GaussianBelief
from elfkit.runtime_model import E

RATE_LOWER_FACTOR = (E - 1.0) / E
RATE_UPPER_FACTOR = E / (E - 1.0)
MU_VALID_RANGE = (0.1 * math.pi, 0.9 * math.pi)


class RateDomainError(ValueError):
    """Inputs outside the validity region of the rate model."""


@dataclass(frozen=True)
class NoiseParams:
    """Reparameterized noise: fidelity^2 = exp(-lam * (2L+1) - alpha).

    The model requires lam <= 1 (deeper noise breaks the continuous-depth
    optimization).  ``alpha`` may be negative: with no SPAM error the layer
    share alone gives alpha = -lam.
    """

    lam: float
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise RateDomainError("lam must lie in [0, 1]")
        if not math.isfinite(self.alpha):
            raise RateDomainError("alpha must be finite")


def likelihood(scheme: Scheme, d: int, theta, f: float, x):
    """Probability of outcome d under the noisy likelihood (sums to 1 exactly)."""
    if d not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    f = float(check("fidelity", f))
    sign = 1.0 if d == 0 else -1.0
    return (1.0 + sign * f * bias(scheme, theta, x)) / 2.0


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
    f = float(check("fidelity", f))
    b, db = expected_bias(scheme, belief, x)
    denom = 1.0 - (f * b) ** 2
    if denom < SINGULAR_TOL:
        raise FloatingPointError("variance reduction factor diverges: f|b| -> 1")
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
        raise FloatingPointError("sigma^2 V >= 1: rate expression invalid")
    return v / ((2 * layers + 1) * (1.0 - shrink))


def from_noise_model(noise) -> NoiseParams:
    """Exponents matching fidelity = spam * layer^L at every L."""
    lam = math.log(1.0 / noise.layer_fidelity)
    alpha = 2.0 * math.log(1.0 / noise.spam_fidelity) - lam
    return NoiseParams(lam, alpha)


def rbar(sigma, noise: NoiseParams):
    """Optimal-depth inverse-variance rate at prior width sigma.

    The rate is the maximum over depth m of m exp(-lam m - m^2 sigma^2 - alpha),
    reached at 1/m = (sqrt(lam^2 + 8 sigma^2) + lam)/2.  It tends to
    e^(-alpha-1/2)/(sqrt(2) sigma) as lam -> 0 and to e^(-alpha-1)/lam for
    sigma << lam.  Dropping either decay term can only raise the maximum, so
    the rate lies at or below both limits, not between them.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(sigma > 0.0):
        raise RateDomainError("sigma must be positive")
    lam, alpha = noise.lam, noise.alpha
    root = np.sqrt(lam * lam + 8.0 * sigma * sigma)
    out = (
        2.0 * math.exp(-alpha - 1.0) / (root + lam)
        * np.exp(2.0 * sigma * sigma / (4.0 * sigma * sigma + lam * lam + lam * root))
    )
    return out if out.ndim else float(out)


def chebyshev_rate_bounds(mu: float, sigma: float, noise: NoiseParams) -> tuple[float, float]:
    """Constant-factor envelope of the depth-optimized Chebyshev rate.

    Valid for mu in [0.1 pi, 0.9 pi]; the ratio of the bounds is
    (e/(e-1))^2 independent of the inputs.
    """
    if not MU_VALID_RANGE[0] <= mu <= MU_VALID_RANGE[1]:
        raise RateDomainError("mu must lie in [0.1 pi, 0.9 pi]")
    mid = rbar(sigma, noise)
    return RATE_LOWER_FACTOR * mid, RATE_UPPER_FACTOR * mid


@dataclass(frozen=True)
class InverseVarianceCurve:
    times: np.ndarray
    values: np.ndarray
    _dense: object

    def at(self, t):
        return self._dense(np.asarray(t, dtype=float))[0]

    def time_to(self, f_target: float) -> float:
        """First time the inverse variance reaches the target (monotone curve)."""
        if f_target <= self.values[0]:
            return float(self.times[0])
        if f_target > self.values[-1]:
            raise ValueError("target beyond integrated horizon")
        idx = int(np.searchsorted(self.values, f_target))
        lo, hi = self.times[max(idx - 1, 0)], self.times[idx]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.at(mid) < f_target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def integrate_inverse_variance(
    noise: NoiseParams,
    f0: float,
    t_max: float,
    n_points: int = 400,
    rtol: float = 1e-8,
) -> InverseVarianceCurve:
    """Integrate dF/dt = rbar(1/sqrt(F)) from F(0) = f0 up to t_max.

    Quadratic growth while F << 1/lam^2, linear growth for F >> 1/lam^2.
    """
    if f0 <= 0.0:
        raise ValueError("initial inverse variance must be positive")

    def rhs(_t, y):
        return [rbar(1.0 / math.sqrt(y[0]), noise)]

    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        [f0],
        rtol=rtol,
        atol=f0 * 1e-12,
        dense_output=True,
        method="RK45",
    )
    if not sol.success:
        raise ArithmeticError(f"inverse-variance integration failed: {sol.message}")
    times = np.linspace(0.0, t_max, n_points)
    values = sol.sol(times)[0]
    return InverseVarianceCurve(times, values, sol.sol)
