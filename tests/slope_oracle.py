"""The closed-form single-layer slope optimum: an independent oracle for the tuner.

Kept in the tests only.  For L = 1 (ancilla-free) the maximum of
|d(bias)/dtheta| over both angles is piecewise in mu, with four breakpoints:
two arctan expressions and two roots of degree-8 palindromic polynomials.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _real_roots_sorted(coeffs: list[float]) -> np.ndarray:
    roots = np.roots(coeffs)
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    return real


@lru_cache(maxsize=1)
def l1_slope_breakpoints() -> tuple[float, float, float, float]:
    """The four boundaries of the piecewise single-layer slope optimum.

    The outer two are arctan expressions; the inner two come from the third
    smallest real roots of a pair of degree-8 palindromic polynomials.
    """
    mu1 = 2.0 * math.atan(math.sqrt((4.0 - math.sqrt(13.0)) / 3.0))
    mu4 = 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(13.0)))
    p2 = [1.0, 72.0, -1540.0, 8568.0, -16506.0, 8568.0, -1540.0, 72.0, 1.0]
    p3 = [9.0, -264.0, 2492.0, -9016.0, 13302.0, -9016.0, 2492.0, -264.0, 9.0]
    # np.roots expects the highest-degree coefficient first; both lists are
    # palindromic so the order is immaterial, kept explicit for clarity.
    r2 = _real_roots_sorted(p2)
    r3 = _real_roots_sorted(p3)
    mu2 = 4.0 * math.atan(math.sqrt(r2[2]))
    mu3 = 4.0 * math.atan(math.sqrt(r3[2]))
    return mu1, mu2, mu3, mu4


def analytic_l1_slope_optimum(mu: float) -> tuple[float, float, float]:
    """Exact max of |d(bias)/dtheta| over both angles for L=1 (ancilla-free).

    Returns the maximum slope magnitude and one pair of angles attaining it.
    """
    if not 0.0 <= mu <= math.pi:
        raise ValueError("mu must lie in [0, pi]")
    mu1, mu2, mu3, mu4 = l1_slope_breakpoints()
    half = mu / 2.0
    if mu <= mu1 or mu >= mu4:
        return 3.0 * math.sin(3.0 * mu), math.pi / 2.0, math.pi / 2.0
    if mu2 <= mu <= mu3:
        return -3.0 * math.sin(3.0 * mu), math.pi / 2.0, math.pi / 2.0
    if mu < mu2:
        value = 4.0 * math.cos(half) ** 4 / math.tan(half) / (1.0 + 3.0 * math.cos(mu))
        arg = math.sqrt(1.0 - 3.0 * math.cos(mu) + 1.0 / math.cos(mu))
        gamma = math.atan(1.0 / arg)
        return value, -gamma, gamma
    value = 4.0 * math.sin(half) ** 4 * math.tan(half) / (1.0 - 3.0 * math.cos(mu))
    arg = math.sqrt(1.0 + 3.0 * math.cos(mu) - 1.0 / math.cos(mu))
    gamma = math.atan(1.0 / arg)
    return value, gamma, gamma
