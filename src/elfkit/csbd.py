"""Cosine-sine(-bias) decomposition of the bias with respect to one angle.

For fixed theta and all other angles, the ancilla-free bias is a sinusoid of
2*x_j plus a constant and the ancilla-based bias is a sinusoid of x_j:

    AF:  bias(x_j) = c cos(2 x_j) + s sin(2 x_j) + b
    AB:  bias(x_j) = c cos(x_j)   + s sin(x_j)

with companion primed coefficients giving the theta-derivative of the bias in
the same form.

The coefficients are read off the exact sinusoid at a few values of x_j.  With
P the product of the factors acting before x_j's factor F(x_j) = cos x_j I -
i sin x_j G and S the product of those acting after it, Q(x_j) = S F(x_j) P.
Since F(0) = I, F(pi/2) = -iG and F(pi/4) = (I - iG)/sqrt(2), two products
Q(0) = S P and Q(pi/2) = S (-iG) P give Q(pi/4) = (Q(0) + Q(pi/2))/sqrt(2).
The biases v0, v1, v2 at x_j = 0, pi/4, pi/2 give

    AF:  c = (v0 - v2)/2,  b = (v0 + v2)/2,  s = v1 - b
    AB:  c = v0,           s = v2            (AB needs only x_j = 0, pi/2)

and the theta-derivatives of the same biases give the primed coefficients.
Every product carries its theta-derivative as a quaternion pair (see
``algebra``), so a table of prefix and suffix pairs built once per
(scheme, theta, x) in O(L) time serves all 2L coordinates in O(1) each.

A coordinate sweep (``sweep``) updates x_1, ..., x_2L in turn.  The suffix of
x_j holds only coordinates not yet updated and its prefix only updated ones,
so one suffix table and a growing prefix serve the whole sweep in O(L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ONE,
    ZERO,
    af_readout,
    af_readout_derivative,
    canonical_angles,
    qmul,
    trig,
    u_pair,
    v_pair,
)
from .bias import Scheme

_IDENTITY_PAIR = (ONE, ZERO)
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class CsbdCoefficients:
    """Decomposition coefficients of the bias and its theta-derivative.

    ``b`` and ``b_prime`` are identically zero for the ancilla-based scheme,
    whose bias has no constant term and period 2*pi in each angle.
    """

    scheme: Scheme
    c: float
    s: float
    b: float
    c_prime: float
    s_prime: float
    b_prime: float

    @property
    def angle_scale(self) -> float:
        """Multiplier on x_j inside the sinusoid: 2 for AF, 1 for AB."""
        return 2.0 if self.scheme is Scheme.AF else 1.0

    def bias_at(self, xj) -> float:
        """Reconstruct the bias as a function of the free angle x_j."""
        a = self.angle_scale * np.asarray(xj, dtype=float)
        return self.c * np.cos(a) + self.s * np.sin(a) + self.b

    def bias_derivative_at(self, xj) -> float:
        """Reconstruct d(bias)/dtheta as a function of the free angle x_j."""
        a = self.angle_scale * np.asarray(xj, dtype=float)
        return self.c_prime * np.cos(a) + self.s_prime * np.sin(a) + self.b_prime

    def bias_slope_in_xj(self, xj) -> float:
        """Partial derivative of the bias with respect to x_j itself."""
        k = self.angle_scale
        a = k * np.asarray(xj, dtype=float)
        return k * (-self.c * np.sin(a) + self.s * np.cos(a))

    def bias_derivative_slope_in_xj(self, xj) -> float:
        """Partial derivative of d(bias)/dtheta with respect to x_j."""
        k = self.angle_scale
        a = k * np.asarray(xj, dtype=float)
        return k * (-self.c_prime * np.sin(a) + self.s_prime * np.cos(a))


def _pair_mul(p, q):
    """(p q, dp q + p dq) for quaternion pairs."""
    (x, dx), (y, dy) = p, q
    e, f = qmul(dx, y), qmul(x, dy)
    return qmul(x, y), (e[0] + f[0], e[1] + f[1], e[2] + f[2], e[3] + f[3])


def _coefficients(scheme: Scheme, ct, st, pre, suf, gen) -> CsbdCoefficients:
    """Coefficients of the coordinate with generator pair ``gen`` between the ``pre`` and ``suf`` pairs."""
    q0 = _pair_mul(suf, pre)
    q2 = _pair_mul(suf, _pair_mul(gen, pre))
    if scheme is Scheme.AB:
        return CsbdCoefficients(scheme, q0[0][0], q2[0][0], 0.0, q0[1][0], q2[1][0], 0.0)
    q1 = tuple(tuple(_SQRT_HALF * (u + v) for u, v in zip(p0, p2)) for p0, p2 in zip(q0, q2))
    v0, v1, v2 = (af_readout(q, ct, st) for q, _ in (q0, q1, q2))
    d0, d1, d2 = (af_readout_derivative(q, dq, ct, st) for q, dq in (q0, q1, q2))
    b, bp = (v0 + v2) / 2.0, (d0 + d2) / 2.0
    return CsbdCoefficients(scheme, (v0 - v2) / 2.0, v1 - b, b, (d0 - d2) / 2.0, d1 - bp, bp)


def _tables(theta, x):
    """cos/sin theta, the generator pairs, and the factor and suffix pairs of one (theta, x)."""
    ct, st, cx, sx = trig(theta, x)
    factors = [u_pair(ct, st, c, s) if j % 2 == 0 else v_pair(c, s) for j, (c, s) in enumerate(zip(cx, sx))]
    # suf[j]: factors j+1..2L-1 (acting after coordinate j, 0-based).
    suf = [_IDENTITY_PAIR] * len(factors)
    for j in range(len(factors) - 2, -1, -1):
        suf[j] = _pair_mul(suf[j + 1], factors[j + 1])
    # Generators -iG of the U and V factors, i.e. the factors at x_j = pi/2.
    return ct, st, (u_pair(ct, st, 0.0, 1.0), v_pair(0.0, 1.0)), factors, suf


class CoefficientTable:
    """Prefix/suffix product tables for one (scheme, theta, x).

    Immutable after construction; safe for concurrent queries.
    """

    def __init__(self, scheme: Scheme, theta: float, x) -> None:
        self.scheme = scheme
        self.theta = float(theta)
        self.x = canonical_angles(x)
        if self.x.ndim != 1:
            raise ValueError("angle vector must be one-dimensional")
        self.layers = self.x.size // 2
        ct, st, self._generators, factors, self._suf = _tables(self.theta, self.x)
        self._trig = ct, st
        # pre[j]: factors 0..j-1 (acting before coordinate j, 0-based).
        self._pre = pre = [_IDENTITY_PAIR] * len(factors)
        for j in range(1, len(factors)):
            pre[j] = _pair_mul(factors[j - 1], pre[j - 1])

    def coefficients(self, j: int) -> CsbdCoefficients:
        """CSBD coefficients of the bias with respect to x_j (1-based)."""
        if not 1 <= j <= 2 * self.layers:
            raise IndexError(f"coordinate index {j} out of range 1..{2 * self.layers}")
        ct, st = self._trig
        return _coefficients(self.scheme, ct, st, self._pre[j - 1], self._suf[j - 1], self._generators[(j - 1) % 2])


def sweep(scheme: Scheme, theta: float, x: np.ndarray, choose):
    """One coordinate sweep, updating the float vector ``x`` in place.

    For j = 1..2L, ``choose(j, coefficients)`` gets x_j's coefficients at the
    current x, whose x_1..x_j-1 are already updated, and returns the new x_j.
    Returns the final prefix, the pair (Q, dQ/dtheta) of the updated x.
    """
    ct, st, generators, _, suf = _tables(theta, x)
    pre = _IDENTITY_PAIR
    for j in range(len(suf)):
        z = choose(j + 1, _coefficients(scheme, ct, st, pre, suf[j], generators[j % 2]))
        x[j] = z
        c, s = math.cos(z), math.sin(z)
        pre = _pair_mul(u_pair(ct, st, c, s) if j % 2 == 0 else v_pair(c, s), pre)
    return pre
