"""Cosine-sine(-bias) decomposition of the bias with respect to one angle.

For fixed theta and all other angles, the ancilla-free bias is a sinusoid of
2*x_j plus a constant and the ancilla-based bias is a sinusoid of x_j:

    AF:  bias(x_j) = c cos(2 x_j) + s sin(2 x_j) + b
    AB:  bias(x_j) = c cos(x_j)   + s sin(x_j)

with companion primed coefficients giving the theta-derivative of the bias in
the same form.

With P the product of the factors acting before x_j's factor F(x_j) =
cos x_j I - i sin x_j G and S the product of those after it, Q(x_j) =
S F(x_j) P = cos x_j Q0 + sin x_j Q2 with Q0 = S P and Q2 = S G P (G is F
at x_j = pi/2).  AB's c and s are the first components of Q0 and Q2; AF's
biases v0, v1, v2 at x_j = 0, pi/4, pi/2 (Q1 = (Q0 + Q2)/sqrt(2)) give

    AF:  c = (v0 - v2)/2,  b = (v0 + v2)/2,  s = v1 - b

and the theta-derivatives of the same biases give the primed coefficients.
Products carry their theta-derivative as quaternion pairs and are left
products by one U or V factor (``algebra._factor_mul``, the step of
``algebra.circuit_prefixes``).

The transpose of the left product by q is the left product by conj q, and
conj F(x) = F(-x).  So R = conj S, whose dot product with w is the first
component of S w, comes for every coordinate from one backward pass of the
same peeled products at -x_j, seeded with e0 = (1, 0, 0, 0).  AB's
coefficients are then 4-term dot products; AF's take Q0 = conj(R) P and
Q2 = conj(R) G P whole.

A coordinate sweep (``sweep``) updates x_1, ..., x_2L in turn; x_j's suffix
holds only coordinates not yet updated and its prefix only updated ones, so one
backward pass and a growing prefix serve it in O(L).  ``CoefficientTable``
records the coefficients of a sweep that keeps x.

The x-gradient (``slopes``) takes the same two passes.  Since dF/dx_j = G F,
the x_j-slope of Q is S G P' with P' = F(x_j) P, so a readout linear in Q
with co-vector e has slope r . (G P'), r being the backward pass seeded with
e: e0 for AB, and for AF the co-vector of the linear form 2 B(Q, .) at the
circuit's (Q, dQ), from ``algebra.af_covector``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .algebra import ONE, ZERO, _factor_mul, af_covector, canonical_angles, check, circuit_prefixes, trig
from .bias import Scheme, _readout

_IDENTITY_PAIR = (ONE, ZERO)
_SQRT_HALF = math.sqrt(0.5)


class CsbdCoefficients(NamedTuple):
    """Decomposition coefficients of the bias and its theta-derivative.

    The sinusoids' argument is k x_j with k = ``Scheme.angle_scale`` of the
    scheme they were computed for.  ``b`` and ``b_prime`` are identically
    zero for the ancilla-based scheme, whose bias has no constant term.
    """

    c: float
    s: float
    b: float
    c_prime: float
    s_prime: float
    b_prime: float


def _dot(r, w):
    """(r . w, dr . w + r . dw) of the pairs (r, dr) and (w, dw)."""
    (r0, r1, r2, r3), (dr0, dr1, dr2, dr3) = r
    (w0, w1, w2, w3), (dw0, dw1, dw2, dw3) = w
    return (
        r0 * w0 + r1 * w1 + r2 * w2 + r3 * w3,
        dr0 * w0 + dr1 * w1 + dr2 * w2 + dr3 * w3 + r0 * dw0 + r1 * dw1 + r2 * dw2 + r3 * dw3,
    )


def _slope(ct, st, u, r, p):
    """(r . G p, dr . G p + r . (dG p + G dp)) of the co-vector pair r and the pair p, for U's (if ``u``) or V's G.

    With x-hat = (0, 1, 0, 0) and z-hat = (0, 0, 0, 1), G = z-hat for V and
    G = st x-hat + ct z-hat, dG = ct x-hat - st z-hat for U; r . (x-hat p)
    and r . (z-hat p) are signed 4-term dot products.
    """
    (r0, r1, r2, r3), (e0, e1, e2, e3) = r
    (p0, p1, p2, p3), (f0, f1, f2, f3) = p
    z = r3 * p0 + r2 * p1 - r1 * p2 - r0 * p3
    dz = e3 * p0 + e2 * p1 - e1 * p2 - e0 * p3 + (r3 * f0 + r2 * f1 - r1 * f2 - r0 * f3)
    if not u:
        return z, dz
    x = r1 * p0 - r0 * p1 + r3 * p2 - r2 * p3
    dx = e1 * p0 - e0 * p1 + e3 * p2 - e2 * p3 + (r1 * f0 - r0 * f1 + r3 * f2 - r2 * f3)
    return st * x + ct * z, st * dx + ct * dz + ct * x - st * z


def _suffix_mul(rp, wp):
    """(S w, dS w + S dw) of the pair ``wp`` = (w, dw), for the backward-pass pair ``rp`` = (conj S, conj dS).

    Each product conj(r) w has r . w as its first component.
    """
    (r0, r1, r2, r3), (e0, e1, e2, e3) = rp
    (w0, w1, w2, w3), (f0, f1, f2, f3) = wp
    return (
        (
            r0 * w0 + r1 * w1 + r2 * w2 + r3 * w3,
            r0 * w1 - r1 * w0 - r2 * w3 + r3 * w2,
            r0 * w2 - r2 * w0 - r3 * w1 + r1 * w3,
            r0 * w3 - r3 * w0 - r1 * w2 + r2 * w1,
        ),
        (
            e0 * w0 + e1 * w1 + e2 * w2 + e3 * w3 + (r0 * f0 + r1 * f1 + r2 * f2 + r3 * f3),
            e0 * w1 - e1 * w0 - e2 * w3 + e3 * w2 + (r0 * f1 - r1 * f0 - r2 * f3 + r3 * f2),
            e0 * w2 - e2 * w0 - e3 * w1 + e1 * w3 + (r0 * f2 - r2 * f0 - r3 * f1 + r1 * f3),
            e0 * w3 - e3 * w0 - e1 * w2 + e2 * w1 + (r0 * f3 - r3 * f0 - r1 * f2 + r2 * f1),
        ),
    )


def _backward(ct, st, cx, sx, seed):
    """r_j = conj(S_j) e as pairs, j = 0..2L-1, from the seed pair (e, de) at the last coordinate."""
    adj = [seed] * len(cx)
    for j in range(len(cx) - 1, 0, -1):
        adj[j - 1] = _factor_mul(ct, st, cx[j], -sx[j], j % 2 == 0, adj[j])
    return adj


def _coefficients(scheme: Scheme, ct, st, r, pre, u) -> CsbdCoefficients:
    """Coefficients of the coordinate with factor U (if ``u``) or V between the ``pre`` pair and the suffix ``r``."""
    if scheme is Scheme.AB:
        (c, cp), (s, sp) = _dot(r, pre), _slope(ct, st, u, r, pre)
        return CsbdCoefficients(c, s, 0.0, cp, sp, 0.0)
    (q0, dq0), (q2, dq2) = _suffix_mul(r, pre), _suffix_mul(r, _factor_mul(ct, st, 0.0, 1.0, u, pre))
    # s = v1 - b, not the equal cross term of B: where the bias is flat in x_j
    # the Fisher step's choice rests on these rounding bits.
    h = _SQRT_HALF
    q1 = h * (q0[0] + q2[0]), h * (q0[1] + q2[1]), h * (q0[2] + q2[2]), h * (q0[3] + q2[3])
    dq1 = h * (dq0[0] + dq2[0]), h * (dq0[1] + dq2[1]), h * (dq0[2] + dq2[2]), h * (dq0[3] + dq2[3])
    (v0, d0), (v1, d1), (v2, d2) = (_readout(scheme, ct, st, *pair) for pair in ((q0, dq0), (q1, dq1), (q2, dq2)))
    b, bp = (v0 + v2) / 2.0, (d0 + d2) / 2.0
    return CsbdCoefficients((v0 - v2) / 2.0, v1 - b, b, (d0 - d2) / 2.0, d1 - bp, bp)


class CoefficientTable:
    """Every coordinate's coefficients at one (scheme, theta, x), recorded by one ``sweep`` that keeps x."""

    def __init__(self, scheme: Scheme, theta: float, x) -> None:
        theta, x = float(check("theta", theta)), canonical_angles(x)
        if x.ndim != 1:
            raise ValueError("angle vector must be one-dimensional")
        self._record: list[CsbdCoefficients] = []
        sweep(scheme, theta, x, lambda j, co: self._record.append(co) or x[j - 1])

    def coefficients(self, j: int) -> CsbdCoefficients:
        """CSBD coefficients of the bias with respect to x_j (1-based)."""
        if not 1 <= j <= len(self._record):
            raise IndexError(f"coordinate index {j} out of range 1..{len(self._record)}")
        return self._record[j - 1]


def sweep(scheme: Scheme, theta: float, x: np.ndarray, choose):
    """One coordinate sweep, updating the float vector ``x`` in place.

    For j = 1..2L, ``choose(j, coefficients)`` gets x_j's coefficients at the
    current x, whose x_1..x_j-1 are already updated, and returns the new x_j.
    ``x`` must hold valid angles (``algebra.canonical_angles``); it is not
    checked again.
    """
    ct, st, cx, sx = trig(theta, x)
    pre = _IDENTITY_PAIR
    for j, r in enumerate(_backward(ct, st, cx, sx, _IDENTITY_PAIR)):
        if j:  # x_j's prefix: the previous coordinate's factor, at its new angle, times that one's prefix
            pre = _factor_mul(ct, st, math.cos(z), math.sin(z), j % 2 == 1, pre)
        z = x[j] = choose(j + 1, _coefficients(scheme, ct, st, r, pre, j % 2 == 0))


def slopes(scheme: Scheme, theta: float, x: np.ndarray):
    """(bias, d(bias)/dtheta) at (theta, x) and their gradients in x, from one forward and one backward pass.

    Like ``sweep``, takes ``x`` as a valid float vector without checking it.
    For a scalar theta the gradients are tuples of Python floats.
    """
    ct, st, cx, sx = trig(theta, x)
    pre = circuit_prefixes(ct, st, cx, sx)
    q, dq = pre[-1]
    delta, ddelta = _readout(scheme, ct, st, q, dq)
    if scheme is Scheme.AB:
        seed = _IDENTITY_PAIR
    else:
        e, de = af_covector(q, -st, ct), af_covector(dq, ct, st)
        seed = af_covector(q, ct, st), (e[0] + de[0], e[1] + de[1], e[2] + de[2], e[3] + de[3])
    adj = _backward(ct, st, cx, sx, seed)
    chi, chi_p = zip(*[_slope(ct, st, j % 2 == 0, adj[j], pre[j]) for j in range(len(cx))])
    return delta, ddelta, chi, chi_p
