"""Bias functions of the ancilla-free and ancilla-based likelihood schemes.

The two-outcome likelihood is (1 + (-1)^d f * bias)/2 where the bias is
  * ancilla-free (AF):  <0| Q^dag(theta; x) P(theta) Q(theta; x) |0>,
  * ancilla-based (AB): Re <0| Q(theta; x) |0>.
Both are exact real functions of theta and the 2L reflection angles x and
reduce to Chebyshev-type cosines at x = (pi/2, ..., pi/2).  Both are readouts
of the quaternion kernel in ``algebra``.

For a fixed x the bias is a trigonometric polynomial in theta of degree
D = 2L + 1 (AF) or L (AB); the estimation round reads it from the
coefficients of ``bias_series`` by Horner's rule in e^{i theta}.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .algebra import af_covector, af_parts, angle_vectors, check, check_type, circuit, circuit_prefixes, kernel_inputs, trig


class Scheme(Enum):
    """Likelihood-generation scheme: ancilla-free or ancilla-based."""

    AF = "af"
    AB = "ab"

    @property
    def angle_scale(self) -> float:
        """k of the bias's sinusoid in k x_j: 2 for AF (period pi in each angle), 1 for AB (period 2 pi)."""
        return 2.0 if self is Scheme.AF else 1.0


def clf_angles(layers: int) -> np.ndarray:
    """Angle vector (pi/2, ..., pi/2) producing the Chebyshev likelihood."""
    return np.full(2 * check("layers", layers), np.pi / 2)


def bias(scheme: Scheme, theta, x):
    """Bias of the chosen scheme's likelihood at (theta, x).

    At the Chebyshev angles it equals cos((2L+1) theta) for AF and (-1)^L cos(L theta) for AB.  It is even
    in x and unchanged by reversing x; a pi shift of any one angle keeps the AF bias and negates the AB one.

    ``x`` is one 2L-angle vector, or angle vectors along its last axis whose
    leading axes broadcast against ``theta`` (one vector per run).  A scalar
    theta with one vector gives a float.
    """
    check_type("scheme", scheme, Scheme)
    ct, st, cx, sx = trig(*kernel_inputs(theta, x))
    q = circuit(ct, st, cx, sx)
    if scheme is Scheme.AB:
        return q[0]
    px, pz = af_parts(q)
    return st * px + ct * pz


@lru_cache(maxsize=None)
def _dft_matrix(degree: int) -> np.ndarray:
    """Read-only (D + 1, 2D + 1) map from samples at theta_n = 2 pi n / (2D + 1) to c_0..c_D.

    Row k is w_k e^{-ik theta_n} / (2D + 1), with w_0 = 1 and w_k = 2 since Re
    folds the conjugate e^{-ik theta} term into c_k; k n is reduced mod 2D + 1.
    """
    points = 2 * degree + 1
    k = np.arange(degree + 1)[:, None]
    w = np.exp(-2j * np.pi * ((k * np.arange(points)) % points) / points) / points
    w[1:] *= 2.0
    w.flags.writeable = False
    return w


def bias_series(scheme: Scheme, x) -> np.ndarray:
    """Coefficients c_0..c_D with bias(theta; x) = Re sum_k c_k e^{ik theta}, along the first axis.

    ``x`` is one 2L-angle vector or angle vectors along its last axis, one
    column each.  At the Chebyshev angles only c_{2L+1} = 1 (AF) or
    c_L = (-1)^L (AB) is nonzero.  One kernel call at the 2D + 1 points
    theta_n fixes the polynomial exactly; the sum over n takes one sample at a
    time, so a column does not depend on how many vectors share the call.
    """
    x = angle_vectors(x)
    w = _dft_matrix(x.shape[-1] + 1 if scheme is Scheme.AF else x.shape[-1] // 2)
    pad = (1,) * (x.ndim - 1)
    samples = bias(scheme, (2.0 * np.pi / w.shape[1] * np.arange(w.shape[1])).reshape(-1, *pad), x)
    w = w.reshape(w.shape + pad)
    c = w[:, 0] * samples[0]
    for n in range(1, w.shape[1]):
        c += w[:, n] * samples[n]
    return c


def _horner(c, e):
    """Re sum_k c_k e^k by Horner's rule, element-wise: each c_k broadcasts against e (e = e^{i theta})."""
    acc = c[-1] * e
    for ck in c[-2:0:-1]:
        acc += ck
        acc *= e
    return acc.real + c[0].real


def _readout(scheme: Scheme, ct, st, q, dq):
    """(bias, d(bias)/dtheta) of the pair (Q, dQ/dtheta); AF sums e . dQ first, as tunes on flat ridges rest on its bits."""
    if scheme is Scheme.AB:
        return q[0], dq[0]
    px, pz = af_parts(q)
    e0, e1, e2, e3 = af_covector(q, ct, st)
    return st * px + ct * pz, ct * px - st * pz + (e0 * dq[0] + e1 * dq[1] + e2 * dq[2] + e3 * dq[3])


def _bias_pair(scheme: Scheme, theta, x):
    """(bias, d(bias)/dtheta) at (theta, x) from the last of ``circuit_prefixes``; validates and broadcasts like ``bias``."""
    check_type("scheme", scheme, Scheme)
    ct, st, cx, sx = trig(*kernel_inputs(theta, x))
    return _readout(scheme, ct, st, *circuit_prefixes(ct, st, cx, sx)[-1])


def bias_derivative(scheme: Scheme, theta, x):
    """d/dtheta of the bias of the chosen scheme; broadcasts like ``bias``."""
    return _bias_pair(scheme, theta, x)[1]
