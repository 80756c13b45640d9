"""Bias functions of the ancilla-free and ancilla-based likelihood schemes.

The two-outcome likelihood is (1 + (-1)^d f * bias)/2 where the bias is
  * ancilla-free (AF):  <0| Q^dag(theta; x) P(theta) Q(theta; x) |0>,
  * ancilla-based (AB): Re <0| Q(theta; x) |0>.
Both are exact real functions of theta and the 2L reflection angles x and
reduce to Chebyshev-type cosines at x = (pi/2, ..., pi/2).  Both are readouts
of the quaternion kernel in ``algebra``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .algebra import af_readout, af_readout_derivative, circuit, circuit_pair, kernel_inputs, trig


class Scheme(Enum):
    """Likelihood-generation scheme: ancilla-free or ancilla-based."""

    AF = "af"
    AB = "ab"


def clf_angles(layers: int) -> np.ndarray:
    """Angle vector (pi/2, ..., pi/2) producing the Chebyshev likelihood."""
    if layers < 1:
        raise ValueError("layers must be >= 1")
    return np.full(2 * layers, np.pi / 2)


def bias(scheme: Scheme, theta, x):
    """Bias of the chosen scheme's likelihood at (theta, x).

    At the Chebyshev angles it equals cos((2L+1) theta) for AF and
    (-1)^L cos(L theta) for AB.

    ``x`` is one 2L-angle vector, or angle vectors along its last axis whose
    leading axes broadcast against ``theta`` (one vector per run).  A scalar
    theta with one vector gives a float.
    """
    return _bias_trig(scheme, *trig(*kernel_inputs(theta, x)))


def _bias_trig(scheme: Scheme, ct, st, cx, sx):
    """``bias`` from the output of ``trig``."""
    q = circuit(ct, st, cx, sx)
    return q[0] if scheme is Scheme.AB else af_readout(q, ct, st)


def _readout(scheme: Scheme, ct, st, q, dq):
    """(bias, d(bias)/dtheta) of the circuit pair (Q, dQ/dtheta): AB reads Q's first component."""
    if scheme is Scheme.AB:
        return q[0], dq[0]
    return af_readout(q, ct, st), af_readout_derivative(q, dq, ct, st)


def _bias_pair(scheme: Scheme, theta, x):
    """(bias, d(bias)/dtheta) at (theta, x) from one ``circuit_pair`` pass; validates and broadcasts like ``bias``."""
    ct, st, cx, sx = trig(*kernel_inputs(theta, x))
    return _readout(scheme, ct, st, *circuit_pair(ct, st, cx, sx))


def bias_derivative(scheme: Scheme, theta, x):
    """d/dtheta of the bias of the chosen scheme; broadcasts like ``bias``."""
    return _bias_pair(scheme, theta, x)[1]
