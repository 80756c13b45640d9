"""The bias and its theta-derivative as functions of one free angle, rebuilt from CSBD coefficients.

Kept in the tests only: the tuner reads the coefficients directly, and these
reconstructions check a sweep's coefficients against the kernel
(``test_csbd``).  ``co`` is a ``csbd.CsbdCoefficients``; the sinusoid's
argument is k x_j with k the scheme's ``Scheme.angle_scale``.
"""

from __future__ import annotations

import numpy as np


def _argument(k, xj):
    return k * np.asarray(xj, dtype=float)


def bias_at(co, k, xj):
    """The bias as a function of the free angle x_j."""
    a = _argument(k, xj)
    return co.c * np.cos(a) + co.s * np.sin(a) + co.b


def bias_derivative_at(co, k, xj):
    """d(bias)/dtheta as a function of the free angle x_j."""
    a = _argument(k, xj)
    return co.c_prime * np.cos(a) + co.s_prime * np.sin(a) + co.b_prime
