"""The bias and its slopes as functions of one free angle, rebuilt from CSBD coefficients.

Kept in the tests only: the tuner reads the coefficients directly, and these
reconstructions check them against the kernel (``test_csbd``) and give the
reference gradient of ``test_tuner``.  ``co`` is a ``csbd.CsbdCoefficients``;
the sinusoid's argument is k x_j with k the scheme's ``Scheme.angle_scale``.
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


def bias_slope_in_xj(co, k, xj):
    """Partial derivative of the bias with respect to x_j itself."""
    a = _argument(k, xj)
    return k * (-co.c * np.sin(a) + co.s * np.cos(a))


def bias_derivative_slope_in_xj(co, k, xj):
    """Partial derivative of d(bias)/dtheta with respect to x_j."""
    a = _argument(k, xj)
    return k * (-co.c_prime * np.sin(a) + co.s_prime * np.cos(a))
