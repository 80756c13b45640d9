"""Complex 2x2 matrix evaluation of the circuits: the reference for the quaternion kernel.

Kept in the tests only.  Every quantity is computed from explicit complex
matrices and matrix products, independently of ``elfkit.algebra``; the CSBD
coefficients come from a discrete Fourier transform of the bias over one
period of the free angle, not from the three-point rule the package uses.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def observable(theta) -> np.ndarray:
    """cos(theta) Z + sin(theta) X."""
    t = np.asarray(theta, dtype=float)[..., None, None]
    return np.cos(t) * PAULI_Z + np.sin(t) * PAULI_X


def observable_derivative(theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)[..., None, None]
    return -np.sin(t) * PAULI_Z + np.cos(t) * PAULI_X


def reflection_u(theta, x) -> np.ndarray:
    """cos(x) I - i sin(x) P(theta)."""
    x = np.asarray(x, dtype=float)[..., None, None]
    return np.cos(x) * IDENTITY - 1j * np.sin(x) * observable(theta)


def reflection_u_derivative(theta, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)[..., None, None]
    return -1j * np.sin(x) * observable_derivative(theta)


def reflection_v(x) -> np.ndarray:
    """cos(x) I - i sin(x) Z."""
    x = np.asarray(x, dtype=float)[..., None, None]
    return np.cos(x) * IDENTITY - 1j * np.sin(x) * PAULI_Z


def circuit_q(theta, x) -> tuple[np.ndarray, np.ndarray]:
    """(Q, dQ/dtheta); the j-th angle's factor is U for odd j (1-based), V for even j."""
    shape = np.shape(theta) + (2, 2)
    q = np.broadcast_to(IDENTITY, shape).copy()
    dq = np.zeros(shape, dtype=complex)
    for idx, xj in enumerate(x):
        if idx % 2 == 0:
            factor = reflection_u(theta, xj)
            dq = factor @ dq + reflection_u_derivative(theta, xj) @ q
        else:
            factor = reflection_v(xj)
            dq = factor @ dq
        q = factor @ q
    return q, dq


def bias(af: bool, theta, x):
    """(bias, d bias/dtheta) from the explicit matrix elements."""
    q, dq = circuit_q(theta, x)
    if not af:
        return q[..., 0, 0].real, dq[..., 0, 0].real
    qd, dqd = np.conj(np.swapaxes(q, -1, -2)), np.conj(np.swapaxes(dq, -1, -2))
    p, dp = observable(theta), observable_derivative(theta)
    value = (qd @ p @ q)[..., 0, 0]
    deriv = (dqd @ p @ q + qd @ dp @ q + qd @ p @ dq)[..., 0, 0]
    return value.real, deriv.real


def csbd(af: bool, theta: float, x, samples: int = 8) -> np.ndarray:
    """Rows (c, s, b, c', s', b') of the bias in each x_j, by a discrete Fourier transform.

    Each x_j in turn takes ``samples`` equally spaced values over one period
    of the bias; all probes go through the product in one batch.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    k = 2.0 if af else 1.0
    z = (2.0 * np.pi / k) * np.arange(samples) / samples
    probes = np.repeat(x[None, :], n * samples, axis=0)
    rows = np.arange(n * samples)
    probes[rows, rows // samples] = np.tile(z, n)
    values, derivs = (v.reshape(n, samples) for v in bias(af, theta, probes.T))
    cos, sin = np.cos(k * z), np.sin(k * z)
    return np.column_stack(
        [2.0 * (values * cos).mean(1), 2.0 * (values * sin).mean(1), values.mean(1),
         2.0 * (derivs * cos).mean(1), 2.0 * (derivs * sin).mean(1), derivs.mean(1)]
    )
