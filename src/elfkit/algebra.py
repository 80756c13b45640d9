"""Real SU(2) kernel for the generalized-reflection circuits.

Every operator of the circuits leaves the plane span{|A>, P|A>} invariant and
acts on it, in the {|0>, |1>} basis of that plane, as cos(x) I - i sin(x) G
with G = Z (reflection about the ansatz state) or G = P(theta) =
cos(theta) Z + sin(theta) X (reflection about the observable).  Products of
such factors stay in SU(2), so every operator is a real unit quaternion,
held as a 4-tuple:

    q = (a, b, c, d)   <->   a I - i (b X + c Y + d Z)

    U(theta, x) = (cos x, sin x sin theta, 0, sin x cos theta)
    V(x)        = (cos x, 0, 0, sin x)

Products are written in operator order (the right factor acts first); with
v = (b, c, d) the product is

    p q = (a_p a_q - v_p . v_q,  a_p v_q + a_q v_p + v_p x v_q).

The circuit Q(theta; x) = V(x_2L) U(x_2L-1) ... V(x_2) U(x_1) has two
readouts, both real by construction:

    ancilla-based   Re <0|Q|0>          = a
    ancilla-free    <0|Q^dag P Q|0>     = sin(theta) 2(bd + ac)
                                          + cos(theta) (a^2 - b^2 - c^2 + d^2)

The theta-derivative is carried as a pair (q, dq) with dq = dq/dtheta, which
multiplies by the product rule (p, dp)(q, dq) = (p q, dp q + p dq); only the
U factors depend on theta, dU/dtheta = (0, sin x cos theta, 0, -sin x sin theta).

Components are Python floats or numpy arrays.  The arithmetic is the same for
both and broadcasts, so one code path serves a single theta (pure-Python
floats, selected by input shape in ``trig``), a vector of thetas, and a
matrix of angle vectors against a grid of thetas (``bias.bias_series`` of a
lookup table's entries).  The estimation round does not call the kernel: it
reads the bias from those series.
"""

from __future__ import annotations

import math

import numpy as np

ONE = (1.0, 0.0, 0.0, 0.0)
ZERO = (0.0, 0.0, 0.0, 0.0)

# An estimand angle closer than this to a multiple of pi collapses the
# subspace to one dimension (the estimand would be +-1), so it is rejected
# where the estimand enters (``tuner.TuneSpec``).  The kernel itself is
# smooth there and evaluates any finite theta.
DEGENERATE_TOL = 1e-12


class DegenerateSubspaceError(ValueError):
    """The estimand angle is (numerically) 0 or pi, so span{|A>, P|A>} is 1-D."""


def angle_vectors(values) -> np.ndarray:
    """Validate angle vectors of even length 2L >= 2 along the last axis."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    n = x.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError(f"angle vector must have even length 2L >= 2, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("angles must be finite")
    return x


def canonical_angles(values) -> np.ndarray:
    """Validate angle vectors (see ``angle_vectors``) and map each angle into (-pi, pi]."""
    return np.pi - np.remainder(np.pi - angle_vectors(values), 2.0 * np.pi)


def kernel_inputs(theta, x):
    """(theta, x) validated for ``trig``: a finite theta, and angle vectors as ``angle_vectors`` gives them."""
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return theta, angle_vectors(x)


def trig(theta, x):
    """(cos theta, sin theta, cos x_j, sin x_j): the kernel's inputs, indexed by j.

    ``x`` is a float array of angle vectors along its last axis; its leading
    axes broadcast against ``theta``.  The inputs are trusted: the package's
    entry points validate them once (``kernel_inputs``, ``canonical_angles``).
    A scalar theta (a float, int, numpy scalar or 0-d array, not a list) with
    one angle vector yields Python floats, whose arithmetic is several times
    faster than numpy's on scalars.
    """
    if (isinstance(theta, float) or np.ndim(theta) == 0) and x.ndim == 1:
        t = float(theta)
        return math.cos(t), math.sin(t), np.cos(x).tolist(), np.sin(x).tolist()
    t = np.asarray(theta, dtype=float)
    # Angle index first, rows contiguous: the factor loop then reads whole rows.
    xt = np.moveaxis(x, -1, 0)
    return np.cos(t), np.sin(t), list(np.cos(xt, order="C")), list(np.sin(xt, order="C"))


def circuit(ct, st, cx, sx):
    """Q(theta; x) from the output of ``trig``.

    Each step is the product U q or V q with the factors' zero components
    folded out; the chain starts from the first V U product rather than
    from ``ONE``.
    """
    cu, pb, pd = cx[0], sx[0] * st, sx[0] * ct
    cv, sv = cx[1], sx[1]
    a, b, c, d = cv * cu - sv * pd, cv * pb, sv * pb, cv * pd + sv * cu
    for j in range(2, len(cx), 2):
        cu, pb, pd = cx[j], sx[j] * st, sx[j] * ct
        a, b, c, d = (
            cu * a - pb * b - pd * d,
            cu * b + pb * a - pd * c,
            cu * c + pd * b - pb * d,
            cu * d + pd * a + pb * c,
        )
        cv, sv = cx[j + 1], sx[j + 1]
        a, b, c, d = cv * a - sv * d, cv * b - sv * c, cv * c + sv * b, cv * d + sv * a
    return a, b, c, d


def _factor_mul(ct, st, cx, sx, u, pair):
    """(F q, F dq + dF q) of the pair (q, dq), for F = U (if ``u``) or V at cos x = cx, sin x = sx.

    The factor's zero components are folded out.  At (cx, sx) = (0, 1) this
    is the product by the generator pair (G, dG); at -sx it is the product by
    (conj F, conj dF), the transpose of F's.
    """
    (a, b, c, d), (da, db, dc, dd) = pair
    if not u:
        return (
            (cx * a - sx * d, cx * b - sx * c, cx * c + sx * b, cx * d + sx * a),
            (cx * da - sx * dd, cx * db - sx * dc, cx * dc + sx * db, cx * dd + sx * da),
        )
    pb, pd = sx * st, sx * ct
    # d(U q) = U dq + dU q with dU = (0, pd, 0, -pb).
    return (
        (cx * a - pb * b - pd * d, cx * b + pb * a - pd * c, cx * c + pd * b - pb * d, cx * d + pd * a + pb * c),
        (
            cx * da - pb * db - pd * dd - pd * b + pb * d,
            cx * db + pb * da - pd * dc + pd * a + pb * c,
            cx * dc + pd * db - pb * dd - pb * b - pd * d,
            cx * dd + pd * da + pb * dc - pb * a + pd * c,
        ),
    )


def circuit_prefixes(ct, st, cx, sx):
    """The pairs of the prefixes F_j ... F_1, j = 1..2L, by the product rule; the last is (Q, dQ/dtheta).

    The first, (U_1, dU_1/dtheta), is U_1 (ONE, ZERO) with the ones and zeros folded out, in its broadcast shape.
    """
    pb, pd = sx[0] * st, sx[0] * ct
    zero = 0.0 * pb
    pre = [((cx[0] + zero, pb, zero, pd), (zero, pd, zero, -pb))]
    for j in range(1, len(cx)):
        pre.append(_factor_mul(ct, st, cx[j], sx[j], j % 2 == 0, pre[-1]))
    return pre


def af_readout(q, ct, st):
    """<0| Q^dag P(theta) Q |0> of a quaternion Q."""
    a, b, c, d = q
    return st * 2.0 * (b * d + a * c) + ct * (a * a - b * b - c * c + d * d)


def af_readout_derivative(q, dq, ct, st):
    """d/dtheta of ``af_readout``, from the pair (Q, dQ/dtheta)."""
    a, b, c, d = q
    da, db, dc, dd = dq
    x = 2.0 * (b * d + a * c)
    z = a * a - b * b - c * c + d * d
    dx = 2.0 * (db * d + b * dd + da * c + a * dc)
    dz = 2.0 * (a * da - b * db - c * dc + d * dd)
    return ct * x - st * z + st * dx + ct * dz
