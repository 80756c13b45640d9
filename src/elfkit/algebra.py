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
    ancilla-free    <0|Q^dag P Q|0>     = sin(theta) <X> + cos(theta) <Z>

with <X> = 2(bd + ac) and <Z> = a^2 - b^2 - c^2 + d^2 (``af_parts``).

The theta-derivative is carried as a pair (q, dq) with dq = dq/dtheta, which
multiplies by the product rule (p, dp)(q, dq) = (p q, dp q + p dq); only the
U factors depend on theta, dU/dtheta = (0, sin x cos theta, 0, -sin x sin theta).
The AF readout is a quadratic form B_theta(Q, Q), so its derivative is
cos(theta) <X> - sin(theta) <Z> + e . dQ, with e = 2 B(Q, .) (``af_covector``).

Components are Python floats or numpy arrays.  The arithmetic is the same for
both and broadcasts, so one code path serves a single theta (pure-Python
floats, selected by input shape in ``trig``), a vector of thetas, and a
matrix of angle vectors against a grid of thetas (``bias.bias_series`` of a
lookup table's entries).  The estimation round does not call the kernel: it
reads the bias from those series.

The module also holds the input checks: ``angle_vectors``, ``check``
against ``DOMAINS`` for every numeric input, and ``check_type`` for every
typed one.
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

# The domain of each numeric input, keyed by the name of its field or
# argument (``objective_value``: a table entry's); the CLI's options take
# theirs from here.  eps_theta and spam keep the squares of
# ``runtime_model.runtime_bounds``, (lam / eps_theta^2)^2 too, positive finite floats.
_NAMES_BY_DOMAIN = {
    "[1, inf)": "layers restarts max_rounds runs horizon threads qubits depth",
    "[0, inf)": "seed master_seed objective_value",
    "(0, inf)": "gate_time variance",
    "(-inf, inf)": "mean theta",
    "(0, 1]": "layer_fidelity spam_fidelity",
    "[0, 1]": "fidelity lam",
    "(0, pi)": "mu",
    "(-1, 1)": "true_pi pi_star pi",
    "[-1, 1]": "prior_mean grid_point",
    "(0, 2]": "eps",  # an RMSE of Pi in [-1, 1]
    "[1e-75, 1e75]": "eps_theta",
    "[1e-150, 1]": "spam",
}
DOMAINS = {name: domain for domain, names in _NAMES_BY_DOMAIN.items() for name in names.split()}
INTEGERS = frozenset("layers restarts max_rounds runs horizon threads qubits depth seed master_seed".split())


def _bounds(domain: str) -> tuple:
    lo, hi = (math.pi if end == "pi" else float(end) for end in domain[1:-1].split(", "))
    return lo, hi, domain[0] == "[", domain[-1] == "]"


_BOUNDS = {domain: _bounds(domain) for domain in _NAMES_BY_DOMAIN}


def check(name: str, value, domain: str | None = None):
    """``value`` if it is one number in ``domain`` (default ``DOMAINS[name]``); else a ``ValueError`` naming ``name``.

    One number is an int, a float, or a numpy integer or float scalar or 0-d array; a name in ``INTEGERS``
    takes only an int or a numpy integer.  A domain not in the table (a CLI-only option's) is parsed at its first check.
    """
    if type(value) not in (float, int) and (getattr(value, "ndim", None) != 0 or value.dtype.kind not in "iuf"):
        raise ValueError(f"{name} must be one number, got {value!r}")
    domain = DOMAINS[name] if domain is None else domain
    if name in INTEGERS and not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    lo, hi, closed_lo, closed_hi = _BOUNDS.get(domain) or _BOUNDS.setdefault(domain, _bounds(domain))
    if not (lo < value < hi or (closed_lo and value == lo) or (closed_hi and value == hi)):
        raise ValueError(f"{name} must lie in {domain}, got {value}")
    return value


def check_type(name: str, value, kind: type):
    """``value`` if it is a ``kind``; else a ``ValueError`` naming ``name`` and ``kind`` (as tuner.LookupTable)."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__module__.rpartition('.')[2]}.{kind.__qualname__}, got {value!r}")
    return value


def check_fields(obj) -> None:
    """``check`` each attribute of ``obj`` that ``DOMAINS`` names, in field order."""
    for name, value in vars(obj).items():
        if name in DOMAINS:
            check(name, value)


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
    # ``remainder`` rounds a tiny negative argument up to 2 pi; ``fmod`` takes that to 0, so it gives pi, not -pi.
    return np.pi - np.fmod(np.remainder(np.pi - angle_vectors(values), 2.0 * np.pi), 2.0 * np.pi)


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


def af_parts(q):
    """(<X>, <Z>) = (2(bd + ac), a^2 - b^2 - c^2 + d^2) of Q|0>: the AF readout is sin(theta) <X> + cos(theta) <Z>."""
    a, b, c, d = q
    return 2.0 * (b * d + a * c), a * a - b * b - c * c + d * d


def af_covector(q, ct, st):
    """The 4-vector e of the linear form 2 B(q, .) of the AF readout's bilinear form B: 2 B(q, w) = e . w."""
    a, b, c, d = q
    return 2.0 * (st * c + ct * a), 2.0 * (st * d - ct * b), 2.0 * (st * a - ct * c), 2.0 * (st * b + ct * d)
