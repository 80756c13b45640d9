import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elfkit.algebra import (
    ONE,
    ZERO,
    _factor_mul,
    af_covector,
    af_parts,
    canonical_angles,
    circuit_pair,
    circuit_prefixes,
    kernel_inputs,
    trig,
)
from elfkit.bias import Scheme, _readout, bias

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_angles(rng, layers):
    return rng.uniform(-np.pi, np.pi, 2 * layers)


def qmul(p, q):
    """Quaternion product p q in operator order (q acts first), with no component folded out."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 + c1 * a2 + d1 * b2 - b1 * d2,
        a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
    )


def u_factor(ct, st, cx, sx):
    """U(theta, x) = (cos x, sin x sin theta, 0, sin x cos theta) from cos/sin values."""
    return cx, sx * st, 0.0, sx * ct


def q_of(theta, x):
    return circuit_pair(*trig(*kernel_inputs(theta, x)))[0]


class TestScalarDispatch:
    """A scalar theta with one angle vector takes ``trig``'s Python-float path, bit for bit its (1,)-array path."""

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("theta", [1.1, 2, np.float64(1.1), np.array(1.1)], ids=["float", "int", "float64", "0-d"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_scalar_theta_gives_python_floats(self, theta, layers):
        x = random_angles(np.random.default_rng(layers), layers)
        ct, st, cx, sx = trig(theta, x)
        assert all(type(v) is float for v in (ct, st, *cx, *sx))
        act, ast, acx, asx = trig(np.array([float(theta)]), x)
        assert self.bits([ct, st, *cx, *sx]) == self.bits([act[0], ast[0], *acx, *asx])
        for scheme in Scheme:
            value = bias(scheme, theta, x)
            assert type(value) is float
            assert self.bits([value]) == self.bits(bias(scheme, np.array([float(theta)]), x))

    def test_list_theta_takes_the_array_path(self):
        x = random_angles(np.random.default_rng(0), 2)
        ct, st, cx, sx = trig([1.1], x)
        assert isinstance(ct, np.ndarray) and ct.shape == (1,)
        assert self.bits([ct[0], st[0]]) == self.bits([math.cos(1.1), math.sin(1.1)])
        assert isinstance(bias(Scheme.AF, [1.1, 2.0], x), np.ndarray)


class TestCanonicalAngles:
    def test_rejects_odd_length(self):
        with pytest.raises(ValueError, match=r"^angle vector must have even length 2L >= 2, got 3$"):
            canonical_angles([0.1, 0.2, 0.3])

    @pytest.mark.parametrize(("values", "length"), [([], 0), ([0.1], 1), (0.1, 1)], ids=["empty", "one", "scalar"])
    def test_rejects_empty_and_scalar(self, values, length):
        with pytest.raises(ValueError, match=rf"^angle vector must have even length 2L >= 2, got {length}$"):
            canonical_angles(values)

    @given(st.lists(ANGLES, min_size=2, max_size=12).filter(lambda v: len(v) % 2 == 0))
    def test_range_and_idempotence(self, values):
        x = canonical_angles(values)
        assert np.all(x > -np.pi) and np.all(x <= np.pi)
        assert np.allclose(canonical_angles(x), x)

    def test_values_near_odd_multiples_of_pi_are_fixed_points(self):
        # Odd multiples of pi and values a few ulps either side: remainder rounds a tiny
        # negative argument up to 2 pi, which must give pi, not -pi.
        values = []
        for centre in np.pi * np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]):
            values.append(centre)
            for direction in (-np.inf, np.inf):
                v = centre
                for _ in range(4):
                    values.append(v := np.nextafter(v, direction))
        x = canonical_angles(np.column_stack([values, np.ones(len(values))]))
        assert np.all(x[:, 0] > -np.pi) and np.all(x[:, 0] <= np.pi)
        assert np.array_equal(canonical_angles(x), x)
        assert canonical_angles([math.nextafter(math.pi, 4.0), 1.0]).tolist() == [math.pi, 1.0]

    def test_wraps_preserving_value(self):
        x = canonical_angles([3 * np.pi / 2, -np.pi])
        assert x[0] == pytest.approx(-np.pi / 2)
        assert x[1] == pytest.approx(np.pi)


class TestCircuit:
    def test_all_zero_angles_is_identity(self):
        assert np.allclose(q_of(1.1, np.zeros(6)), ONE)


def unpeeled_pair(ct, st, cx, sx):
    """The product-rule chain of ``circuit_prefixes`` with full quaternion products."""
    (a, b, c, d), (da, db, dc, dd) = ONE, ZERO
    for j in range(0, len(cx), 2):
        cu, pb, pd = cx[j], sx[j] * st, sx[j] * ct
        da, db, dc, dd = (
            cu * da - pb * db - pd * dd - pd * b + pb * d,
            cu * db + pb * da - pd * dc + pd * a + pb * c,
            cu * dc + pd * db - pb * dd - pb * b - pd * d,
            cu * dd + pd * da + pb * dc - pb * a + pd * c,
        )
        a, b, c, d = qmul((cu, pb, 0.0, pd), (a, b, c, d))
        cv, sv = cx[j + 1], sx[j + 1]
        a, b, c, d = qmul((cv, 0.0, 0.0, sv), (a, b, c, d))
        da, db, dc, dd = qmul((cv, 0.0, 0.0, sv), (da, db, dc, dd))
    return (a, b, c, d), (da, db, dc, dd)


class TestPeeledKernel:
    """The kernel starts from the peeled first U pair; 1 x = x and x - 0 = x keep every bit but a zero's sign."""

    @staticmethod
    def inputs(layers):
        rng = np.random.default_rng(layers)
        x = rng.uniform(-np.pi, np.pi, (3, 2 * layers))
        yield trig(0.7, x[0])  # Python floats
        yield trig(rng.uniform(0.1, 3.0, (4, 3)), x)  # per-run angle rows

    @staticmethod
    def same(p, q):
        return all(np.array_equal(u, v) for u, v in zip(p, q))

    @pytest.mark.parametrize("layers", [1, 2, 3, 8])
    def test_circuit_equals_qmul_chain(self, layers):
        # The running chain is the last prefix, and its value half the plain quaternion chain.
        for ct, st, cx, sx in self.inputs(layers):
            q = ONE
            for j in range(0, 2 * layers, 2):
                q = qmul((cx[j + 1], 0.0, 0.0, sx[j + 1]), qmul(u_factor(ct, st, cx[j], sx[j]), q))
            pair = circuit_pair(ct, st, cx, sx)
            last = circuit_prefixes(ct, st, cx, sx)[-1]
            assert self.same(pair[0] + pair[1], last[0] + last[1])
            assert self.same(pair[0], q)

    @pytest.mark.parametrize("layers", [1, 2, 3, 8])
    def test_circuit_pair_equals_chains(self, layers):
        for ct, st, cx, sx in self.inputs(layers):
            prefixes = circuit_prefixes(ct, st, cx, sx)
            q, dq = prefixes[-1]
            ref_q, ref_dq = unpeeled_pair(ct, st, cx, sx)
            assert self.same(q, ref_q) and self.same(dq, ref_dq)
            # Each prefix is the one before times its factor, from (ONE, ZERO).
            pair = (ONE, ZERO)
            for j in range(2 * layers):
                pair = _factor_mul(ct, st, cx[j], sx[j], j % 2 == 0, pair)
                assert self.same(prefixes[j][0] + prefixes[j][1], pair[0] + pair[1])
            # The product at -x is the conjugate, the transpose of the product
            # at x, so the backward chain undoes the forward one.
            for j in range(2 * layers - 1, -1, -1):
                pair = _factor_mul(ct, st, cx[j], -sx[j], j % 2 == 0, pair)
            for got, want in zip(pair[0] + pair[1], ONE + ZERO):
                assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def af_bias(q, ct, st):
    """sin(theta) <X> + cos(theta) <Z> of a quaternion written out, for any component type (complex too)."""
    a, b, c, d = q
    return st * 2.0 * (b * d + a * c) + ct * (a * a - b * b - c * c + d * d)


class TestAfForm:
    """The AF readout as one quadratic form: ``af_parts`` gives its value and ``af_covector`` its linear form."""

    DRAWS = 50

    @classmethod
    def draws(cls):
        """(q, w, theta) as 50 float triples, then as one triple of arrays of 50."""
        rng = np.random.default_rng(32)
        q, w, theta = rng.normal(size=(4, cls.DRAWS)), rng.normal(size=(4, cls.DRAWS)), rng.uniform(-4, 4, cls.DRAWS)
        for i in range(cls.DRAWS):
            yield tuple(q[:, i].tolist()), tuple(w[:, i].tolist()), float(theta[i])
        yield tuple(q), tuple(w), theta

    @staticmethod
    def trig(theta):
        return (math.cos(theta), math.sin(theta)) if isinstance(theta, float) else (np.cos(theta), np.sin(theta))

    def test_parts_give_the_readout(self):
        for q, _, theta in self.draws():
            ct, st = self.trig(theta)
            px, pz = af_parts(q)
            assert np.array_equal(st * px + ct * pz, af_bias(q, ct, st))

    def test_covector_is_the_polarization_of_the_readout(self):
        for q, w, theta in self.draws():
            ct, st = self.trig(theta)
            plus = af_bias(tuple(a + b for a, b in zip(q, w)), ct, st)
            minus = af_bias(tuple(a - b for a, b in zip(q, w)), ct, st)
            e = af_covector(q, ct, st)
            scale = (np.sqrt(sum(a * a for a in q)) + np.sqrt(sum(b * b for b in w))) ** 2
            assert np.all(np.abs(sum(a * b for a, b in zip(e, w)) - (plus - minus) / 2.0) <= 1e-13 * scale)

    @staticmethod
    def complex_step(q, dq, theta, h=1e-30):
        """Im r(q + i h dQ; cos(theta + i h), sin(theta + i h)) / h: d/dt of the readout along (q + t dQ, theta + t)."""
        z = complex(theta, h)
        return af_bias(tuple(complex(a, h * b) for a, b in zip(q, dq)), cmath.cos(z), cmath.sin(z)).imag / h

    def test_readout_derivative_is_the_complex_step(self):
        for q, dq, theta in self.draws():
            ct, st = self.trig(theta)
            value, slope = _readout(Scheme.AF, ct, st, q, dq)
            assert np.array_equal(value, af_bias(q, ct, st))
            if isinstance(theta, float):
                want = self.complex_step(q, dq, theta)
            else:
                want = np.array([self.complex_step(*draw) for draw in zip(zip(*q), zip(*dq), theta)])
            assert np.all(np.abs(slope - want) <= 1e-13 * np.abs(want))
            ab = _readout(Scheme.AB, ct, st, q, dq)
            assert len(ab) == 2 and ab[0] is q[0] and ab[1] is dq[0]
