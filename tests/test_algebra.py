import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complex_oracle import PAULI_X, PAULI_Z, observable, to_matrix
from elfkit.algebra import (
    ONE,
    ZERO,
    DegenerateSubspaceError,
    _factor_mul,
    canonical_angles,
    circuit,
    circuit_prefixes,
    kernel_inputs,
    trig,
)
from elfkit.bias import Scheme, bias, bias_derivative, clf_angles
from elfkit.csbd import CoefficientTable
from elfkit.tuner import TuneSpec

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
THETAS = st.floats(min_value=0.05, max_value=np.pi - 0.05)


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


def u(theta, x):
    return u_factor(math.cos(theta), math.sin(theta), math.cos(x), math.sin(x))


def v(x):
    return math.cos(x), 0.0, 0.0, math.sin(x)


def generator(theta):
    """The U factor at x = pi/2, i.e. -i P(theta)."""
    return u(theta, np.pi / 2)


def q_of(theta, x):
    return circuit(*trig(*kernel_inputs(theta, x)))


def pair_of(theta, x):
    return circuit_prefixes(*trig(*kernel_inputs(theta, x)))[-1]



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
        with pytest.raises(ValueError):
            canonical_angles([0.1, 0.2, 0.3])

    def test_rejects_empty_and_scalar(self):
        with pytest.raises(ValueError):
            canonical_angles([0.1])

    @given(st.lists(ANGLES, min_size=2, max_size=12).filter(lambda v: len(v) % 2 == 0))
    def test_range_and_idempotence(self, values):
        x = canonical_angles(values)
        assert np.all(x > -np.pi) and np.all(x <= np.pi)
        assert np.allclose(canonical_angles(x), x)

    def test_wraps_preserving_value(self):
        x = canonical_angles([3 * np.pi / 2, -np.pi])
        assert x[0] == pytest.approx(-np.pi / 2)
        assert x[1] == pytest.approx(np.pi)


class TestObservable:
    """The generator of the U factors: i times it is the observable P(theta)."""

    def test_symmetry_point_is_x(self):
        assert np.allclose(1j * to_matrix(generator(np.pi / 2)), PAULI_X)

    @given(THETAS)
    def test_trace_and_determinant(self, theta):
        p = 1j * to_matrix(generator(theta))
        assert np.trace(p) == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.det(p).real == pytest.approx(-1.0, abs=1e-12)

    def test_direct_evaluation(self):
        p = 1j * to_matrix(generator(1.0))
        expected = np.cos(1.0) * PAULI_Z + np.sin(1.0) * PAULI_X
        assert np.allclose(p, expected)
        assert np.allclose(p, observable(1.0))

    @pytest.mark.parametrize("theta", [0.0, np.pi, -np.pi, 2 * np.pi])
    def test_degenerate_rejected(self, theta):
        # The estimand is rejected where it enters; the kernel stays smooth.
        near = 1e-13 if round(theta / np.pi) % 2 == 0 else np.pi - 1e-13
        with pytest.raises(DegenerateSubspaceError, match="mu"):
            TuneSpec(Scheme.AF, 2, near)
        with pytest.raises(ValueError):
            TuneSpec(Scheme.AF, 2, theta)
        for t in (theta, near):
            assert bias(Scheme.AF, t, clf_angles(2)) == pytest.approx(np.cos(5 * t), abs=1e-12)
            assert bias_derivative(Scheme.AF, t, clf_angles(2)) == pytest.approx(-5 * np.sin(5 * t), abs=1e-11)


class TestReflections:
    def test_u_identity_at_zero(self):
        assert np.allclose(u(0.7, 0.0), ONE)

    def test_u_quarter_turn(self):
        assert np.allclose(to_matrix(u(np.pi / 2, np.pi / 2)), -1j * PAULI_X)

    def test_u_inverse_pair(self):
        assert np.allclose(qmul(u(0.7, 0.3), u(0.7, -0.3)), ONE, atol=1e-14)

    def test_v_identity_and_quarter(self):
        assert np.allclose(v(0.0), ONE)
        assert np.allclose(to_matrix(v(np.pi / 2)), -1j * PAULI_Z)

    def test_v_additive(self):
        assert np.allclose(qmul(v(0.2), v(0.5)), v(0.7))


class TestCircuit:
    def test_all_zero_angles_is_identity(self):
        assert np.allclose(q_of(1.1, np.zeros(6)), ONE)

    def test_single_layer_product(self):
        theta = 0.9
        q = q_of(theta, [np.pi / 2, np.pi / 2])
        assert np.allclose(q, qmul(v(np.pi / 2), u(theta, np.pi / 2)))
        expected = (-1j * PAULI_Z) @ (-1j * observable(theta))
        assert np.allclose(to_matrix(q), expected)

    @settings(max_examples=30, deadline=None)
    @given(THETAS, st.integers(min_value=1, max_value=6), st.integers())
    def test_unitarity(self, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        a, b, c, d = q_of(theta, random_angles(rng, layers))
        assert abs(a * a + b * b + c * c + d * d - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(THETAS, st.integers(min_value=1, max_value=6), st.integers())
    def test_factor_determinants_unimodular(self, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        for xj in random_angles(rng, layers):
            for factor in (u(theta, xj), v(xj)):
                assert abs(np.linalg.det(to_matrix(factor))) == pytest.approx(1.0, abs=1e-12)

    def test_theta_broadcasting(self):
        thetas = np.linspace(0.2, 3.0, 7)
        x = [0.3, -0.4, 1.2, 0.9]
        batch = np.stack(q_of(thetas, x))
        assert batch.shape == (4, 7)
        for i, th in enumerate(thetas):
            assert np.allclose(batch[:, i], q_of(th, x))
        # Per-run angle vectors along the last axis broadcast against theta.
        rng = np.random.default_rng(8)
        xmat = rng.uniform(-np.pi, np.pi, (3, 4))
        grid = rng.uniform(0.1, 3.0, (3, 5))
        for scheme in (Scheme.AF, Scheme.AB):
            values = bias(scheme, grid, xmat[:, None, :])
            assert values.shape == (3, 5)
            for r in range(3):
                assert np.allclose(values[r], bias(scheme, grid[r], xmat[r]), atol=1e-15)

    def test_rejects_odd_length(self):
        for call in (bias, bias_derivative, CoefficientTable):
            with pytest.raises(ValueError):
                call(Scheme.AF, 1.0, [0.1, 0.2, 0.3])


class TestCircuitDerivative:
    def test_zero_angles_zero_derivative(self):
        q, dq = pair_of(1.0, np.zeros(4))
        assert np.allclose(q, ONE) and np.allclose(dq, ZERO)

    @settings(max_examples=25, deadline=None)
    @given(THETAS, st.integers(min_value=1, max_value=6), st.integers())
    def test_matches_finite_difference(self, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        x = random_angles(rng, layers)
        h = 1e-6
        fd = (np.array(q_of(theta + h, x)) - np.array(q_of(theta - h, x))) / (2 * h)
        q, dq = pair_of(theta, x)
        assert q == q_of(theta, x)
        assert np.max(np.abs(np.array(dq) - fd)) < 1e-6


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
    """The kernel starts from the first V U product; 1 x = x and x - 0 = x keep every bit."""

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
        for ct, st, cx, sx in self.inputs(layers):
            q = ONE
            for j in range(0, 2 * layers, 2):
                q = qmul((cx[j + 1], 0.0, 0.0, sx[j + 1]), qmul(u_factor(ct, st, cx[j], sx[j]), q))
            assert self.same(circuit(ct, st, cx, sx), q)

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
