"""The one reference for the kernel, the CSBD coefficients and the tuner's value and gradient.

Each is checked against the complex 2x2 product oracle in ``complex_oracle``:
both schemes, L in {1, 2, 3, 8, 16, 64}, random angles and thetas within 1e-9
of 0 and pi.  The bias agrees to 1e-14 absolute (rounding leaves about 2e-15),
theta-derivatives to 1e-12 (2L + 1), whose bound grows with the derivative's
own scale, and the circuit stays a unit quaternion to 1e-12.  The theta-series
the estimation round reads the bias from is checked the same way.  The CSBD
coefficients are checked against the oracle's discrete Fourier transform, and
the tuner's value and gradient, at fidelities 0.5, 0.7 and 0.9, against the
chain rule on x_j-slopes read off the oracle's CSBD rows.
"""

import numpy as np
import pytest

import complex_oracle as oracle
from elfkit.algebra import circuit_pair, trig
from elfkit.bias import Scheme, _horner, bias, bias_derivative, bias_series, clf_angles
from elfkit.csbd import CoefficientTable
from elfkit.tuner import Objective, TuneSpec, _value_and_gradient

LAYERS = (1, 2, 3, 8, 16, 64)
EDGE_THETAS = np.array([1e-10, -7e-10, np.pi - 3e-10, np.pi + 9e-10])
TOL = 1e-12
VALUE_TOL = 1e-14


def thetas(rng, n=6):
    return np.concatenate([rng.uniform(0.0, np.pi, n), EDGE_THETAS])


@pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
@pytest.mark.parametrize("layers", LAYERS)
class TestAgainstComplexOracle:
    def test_bias_and_derivative(self, scheme, layers):
        rng = np.random.default_rng(layers)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        th = thetas(rng)
        ref, dref = oracle.bias(scheme is Scheme.AF, th, x)
        dtol = TOL * (2 * layers + 1)
        assert np.max(np.abs(bias(scheme, th, x) - ref)) <= VALUE_TOL
        assert np.max(np.abs(bias_derivative(scheme, th, x) - dref)) <= dtol
        for t, r, dr in zip(th, ref, dref):
            assert abs(bias(scheme, float(t), x) - r) <= VALUE_TOL
            assert abs(bias_derivative(scheme, float(t), x) - dr) <= dtol
        a, b, c, d = circuit_pair(*trig(th, x))[0]
        assert np.max(np.abs(a * a + b * b + c * c + d * d - 1.0)) <= TOL

    def test_bias_series(self, scheme, layers):
        # The round's Horner rule in e^{i theta} over the series, and the
        # Chebyshev closed forms c_{2L+1} = 1 (AF) and c_L = (-1)^L (AB).
        # The other coefficients are rounding residue, which grows with the
        # kernel's own error (about 7e-15 at L = 64).
        rng = np.random.default_rng(400 + layers)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        th = thetas(rng)
        ref, _ = oracle.bias(scheme is Scheme.AF, th, x)
        assert np.max(np.abs(_horner(bias_series(scheme, x), np.exp(1j * th)) - ref)) <= TOL
        degree, top = (2 * layers + 1, 1.0) if scheme is Scheme.AF else (layers, (-1.0) ** layers)
        expected = np.zeros(degree + 1)
        expected[degree] = top
        assert np.max(np.abs(bias_series(scheme, clf_angles(layers)) - expected)) <= 1e-15 * (2 * layers + 1)

    def test_engine_batched_call(self, scheme, layers):
        # A batched call: per-run angle vectors against per-run thetas.  The batched circuit is, to
        # rounding, the scalar-theta circuit of each run's angles at each of its thetas.
        rng = np.random.default_rng(100 + layers)
        runs = 5
        xmat = rng.uniform(-np.pi, np.pi, (runs, 2 * layers))
        grid = np.stack([thetas(rng, 8) for _ in range(runs)])
        values = bias(scheme, grid, xmat[:, None, :])
        assert values.shape == grid.shape
        q = np.stack(circuit_pair(*trig(grid, xmat[:, None, :]))[0])
        assert q.shape == (4, *grid.shape)
        for r in range(runs):
            ref, _ = oracle.bias(scheme is Scheme.AF, grid[r], xmat[r])
            assert np.max(np.abs(values[r] - ref)) <= TOL
            for t, column in zip(grid[r], q[:, r].T):
                assert np.max(np.abs(column - circuit_pair(*trig(float(t), xmat[r]))[0])) <= TOL

    def test_csbd_coefficients(self, scheme, layers):
        rng = np.random.default_rng(200 + layers)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        dtol = TOL * (2 * layers + 1)
        for theta in thetas(rng, 2):
            table = CoefficientTable(scheme, theta, x)
            ref = oracle.csbd(scheme is Scheme.AF, theta, x)
            for j in range(1, 2 * layers + 1):
                co = table.coefficients(j)
                assert np.max(np.abs(np.array([co.c, co.s, co.b]) - ref[j - 1, :3])) <= TOL
                assert np.max(np.abs(np.array([co.c_prime, co.s_prime, co.b_prime]) - ref[j - 1, 3:])) <= dtol

    @pytest.mark.parametrize("fidelity", [0.5, 0.7, 0.9])
    def test_value_and_gradient(self, scheme, layers, fidelity):
        # The bias, d(bias)/dtheta and their x_j-slopes from the oracle's rows
        # (c, s, b, c', s', b'), then the climbed value and gradient by the
        # chain rule.  Thetas outside (0, pi) are not estimand angles.
        rng = np.random.default_rng(300 + layers)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        k = 2.0 if scheme is Scheme.AF else 1.0
        for theta in thetas(rng, 2):
            if not 0.0 < theta < np.pi:
                continue
            rows = oracle.csbd(scheme is Scheme.AF, theta, x)
            cos, sin = np.cos(k * x), np.sin(k * x)
            delta = rows[0, 0] * cos[0] + rows[0, 1] * sin[0] + rows[0, 2]
            ddelta = rows[0, 3] * cos[0] + rows[0, 4] * sin[0] + rows[0, 5]
            chi = k * (rows[:, 1] * cos - rows[:, 0] * sin)
            chi_p = k * (rows[:, 4] * cos - rows[:, 3] * sin)
            for objective in Objective:
                spec = TuneSpec(scheme, layers, float(theta), fidelity, objective)
                value, grad = _value_and_gradient(spec, x)
                if objective is Objective.SLOPE:
                    ref, ref_grad = ddelta**2, 2.0 * ddelta * chi_p
                else:
                    f2 = fidelity**2
                    den = 1.0 - f2 * delta**2
                    ref = f2 * ddelta**2 / den
                    ref_grad = 2.0 * f2 * ddelta * (den * chi_p + f2 * delta * ddelta * chi) / den**2
                scale = max(1.0, abs(ref))
                assert abs(value - ref) <= TOL * scale
                assert np.max(np.abs(grad - ref_grad)) <= TOL * scale * (2 * layers + 1)
