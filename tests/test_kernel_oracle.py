"""The quaternion kernel against the complex 2x2 product oracle in ``complex_oracle``.

Both schemes, L in {1, 2, 3, 8, 16, 64}, random angles and thetas within 1e-9
of 0 and pi.  Values agree to 1e-12 absolute, theta-derivatives to
1e-12 (2L + 1), whose bound grows with the derivative's own scale.
"""

import numpy as np
import pytest

import complex_oracle as oracle
from elfkit.algebra import circuit, trig
from elfkit.bias import Scheme, bias, bias_derivative
from elfkit.csbd import CoefficientTable

LAYERS = (1, 2, 3, 8, 16, 64)
EDGE_THETAS = np.array([1e-10, -7e-10, np.pi - 3e-10, np.pi + 9e-10])
TOL = 1e-12


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
        assert np.max(np.abs(bias(scheme, th, x) - ref)) <= TOL
        assert np.max(np.abs(bias_derivative(scheme, th, x) - dref)) <= dtol
        for t, r, dr in zip(th, ref, dref):
            assert abs(bias(scheme, float(t), x) - r) <= TOL
            assert abs(bias_derivative(scheme, float(t), x) - dr) <= dtol
        a, b, c, d = circuit(*trig(th, x))
        assert np.max(np.abs(a * a + b * b + c * c + d * d - 1.0)) <= TOL

    def test_engine_batched_call(self, scheme, layers):
        # The lockstep engine's call: per-run angle vectors against per-run thetas.
        rng = np.random.default_rng(100 + layers)
        runs = 5
        xmat = rng.uniform(-np.pi, np.pi, (runs, 2 * layers))
        grid = np.stack([thetas(rng, 8) for _ in range(runs)])
        values = bias(scheme, grid, xmat[:, None, :])
        assert values.shape == grid.shape
        for r in range(runs):
            ref, _ = oracle.bias(scheme is Scheme.AF, grid[r], xmat[r])
            assert np.max(np.abs(values[r] - ref)) <= TOL

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
