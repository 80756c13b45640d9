import numpy as np
import pytest

from csbd_reconstruction import bias_at, bias_derivative_at
from elfkit.bias import Scheme, bias, bias_derivative
from elfkit.csbd import CoefficientTable, sweep


class TestReconstruction:
    def test_ab_schemes_have_no_constant_term(self):
        co = CoefficientTable(Scheme.AB, 1.1, [0.4, -0.8, 1.7, 0.2]).coefficients(3)
        assert co.b == 0.0 and co.b_prime == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            CoefficientTable(Scheme.AF, 1.0, [0.1, 0.2]).coefficients(3)


class TestCoefficientIndependence:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_perturbing_xj_leaves_coefficients(self, scheme):
        rng = np.random.default_rng(9)
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = 1.4
        for j in range(1, 7):
            ref = CoefficientTable(scheme, theta, x).coefficients(j)
            probe = x.copy()
            probe[j - 1] += 0.8312
            alt = CoefficientTable(scheme, theta, probe).coefficients(j)
            for name in ("c", "s", "b", "c_prime", "s_prime", "b_prime"):
                assert getattr(alt, name) == pytest.approx(getattr(ref, name), abs=1e-12)


class TestSweep:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3, 8, 16])
    def test_matches_fresh_table_on_updated_vector(self, scheme, layers):
        # Each coordinate's coefficients must be those of a table built
        # afresh on the partly updated vector.  That table is itself a
        # recorded sweep, so the coefficients must also rebuild the kernel's
        # bias and its theta-derivative at three values of the free angle, on
        # the partly updated vector.  The values of the coefficients are
        # checked against the complex oracle in test_kernel_oracle.
        rng = np.random.default_rng(100 + layers)
        theta = rng.uniform(0.1, np.pi - 0.1)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        visited, written = [], []

        def choose(j, co):
            ref = CoefficientTable(scheme, theta, x).coefficients(j)
            for name in ("c", "s", "b", "c_prime", "s_prime", "b_prime"):
                assert getattr(co, name) == pytest.approx(getattr(ref, name), abs=1e-13)
            for z in (0.0, 0.9, -1.3):
                probe = x.copy()
                probe[j - 1] = z
                assert bias_at(co, scheme.angle_scale, z) == pytest.approx(bias(scheme, theta, probe), abs=1e-10)
                assert bias_derivative_at(co, scheme.angle_scale, z) == pytest.approx(
                    bias_derivative(scheme, theta, probe), abs=1e-8
                )
            visited.append(j)
            z = rng.uniform(-2 * np.pi, 2 * np.pi) if rng.random() < 0.7 else x[j - 1]
            written.append(z)
            return z

        for _ in range(3):
            start = len(written)
            sweep(scheme, theta, x, choose)
            assert np.array_equal(x, written[start:])
        assert visited == list(range(1, 2 * layers + 1)) * 3
