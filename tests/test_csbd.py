import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csbd_reconstruction import bias_at, bias_derivative_at, bias_derivative_slope_in_xj, bias_slope_in_xj
from elfkit.bias import Scheme, bias, bias_derivative, clf_angles
from elfkit.csbd import CoefficientTable, sweep

THETAS = st.floats(min_value=0.05, max_value=np.pi - 0.05)


class TestReconstruction:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([Scheme.AF, Scheme.AB]),
        THETAS,
        st.integers(min_value=1, max_value=4),
        st.integers(),
    )
    def test_bias_and_derivative(self, scheme, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        table = CoefficientTable(scheme, theta, x)
        for j in range(1, 2 * layers + 1):
            co = table.coefficients(j)
            for z in (0.0, 0.9, -1.3):
                probe = x.copy()
                probe[j - 1] = z
                assert bias_at(co, scheme.angle_scale, z) == pytest.approx(bias(scheme, theta, probe), abs=1e-10)
                assert bias_derivative_at(co, scheme.angle_scale, z) == pytest.approx(
                    bias_derivative(scheme, theta, probe), abs=1e-8
                )

    def test_ab_schemes_have_no_constant_term(self):
        co = CoefficientTable(Scheme.AB, 1.1, [0.4, -0.8, 1.7, 0.2]).coefficients(3)
        assert co.b == 0.0 and co.b_prime == 0.0

    def test_ab_zero_angles_slice(self):
        x = np.zeros(4)
        for j in range(1, 5):
            co = CoefficientTable(Scheme.AB, 0.8, x).coefficients(j)
            assert bias_at(co, Scheme.AB.angle_scale, 0.0) == pytest.approx(bias(Scheme.AB, 0.8, x))

    def test_clf_first_coordinate_slice(self):
        # With every other angle at pi/2, the free-coordinate slice through
        # pi/2 must hit the Chebyshev value.
        layers, theta = 3, 0.6
        co = CoefficientTable(Scheme.AF, theta, clf_angles(layers)).coefficients(1)
        m = 2 * layers + 1
        assert bias_at(co, Scheme.AF.angle_scale, np.pi / 2) == pytest.approx(np.cos(m * theta), abs=1e-12)

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


class TestGradientConsistency:
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([Scheme.AF, Scheme.AB]),
        THETAS,
        st.integers(min_value=1, max_value=4),
        st.integers(),
    )
    def test_bias_slope_in_xj_matches_fd(self, scheme, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        table = CoefficientTable(scheme, theta, x)
        h = 1e-6
        for j in range(1, 2 * layers + 1):
            up, down = x.copy(), x.copy()
            up[j - 1] += h
            down[j - 1] -= h
            fd = (bias(scheme, theta, up) - bias(scheme, theta, down)) / (2 * h)
            slope = bias_slope_in_xj(table.coefficients(j), scheme.angle_scale, x[j - 1])
            assert slope == pytest.approx(fd, abs=1e-6)

    def test_derivative_slope_in_xj_matches_fd(self):
        rng = np.random.default_rng(4)
        theta = 0.9
        x = rng.uniform(-np.pi, np.pi, 6)
        table = CoefficientTable(Scheme.AF, theta, x)
        h = 1e-6
        for j in range(1, 7):
            up, down = x.copy(), x.copy()
            up[j - 1] += h
            down[j - 1] -= h
            fd = (
                bias_derivative(Scheme.AF, theta, up) - bias_derivative(Scheme.AF, theta, down)
            ) / (2 * h)
            slope = bias_derivative_slope_in_xj(table.coefficients(j), Scheme.AF.angle_scale, x[j - 1])
            assert slope == pytest.approx(fd, abs=1e-5)


class TestPrimedAgainstFiniteDifference:
    def test_primed_coefficients_are_theta_derivatives(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-np.pi, np.pi, 8)
        theta, h = 1.2, 1e-6
        for scheme in (Scheme.AF, Scheme.AB):
            for j in (1, 4, 8):
                up = CoefficientTable(scheme, theta + h, x).coefficients(j)
                down = CoefficientTable(scheme, theta - h, x).coefficients(j)
                ref = CoefficientTable(scheme, theta, x).coefficients(j)
                assert ref.c_prime == pytest.approx((up.c - down.c) / (2 * h), abs=1e-6)
                assert ref.s_prime == pytest.approx((up.s - down.s) / (2 * h), abs=1e-6)
                assert ref.b_prime == pytest.approx((up.b - down.b) / (2 * h), abs=1e-6)


class TestSweep:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3, 8, 16])
    def test_matches_fresh_table_on_updated_vector(self, scheme, layers):
        # Each coordinate's coefficients must be those of a table built
        # afresh on the partly updated vector.  That table is itself a
        # recorded sweep, so the coefficients must also rebuild the kernel's
        # bias and its theta-derivative at three values of the free angle, as
        # in TestReconstruction, on the partly updated vector.
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
