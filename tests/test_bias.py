import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elfkit.bias import Scheme, bias, bias_derivative, bias_series, clf_angles
from elfkit.tuner import Objective, TuneSpec, objective_value

THETAS = st.floats(min_value=0.05, max_value=np.pi - 0.05)
# A grid over (0, pi), and multiples of pi and points 1e-13 from them, where the estimand is refused
# (within 1e-12 of a multiple) but the kernel stays smooth.
GRID = np.append(np.linspace(0.01, np.pi - 0.01, 200), [0.0, 1e-13, np.pi - 1e-13, np.pi, -np.pi, 2 * np.pi])


class TestClosedForms:
    @pytest.mark.parametrize("layers", range(1, 9))
    def test_chebyshev_af(self, layers):
        values = bias(Scheme.AF, GRID, clf_angles(layers))
        assert np.max(np.abs(values - np.cos((2 * layers + 1) * GRID))) < 1e-10

    @pytest.mark.parametrize("layers", range(1, 9))
    def test_chebyshev_ab(self, layers):
        values = bias(Scheme.AB, GRID, clf_angles(layers))
        assert np.max(np.abs(values - (-1) ** layers * np.cos(layers * GRID))) < 1e-10

    def test_af_l1_zero_crossing(self):
        assert bias(Scheme.AF, np.pi / 6, clf_angles(1)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_angles(self):
        theta = 0.8
        assert bias(Scheme.AF, theta, np.zeros(6)) == pytest.approx(np.cos(theta))
        assert bias(Scheme.AB, theta, np.zeros(6)) == pytest.approx(1.0)


class TestBiasProperties:
    @settings(max_examples=40, deadline=None)
    @given(THETAS, st.integers(min_value=1, max_value=5), st.integers())
    def test_bounded(self, theta, layers, seed):
        rng = np.random.default_rng(seed % 2**32)
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        assert abs(bias(Scheme.AF, theta, x)) <= 1 + 1e-12
        assert abs(bias(Scheme.AB, theta, x)) <= 1 + 1e-12

    @pytest.mark.parametrize("scheme,period", [(Scheme.AF, np.pi), (Scheme.AB, 2 * np.pi)])
    def test_periodicity_in_each_angle(self, scheme, period):
        rng = np.random.default_rng(11)
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = 1.3
        base = bias(scheme, theta, x)
        for j in range(6):
            shifted = x.copy()
            shifted[j] += period
            assert bias(scheme, theta, shifted) == pytest.approx(base, abs=1e-12)

    def test_trigono_multiquadratic_af(self):
        # Sampling one angle at {0, pi/4, pi/2} pins the three coefficients.
        rng = np.random.default_rng(2)
        x = rng.uniform(-np.pi, np.pi, 6)
        theta = 0.7
        for j in range(6):
            samples = {}
            for xj in (0.0, np.pi / 4, np.pi / 2):
                probe = x.copy()
                probe[j] = xj
                samples[xj] = bias(Scheme.AF, theta, probe)
            c = (samples[0.0] - samples[np.pi / 2]) / 2
            b = (samples[0.0] + samples[np.pi / 2]) / 2
            s = samples[np.pi / 4] - b
            for xj in rng.uniform(-np.pi, np.pi, 10):
                probe = x.copy()
                probe[j] = xj
                predicted = c * np.cos(2 * xj) + s * np.sin(2 * xj) + b
                assert bias(Scheme.AF, theta, probe) == pytest.approx(predicted, abs=1e-10)

    def test_trigono_multilinear_ab(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-np.pi, np.pi, 4)
        theta = 1.9
        for j in range(4):
            samples = {}
            for xj in (0.0, np.pi / 2):
                probe = x.copy()
                probe[j] = xj
                samples[xj] = bias(Scheme.AB, theta, probe)
            c, s = samples[0.0], samples[np.pi / 2]
            for xj in rng.uniform(-np.pi, np.pi, 10):
                probe = x.copy()
                probe[j] = xj
                assert bias(Scheme.AB, theta, probe) == pytest.approx(
                    c * np.cos(xj) + s * np.sin(xj), abs=1e-10
                )


class TestSymmetries:
    # theta within 1e-9 of 0 and of pi, and random theta.
    THETAS = np.append([1e-9, np.pi - 1e-9], np.random.default_rng(5).uniform(0.0, np.pi, 6))

    @pytest.mark.parametrize("layers", range(1, 7))
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_negation_reversal_and_a_pi_shift(self, scheme, layers):
        # bias(theta; -x) is bias(theta; x) bit for bit, and reversing x keeps it; a pi shift of one angle
        # keeps the AF bias and negates the AB bias.  The tuner's objectives read the bias only up to sign,
        # so all three images of x leave both unchanged.
        sign = 1.0 if scheme is Scheme.AF else -1.0
        for x in np.random.default_rng(layers).uniform(-np.pi, np.pi, (4, 2 * layers)):
            b = bias(scheme, self.THETAS, x)
            assert np.array_equal(bias(scheme, self.THETAS, -x), b)
            assert np.max(np.abs(bias(scheme, self.THETAS, x[::-1]) - b)) <= 1e-14
            shifts = x + np.pi * np.eye(2 * layers)
            for shifted in shifts:
                assert np.max(np.abs(bias(scheme, self.THETAS, shifted) - sign * b)) <= 1e-14
            for mu in self.THETAS:
                for spec in (TuneSpec(scheme, layers, mu, 0.9), TuneSpec(scheme, layers, mu, objective=Objective.SLOPE)):
                    value = objective_value(spec, x)
                    for image in (-x, x[::-1], *shifts):
                        assert objective_value(spec, image) == pytest.approx(value, rel=1e-12, abs=1e-13)


class TestBiasDerivative:
    def test_clf_closed_form(self):
        layers = 2
        m = 2 * layers + 1
        d = bias_derivative(Scheme.AF, GRID, clf_angles(layers))
        assert np.max(np.abs(d + m * np.sin(m * GRID))) < 1e-11

    def test_zero_angles_af(self):
        assert bias_derivative(Scheme.AF, 0.9, np.zeros(4)) == pytest.approx(-np.sin(0.9))


def test_bias_series_keeps_no_list_of_prefixes():
    # Its kernel chain keeps only the running pair: at AF L=5 over 4,001 vectors the peak traced allocation
    # measured 19.9 times the (2D + 1, n) float sample array, where a chain keeping every prefix took 79.
    x = np.random.default_rng(5).uniform(-np.pi, np.pi, (4001, 10))
    tracemalloc.start()
    try:
        bias_series(Scheme.AF, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = (2 * 11 + 1) * 4001 * 8  # D = 2L + 1 = 11
    assert peak <= 32 * samples


class TestInputValidation:
    # bias and bias_derivative validate their inputs themselves; the kernel
    # (``algebra.trig``) trusts what it is given.
    @pytest.mark.parametrize("fn", [bias, bias_derivative])
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize(
        "theta, x, message",
        [
            (np.nan, [0.1, 0.2], "theta"),
            (np.inf, [0.1, 0.2], "theta"),
            (np.array([0.3, -np.inf]), [0.1, 0.2], "theta"),
            (np.array([0.3, np.nan]), np.array([[0.1, 0.2], [0.3, 0.4]]), "theta"),
            (0.7, [0.1, 0.2, 0.3], "even length"),
            (np.array([0.3, 0.7]), np.zeros((2, 3)), "even length"),
            (0.7, [0.1, np.nan], "finite"),
            (np.array([0.3, 0.7]), np.array([[0.1, 0.2], [np.inf, 0.4]]), "finite"),
        ],
    )
    def test_rejects_invalid_inputs(self, fn, scheme, theta, x, message):
        with pytest.raises(ValueError, match=message):
            fn(scheme, theta, x)
