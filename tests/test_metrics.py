import math

import numpy as np
import pytest
from scipy.integrate import quad

from elfkit.bias import Scheme, bias, bias_derivative, clf_angles
from elfkit.metrics import GaussianBelief, NoiseModel, fisher_information, rhat0, round_cost, slope
from elfkit.tuner import TuneSpec, objective_value, tune
from paper_model import expected_bias, inverse_variance_rate, likelihood, variance_reduction_factor


# The figures of one angle vector, and what each refuses: an odd or 2-D x, and objective_value a vector of 2L angles
# for another L.
ONE_VECTOR_FIGURES = {
    "rhat0": lambda x: rhat0(Scheme.AF, 0.3, 0.9, x),
    "fisher_information": lambda x: fisher_information(Scheme.AF, 1.1, 0.9, x),
    "slope": lambda x: slope(Scheme.AF, 1.1, 0.9, x),
    "objective_value": lambda x: objective_value(TuneSpec(Scheme.AF, 1, 1.1), x),
}
ODD, TWO_D = "even length", r"^x must be one vector of 2L? angles, got shape \(2, 2\)$"
ONE_VECTOR_CASES = [
    pytest.param("rhat0", [0.3], ODD, id="one"),
    pytest.param("rhat0", [0.3, 0.2, 0.1], ODD, id="odd"),
    *(pytest.param(name, [0.3, 0.2, 0.1], ODD, id=f"{name}-odd") for name in list(ONE_VECTOR_FIGURES)[1:]),
    *(pytest.param(name, np.zeros((2, 2)), TWO_D, id=f"{name}-2d") for name in ONE_VECTOR_FIGURES),
    pytest.param("objective_value", np.zeros(4), r"^x must be one vector of 2 angles, got shape \(4,\)$", id="length"),
]


class TestNoiseModel:
    def test_process_fidelity(self):
        noise = NoiseModel(0.9, 0.95)
        assert noise.process_fidelity(6) == pytest.approx(0.95 * 0.9**6)


class TestLikelihood:
    def test_fully_depolarized(self):
        x = clf_angles(2)
        assert likelihood(Scheme.AF, 0, 1.0, 0.0, x) == 0.5
        assert likelihood(Scheme.AF, 1, 1.0, 0.0, x) == 0.5

    def test_clf_value(self):
        # L=1 Chebyshev at theta=pi/6: bias cos(pi/2) = 0.
        assert likelihood(Scheme.AF, 0, np.pi / 6, 1.0, clf_angles(1)) == pytest.approx(0.5)

    def test_outcomes_sum_to_one_exactly(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-np.pi, np.pi, 6)
        p0 = likelihood(Scheme.AB, 0, 1.234, 0.71, x)
        p1 = likelihood(Scheme.AB, 1, 1.234, 0.71, x)
        assert p0 + p1 == 1.0
        assert 0.0 <= p0 <= 1.0

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            likelihood(Scheme.AF, 2, 1.0, 1.0, clf_angles(1))


class TestFisherInformation:
    def test_enhanced_sampling_factor_nine(self):
        assert fisher_information(Scheme.AF, np.pi / 2, 1.0, clf_angles(1)) == pytest.approx(
            9.0, abs=1e-10
        )

    def test_zero_fidelity(self):
        assert fisher_information(Scheme.AF, 1.0, 0.0, clf_angles(2)) == 0.0

    def test_clf_dead_spot(self):
        # theta = pi/(2L+1) kills the Chebyshev derivative.
        layers = 6
        f = NoiseModel(0.9, 1.0).process_fidelity(layers)
        info = fisher_information(Scheme.AF, np.pi / 13, f, clf_angles(layers))
        assert info == pytest.approx(0.0, abs=1e-10)

    def test_noiseless_clf_reaches_quadratic_growth(self):
        for layers in (1, 2, 4):
            m = 2 * layers + 1
            theta = 0.37  # sin(m theta) != 0 here for all three m
            info = fisher_information(Scheme.AF, theta, 1.0, clf_angles(layers))
            assert info == pytest.approx(m**2, rel=1e-10)

    def test_singular_guard(self):
        # Zero angles give bias cos(theta); push |bias| -> 1 at f = 1.
        with pytest.raises(FloatingPointError, match="fisher information diverges"):
            fisher_information(Scheme.AF, 1e-9, 1.0, np.zeros(2))


class TestSlope:
    def test_clf_value(self):
        assert slope(Scheme.AF, np.pi / 2, 1.0, clf_angles(1)) == pytest.approx(1.5)

    def test_zero_fidelity(self):
        assert slope(Scheme.AB, 1.0, 0.0, clf_angles(2)) == 0.0

    def test_definition(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-np.pi, np.pi, 4)
        f, theta = 0.62, 1.1
        assert slope(Scheme.AF, theta, f, x) == pytest.approx(
            f * abs(bias_derivative(Scheme.AF, theta, x)) / 2
        )


class TestExpectedBias:
    def test_delta_limit(self):
        x = np.array([0.5, -0.9, 1.3, 0.1])
        belief = GaussianBelief(1.1, 1e-16)
        b, _ = expected_bias(Scheme.AF, belief, x)
        assert b == pytest.approx(bias(Scheme.AF, 1.1, x), abs=1e-8)

    @pytest.mark.parametrize("layers,mu,sigma", [(1, 0.8, 0.3), (3, 1.7, 0.08), (5, 2.2, 0.02)])
    def test_clf_gaussian_cosine_closed_form(self, layers, mu, sigma):
        m = 2 * layers + 1
        belief = GaussianBelief(mu, sigma**2)
        b, db = expected_bias(Scheme.AF, belief, clf_angles(layers))
        decay = math.exp(-(m**2) * sigma**2 / 2)
        assert b == pytest.approx(decay * math.cos(m * mu), abs=1e-12)
        assert db == pytest.approx(-m * decay * math.sin(m * mu), abs=1e-11)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(17)
        x = rng.uniform(-np.pi, np.pi, 6)
        mu, sigma = 1.2, 0.2
        b, _ = expected_bias(Scheme.AF, GaussianBelief(mu, sigma**2), x)
        draws = rng.normal(mu, sigma, 200_000)
        values = bias(Scheme.AF, draws, x)
        se = values.std(ddof=1) / math.sqrt(draws.size)
        assert abs(b - values.mean()) < 3 * se

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 1.1])
    @pytest.mark.parametrize("layers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_matches_dense_reference(self, scheme, layers, sigma):
        # Trapezoid rule over mu +- 12 sigma on the kernel's bias and its
        # theta-derivative: the Gaussian-weighted integrand is smooth and
        # decays to below 1e-31 at the ends, so the rule is exact to rounding
        # at every sigma and L, including sigma > 1 and the L = 8 case that a
        # fixed-node quadrature misses.
        rng = np.random.default_rng(100 * layers + int(10 * sigma))
        x = rng.uniform(-np.pi, np.pi, 2 * layers)
        mu = rng.uniform(0.3, 2.8)
        t = np.linspace(-12.0, 12.0, 2401)
        w = np.exp(-t * t / 2.0) * (t[1] - t[0]) / math.sqrt(2.0 * math.pi)
        w[[0, -1]] /= 2.0
        thetas = mu + sigma * t
        b, db = expected_bias(scheme, GaussianBelief(mu, sigma**2), x)
        assert b == pytest.approx(float(w @ bias(scheme, thetas, x)), abs=1e-12)
        assert db == pytest.approx(float(w @ bias_derivative(scheme, thetas, x)), abs=1e-12)


class TestVarianceReductionFactor:
    def test_clf_peak_value(self):
        belief = GaussianBelief(np.pi / 2, 1e-4)
        v = variance_reduction_factor(Scheme.AF, belief, 1.0, clf_angles(1))
        assert v == pytest.approx(9.0 * math.exp(-9e-4), rel=1e-12)

    def test_approaches_fisher_information_at_small_sigma(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-np.pi, np.pi, 4)
        mu, f = 1.3, 0.8
        v = variance_reduction_factor(Scheme.AF, GaussianBelief(mu, 1e-16), f, x)
        assert v == pytest.approx(fisher_information(Scheme.AF, mu, f, x), rel=1e-4)

    def test_low_fidelity_slope_proxy(self):
        rng = np.random.default_rng(29)
        x = rng.uniform(-np.pi, np.pi, 4)
        mu, f = 0.9, 0.1
        v = variance_reduction_factor(Scheme.AF, GaussianBelief(mu, 1e-16), f, x)
        assert v == pytest.approx(f**2 * bias_derivative(Scheme.AF, mu, x) ** 2, rel=1e-2)

    def test_expected_posterior_variance_identity(self):
        # E_d[Var(theta|d)] from explicit two-outcome averaging must equal
        # sigma^2 (1 - sigma^2 V).
        rng = np.random.default_rng(31)
        for scheme in (Scheme.AF, Scheme.AB):
            x = rng.uniform(-np.pi, np.pi, 4)
            mu, sigma, f = 1.1, 0.08, 0.7
            prior = lambda th: np.exp(-((th - mu) ** 2) / (2 * sigma**2)) / (
                sigma * math.sqrt(2 * math.pi)
            )
            lo, hi = mu - 10 * sigma, mu + 10 * sigma

            def moments(d):
                sign = 1 if d == 0 else -1
                lik = lambda th: (1 + sign * f * bias(scheme, th, x)) / 2
                z = quad(lambda th: lik(th) * prior(th), lo, hi, limit=200)[0]
                m1 = quad(lambda th: th * lik(th) * prior(th), lo, hi, limit=200)[0] / z
                var = quad(lambda th: (th - m1) ** 2 * lik(th) * prior(th), lo, hi, limit=200)[0] / z
                return z, var

            z0, v0 = moments(0)
            z1, v1 = moments(1)
            v = variance_reduction_factor(scheme, GaussianBelief(mu, sigma**2), f, x)
            assert z0 * v0 + z1 * v1 == pytest.approx(sigma**2 * (1 - sigma**2 * v), abs=1e-8)


class TestRates:
    def test_zero_factor_gives_zero_rate(self):
        # Zero-fidelity likelihood carries no information.
        belief = GaussianBelief(1.0, 1e-4)
        assert inverse_variance_rate(Scheme.AF, belief, 0.0, clf_angles(1), 1) == 0.0

    def test_small_sigma_limit(self):
        belief = GaussianBelief(1.0, 1e-12)
        layers = 2
        x = clf_angles(layers)
        rate = inverse_variance_rate(Scheme.AF, belief, 0.8, x, layers)
        v = variance_reduction_factor(Scheme.AF, belief, 0.8, x)
        assert rate == pytest.approx(v / (2 * layers + 1), rel=1e-9)

    def test_monotone_in_reduction_factor(self):
        # R = V / (T (1 - sigma^2 V)) is increasing in V on the valid range.
        sigma2 = 1e-4
        values = [v / (3 * (1 - sigma2 * v)) for v in np.linspace(1.0, 9000.0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rhat0_clf_dead_spots(self):
        layers = 6
        f = NoiseModel(0.9, 1.0).process_fidelity(layers)
        x = clf_angles(layers)
        for j in (1, 3, 5):
            pi_star = math.cos(j * np.pi / (2 * layers + 1))
            assert rhat0(Scheme.AF, pi_star, f, x) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [2, 3])
    def test_rhat0_takes_its_depth_from_the_angles(self, scheme, layers):
        # One round of L layers holds 2L angles and costs 2L + 1 time steps.
        rng = np.random.default_rng(100 * layers + (scheme is Scheme.AB))
        f = NoiseModel(0.95, 0.99).process_fidelity(layers)
        for _ in range(5):
            x = rng.uniform(-math.pi, math.pi, 2 * layers)
            pi_star = rng.uniform(-0.9, 0.9)
            info = fisher_information(scheme, math.acos(pi_star), f, x)
            expected = info / ((2 * layers + 1) * (1.0 - pi_star**2))
            assert rhat0(scheme, pi_star, f, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("pi_star", [-0.6, 0.1, 0.7])
    def test_tuned_rates_against_standard_sampling(self, pi_star):
        # ELF against standard sampling, the depth-0 round, in closed form (ROADMAP direction 17): at the
        # benchmark's device, rhat0 of tuned angles (the default TuneSpec) against f0^2 / (1 - f0^2 Pi^2),
        # rhat0's formula for the depth-0 likelihood (bias cos theta) at round_cost(0) = 1.  Measured:
        #   Pi     standard  AF L=1..3            AB L=1..5
        #   -0.6   1.5145    2.627 6.229 4.866    0.433 0.981 0.777 1.217 2.079
        #    0.1   0.9898    2.651 3.802 4.412    0.298 0.302 0.911 0.754 1.205
        #    0.7   1.8857    4.604 6.718 7.886    0.520 1.252 1.381 0.967 2.047
        # AF beats standard sampling from L = 1.  An AB round has theta-frequency L but costs 2L + 1,
        # so AB first passes it at L = 5 at each Pi; a change to the cost model moves that depth.
        noise = NoiseModel(0.95, 0.99)
        theta, f0 = math.acos(pi_star), noise.spam_fidelity
        depth0 = (f0 * math.sin(theta)) ** 2 / (1.0 - (f0 * pi_star) ** 2)  # F at bias cos theta
        standard = depth0 / (round_cost(0) * (1.0 - pi_star**2))
        assert standard == pytest.approx(f0**2 / (1.0 - f0**2 * pi_star**2), rel=1e-12)

        def rate(scheme, layers):
            f = noise.process_fidelity(layers)
            return rhat0(scheme, pi_star, f, tune(TuneSpec(scheme, layers, theta, f)).x_opt)

        assert all(rate(Scheme.AF, layers) > standard for layers in (1, 2, 3))
        assert [rate(Scheme.AB, layers) > standard for layers in range(1, 6)] == [False] * 4 + [True]

    @pytest.mark.parametrize(("figure", "x", "match"), ONE_VECTOR_CASES)
    def test_rhat0_rejects_odd_angle_vectors(self, figure, x, match):
        # Each one-vector figure refuses anything but one vector of 2L angles (objective_value: of 2 spec.layers).
        with pytest.raises(ValueError, match=match):
            ONE_VECTOR_FIGURES[figure](x)
