import math
from contextlib import contextmanager
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from elfkit import bias, inference
from elfkit.bias import Scheme, _horner, bias_series
from elfkit.inference import (
    FIT_POINTS,
    EstimationConfig,
    _angle_policy,
    _clenshaw_curtis,
    _cos_moments,
    _lockstep,
    _posterior_moments,
    _window_fit,
    pi_to_theta,
    run_estimation,
)
from elfkit.metrics import GaussianBelief, NoiseModel, round_times
from elfkit.tuner import build_lookup_table, chebyshev_table
from paper_model import likelihood
from table_oracle import nearest_valid_entry


class TestCosMoments:
    """``_cos_moments``, the one theta -> Pi read-out of the beliefs."""

    def test_point_mass_limit(self):
        mean, var = _cos_moments(1.2, 1e-24)
        assert mean == pytest.approx(math.cos(1.2), abs=1e-12)
        assert 0.0 < var < 1e-20

    def test_unit_sigma_mean(self):
        mean, _ = _cos_moments(0.0, 1.0)
        assert mean == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_matches_sampling(self):
        rng = np.random.default_rng(14)
        mu, sigma = 0.8, 0.25
        mean, var = _cos_moments(mu, sigma**2)
        draws = np.cos(rng.normal(mu, sigma, 1_000_000))
        se_mean = draws.std(ddof=1) / 1000
        assert abs(mean - draws.mean()) < 3 * se_mean
        # Variance of the sample variance for a well-behaved bounded variable.
        se_var = draws.var(ddof=1) * math.sqrt(2.0) / 1000
        assert abs(var - draws.var(ddof=1)) < 3 * se_var

    def test_variance_is_floored_at_tiny_elementwise(self):
        # At theta = 0 and a zero variance the exact Pi variance is 0; the floor
        # keeps it positive, in a batch as for one run.
        mean, var = _cos_moments(np.array([0.0, 1.2]), np.array([0.0, 1e-4]))
        assert np.array_equal(mean[:1], [1.0]) and var[0] == inference.TINY
        assert var[1] == _cos_moments(1.2, 1e-4)[1] > inference.TINY

    def test_scalars_read_out_the_arrays_bits(self):
        # A run's record reads its Pi belief on numpy scalars, sim's chunks on arrays: the two agree bit
        # for bit.  At the first point sin(mu) ** 2 by pow differs from the array's square in the last bit.
        rng = np.random.default_rng(38)
        mu = np.concatenate([[2.9858556804584366], rng.uniform(0.0, np.pi, 20_000)])
        var = np.concatenate([[0.016938908170902343], 10.0 ** rng.uniform(-12.0, 0.0, 20_000)])
        want = np.stack(_cos_moments(mu, var), axis=1)
        got = np.array([[float(v) for v in _cos_moments(m, v)] for m, v in zip(mu, var)])
        assert got.tobytes() == want.tobytes()


class TestPiToTheta:
    def test_point_mass(self):
        out = pi_to_theta(GaussianBelief(0.5, 1e-24))
        assert out.mean == pytest.approx(math.acos(0.5), abs=1e-9)
        assert out.variance < 1e-12

    def test_round_trip_small_sigma(self):
        start = GaussianBelief(1.2, 0.0009)
        back = pi_to_theta(GaussianBelief(*(float(v) for v in _cos_moments(start.mean, start.variance))))
        assert back.mean == pytest.approx(1.2, abs=1e-3)

    def test_clipped_mass_against_sampling(self):
        rng = np.random.default_rng(15)
        belief = GaussianBelief(0.98, 0.01)
        out = pi_to_theta(belief)
        draws = np.arccos(np.clip(rng.normal(0.98, 0.1, 1_000_000), -1.0, 1.0))
        se_mean = draws.std(ddof=1) / 1000
        assert abs(out.mean - draws.mean()) < 3 * se_mean
        se_var = draws.var(ddof=1) * math.sqrt(2.0) / 1000
        assert abs(out.variance - draws.var(ddof=1)) < 3 * se_var

    def test_fully_clipped_above(self):
        out = pi_to_theta(GaussianBelief(1.5, 1e-4))
        assert out.mean == pytest.approx(0.0, abs=1e-12)

    # (Pi mean, Pi variance): interior, narrow and wide beliefs, windows reaching Pi = +-1, fully
    # clipped ones and variances down to 1e-24, each within 1e-13 in the theta mean and 1e-13
    # relative in the theta variance.
    @pytest.mark.parametrize(
        ("mean", "variance"),
        [
            pytest.param(0.3, 1e-6, id="narrow-interior"),
            pytest.param(0.999, 1e-8, id="narrow-10-sd-from-+1"),
            pytest.param(-0.2, 0.09, id="wide"),
            pytest.param(0.98, 0.01, id="clipped-above"),
            pytest.param(-0.97, 4e-4, id="clipped-below"),
            pytest.param(1.5, 1e-4, id="fully-clipped-above"),
            pytest.param(-1.5, 1e-4, id="fully-clipped-below"),
            pytest.param(0.5, 1e-24, id="variance-1e-24"),
            pytest.param(0.9, 0.04, id="wide-clipped-above"),
            pytest.param(-0.999, 1e-3, id="centre-near--1"),
            pytest.param(0.0, 1e-12, id="variance-1e-12"),
            pytest.param(-0.6, 1e-14, id="variance-1e-14"),
        ],
    )
    def test_matches_an_mpmath_quadrature(self, mean, variance):
        # The theta moments of arccos(clip(X)), X ~ N(mean, variance), to 30 digits: the point masses
        # at Pi = +-1 plus mpmath's quad over [-1, 1], split at the mean and at +-1, 4 and 12 sd.
        with mpmath.workdps(30):
            mu, sd = mpmath.mpf(mean), mpmath.sqrt(mpmath.mpf(variance))
            w_lo, w_hi = mpmath.ncdf(-1, mu, sd), 1 - mpmath.ncdf(1, mu, sd)
            ends = (min(1, max(-1, mu + k * sd)) for k in (-12, -4, -1, 0, 1, 4, 12))
            cuts = sorted({mpmath.mpf(-1), mpmath.mpf(1), *ends})
            m = w_lo * mpmath.pi + mpmath.quad(lambda x: mpmath.acos(x) * mpmath.npdf(x, mu, sd), cuts)
            tails = w_lo * (mpmath.pi - m) ** 2 + w_hi * m**2
            v = tails + mpmath.quad(lambda x: (mpmath.acos(x) - m) ** 2 * mpmath.npdf(x, mu, sd), cuts)
        out, ref_var = pi_to_theta(GaussianBelief(mean, variance)), max(float(v), inference.TINY)
        assert abs(out.mean - float(m)) <= 1e-13
        assert abs(out.variance - ref_var) <= 1e-13 * ref_var


def _clenshaw_curtis_reference(n):
    """Clenshaw-Curtis nodes and weights of order n to 30 digits, not from the closed form: the symmetric
    weights solve the even Chebyshev moment equations sum_k w_k T_2i(x_k) = 2 / (1 - 4 i^2), i = 0..n/2."""
    with mpmath.workdps(30):
        half = range(n // 2 + 1)
        a = mpmath.matrix([[(1 if 2 * k == n else 2) * mpmath.cos(2 * i * k * mpmath.pi / n) for k in half] for i in half])
        w = [float(v) for v in mpmath.lu_solve(a, mpmath.matrix([mpmath.mpf(2) / (1 - 4 * i * i) for i in half]))]
        x = [float(mpmath.cos(k * mpmath.pi / n)) for k in range(n + 1)]
    return np.array(x), np.array(w + w[: (n + 1) // 2][::-1])


class TestClenshawCurtis:
    """``_clenshaw_curtis``, the rule of ``pi_to_theta``: its n + 1 nodes and exactness to degree n fix it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 51, inference.PI_TO_THETA_ORDER])
    def test_matches_a_30_digit_moment_reference(self, n):
        x, w = _clenshaw_curtis(n)
        x_ref, w_ref = _clenshaw_curtis_reference(n)
        # Within 2 ulp of 1 absolutely: about 1.1e-16 is measured for both, up to n = 100.
        assert np.max(np.abs(x - x_ref)) <= 2 * np.spacing(1.0)
        assert np.max(np.abs(w - w_ref)) <= 2 * np.spacing(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 51, inference.PI_TO_THETA_ORDER])
    def test_integrates_monomials_to_degree_n(self, n):
        x, w = _clenshaw_curtis(n)
        assert np.all(np.abs(x - np.cos(np.pi * np.arange(n + 1) / n)) <= 2 * np.spacing(1.0))
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]) and np.all(w > 0.0)
        assert abs(w.sum() - 2.0) <= 1e-15
        for k in range(n + 1):
            assert abs(np.sum(w * x**k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 1e-15, k


@contextmanager
def window_fits():
    """Every ``(r, p)`` that ``_lockstep`` fits inside the block, in order, read by a spy on ``_window_fit``."""
    fits, fit = [], inference._window_fit

    def spy(*args):
        fits.append(fit(*args))
        return fits[-1]

    inference._window_fit = spy
    try:
        yield fits
    finally:
        inference._window_fit = fit


def first_round_fit(layers, mu, var, f):
    """(r, p) of the fit of the first ``_lockstep`` round of one AF run at the Chebyshev angles."""
    angles = _angle_policy(Scheme.AF, f, mu, chebyshev_table(layers))
    with window_fits() as fits:
        _lockstep(f, np.array([mu]), np.array([var]), angles, np.zeros((1, 1)), [1])
    (r, p), = fits
    return r[0], p[0]


class TestFitSinusoid:
    def test_clf_fit_matches_chebyshev_frequency(self):
        # Near a steep region of cos(m theta) the fitted rate approaches +-m.
        layers = 3
        m = 2 * layers + 1
        mu = np.pi / (2 * m) + 0.02  # near the first zero of cos(m theta)
        r, _ = first_round_fit(layers, mu, 1e-6, 0.9)
        assert abs(r) == pytest.approx(m, rel=1e-3)

    def test_tiny_sigma_is_stable(self):
        r, p = first_round_fit(1, 1.0, 1e-24, 1.0)
        assert math.isfinite(r) and math.isfinite(p)


class TestWindowFit:
    def test_matches_polyfit(self):
        rng = np.random.default_rng(FIT_POINTS)
        grid = np.linspace(-1.0, 1.0, FIT_POINTS)
        for _ in range(50):
            mu, sd = rng.uniform(0.1, 3.0), 10.0 ** rng.uniform(-6.0, 0.0)
            z = rng.uniform(-1.5, 1.5, FIT_POINTS)
            r, p = _window_fit(mu, sd, z)
            ref_r = np.polyfit(mu + sd * grid, z, 1)[0]
            # polyfit's own conditioning, about mu/sd, sets the tolerance of r.  The phase p is the
            # line's value at mu: polyfit over the offsets theta - mu, well conditioned, at offset 0.
            assert r == pytest.approx(ref_r, rel=1e-14 * mu / sd, abs=1e-12)
            assert p == pytest.approx(np.polyfit(sd * grid, z, 1)[1], rel=1e-15, abs=1e-15)

    def test_exact_line_in_a_window_of_few_ulps(self):
        # At sd = 1e-12 the window spans a few thousand ulps of mu; a line
        # sampled at the ideal abscissae (z = r (theta - mu) exactly) is still
        # recovered to rounding, and so is a batch of them, row by row.
        mu, sd, rate = 1.3, 1e-12, -7.0
        z = rate * sd * np.linspace(-1.0, 1.0, 11)
        r, p = _window_fit(mu, sd, z)
        assert r == pytest.approx(rate, rel=1e-12)
        assert abs(p) <= 1e-12 * abs(rate) * sd
        rows = _window_fit(np.full(3, mu), np.full(3, sd), np.tile(z, (3, 1)))
        assert np.array_equal(rows[0], np.full(3, r)) and np.array_equal(rows[1], np.full(3, p))


class TestBayesUpdate:
    """The round's update, ``_posterior_moments``, on scalar beliefs; ``TestPosteriorMoments`` checks its values."""

    def test_expected_posterior_variance_decreases(self):
        mu, var, r, b, f = 1.0, 0.01, 5.0, -1.2, 0.8
        p = r * mu + b
        # Weight the two branches by the model evidence of each outcome.
        decay = math.exp(-(r**2) * var / 2)
        expected = 0.0
        for d in (0, 1):
            sign = 1 if d == 0 else -1
            evidence = (1 + sign * f * decay * math.sin(p)) / 2
            expected += evidence * _posterior_moments(mu, var, r, p, f, d)[1]
        assert expected < var


def termwise_posterior_moments(mu, var, r, p, f, d):
    """The update written term by term, with np.where for the sign: the reference of ``_posterior_moments``."""
    sign = np.where(d, -1.0, 1.0)
    r2 = r * r
    decay = np.exp(-r2 * var / 2.0)
    s_, c_ = np.sin(p), np.cos(p)
    signed = sign * f * decay
    den = 1.0 + signed * s_
    mu_next = mu + signed * r * var * c_ / den
    var_next = var * (1.0 - f * r2 * var * decay * (f * decay + sign * s_) / (den * den))
    return mu_next, var_next


class TestPosteriorMoments:
    def test_matches_termwise_reference(self):
        # A seeded grid with both outcomes and variances from 1e-12 to 1, and
        # three blocks where the update must return the prior exactly: f = 0,
        # r = 0, and r^2 var > 1500, where the decay underflows to 0 (so the
        # shared signed decay must never be a divisor).
        rng = np.random.default_rng(1500)
        n = 4000
        mu, var = rng.uniform(0.05, 3.1, n), 10.0 ** rng.uniform(-12.0, 0.0, n)
        r, b = rng.uniform(-40.0, 40.0, n), rng.uniform(-np.pi, np.pi, n)
        f, d = rng.uniform(0.0, 1.0, n), np.arange(n) % 2 == 1
        block = np.arange(n) // (n // 8)
        f[block == 0] = 0.0
        r[block == 1] = 0.0
        r[block == 2] = np.sqrt(rng.uniform(1600.0, 1e6, n // 8) / var[block == 2]) * np.sign(r[block == 2])
        assert np.all(np.exp(-r[block == 2] ** 2 * var[block == 2] / 2.0) == 0.0)
        p = r * mu + b  # the fit's phase at the belief mean
        mean, variance = _posterior_moments(mu, var, r, p, f, d)
        ref_mean, ref_variance = termwise_posterior_moments(mu, var, r, p, f, d)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(variance, ref_variance, rtol=1e-13, atol=0.0)
        prior = block <= 2
        assert np.array_equal(mean[prior], mu[prior]) and np.array_equal(variance[prior], var[prior])
        assert np.any(variance < 0.6 * var) and np.any(variance > 2.0 * var)  # the grid moves the belief both ways

    @pytest.mark.parametrize("d", [0, 1])
    @pytest.mark.parametrize("f", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 1e-2, 0.1, 0.5])
    def test_matches_exact_quadrature(self, d, f, sigma):
        # Exact moments of prior x likelihood, (1 + (-1)^d f sin(r theta + b))/2,
        # integrated in the prior's standard units t = (theta - mu)/sigma so
        # that narrow priors keep full relative precision; the update reads the phase r mu + b.
        rng = np.random.default_rng(int(1e4 * sigma) + 10 * d + int(10 * f))
        sign = 1.0 - 2.0 * d
        for _ in range(6):
            mu, r, b = rng.uniform(0.3, 2.8), rng.uniform(-20.0, 20.0), rng.uniform(-np.pi, np.pi)
            mean, var = _posterior_moments(mu, sigma**2, r, r * mu + b, f, d)

            def moment(k):
                def weighted(t):
                    return t**k * math.exp(-t * t / 2.0) * (1.0 + sign * f * math.sin(r * (mu + sigma * t) + b))

                return quad(weighted, -12.0, 12.0, epsabs=1e-13, epsrel=1e-12, limit=400)[0]

            z, m1, m2 = moment(0), moment(1), moment(2)
            shift = m1 / z
            assert abs(mean - (mu + sigma * shift)) <= 1e-9 * sigma
            assert abs(var - sigma**2 * (m2 / z - shift**2)) <= 1e-9 * sigma**2


class TestRunEstimation:
    def test_clf_trace_bookkeeping(self):
        layers = 2
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=layers,
            noise=NoiseModel(0.95, 1.0),
            prior_pi=GaussianBelief(0.5, 0.0009),
            true_pi=0.55,
            seed=3,
            horizon=20 * (2 * layers + 1),
            angle_source="clf",
        )
        records = run_estimation(cfg)
        assert len(records) == 20
        for k, rec in enumerate(records, start=1):
            assert rec.cumulative_time == k * (2 * layers + 1)
            assert rec.outcome in (0, 1)

    def test_variance_contracts_over_run(self):
        # Pi = 0 sits at the steepest point of the single-layer Chebyshev
        # bias; a dead spot (e.g. Pi = 0.5) would stall instead.
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=1,
            noise=NoiseModel(),
            prior_pi=GaussianBelief(0.05, 0.01),
            true_pi=0.0,
            seed=11,
            horizon=900,
            angle_source="clf",
        )
        records = run_estimation(cfg)
        assert records[-1].theta_belief.variance < records[0].theta_belief.variance / 10

    def test_dead_spot_stalls_clf(self):
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=1,
            noise=NoiseModel(),
            prior_pi=GaussianBelief(0.5, 0.0009),
            true_pi=0.5,
            seed=11,
            horizon=900,
            angle_source="clf",
        )
        records = run_estimation(cfg)
        assert records[-1].theta_belief.variance > records[0].theta_belief.variance / 2

    def test_table_source(self):
        table = build_lookup_table(
            Scheme.AF, 1, NoiseModel(0.9, 1.0), np.linspace(0.3, 0.7, 21),
            restarts=2, seed=4, max_rounds=30,
        )
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            prior_pi=GaussianBelief(0.5, 0.0009),
            true_pi=0.52,
            seed=5,
            horizon=300,
            angle_source="table",
            table=table,
        )
        records = run_estimation(cfg)
        assert len(records) == 100
        assert abs(records[-1].pi_belief.mean - 0.52) < 0.1

    def test_round_budget(self):
        # A horizon buys horizon // (2L + 1) rounds (``metrics.round_times``); one shorter
        # than a round (2L + 1 = 5 here) is an error, as in ExperimentConfig.
        common = dict(
            scheme=Scheme.AF,
            layers=2,
            noise=NoiseModel(),
            prior_pi=GaussianBelief(0.5, 0.0009),
            true_pi=0.5,
            angle_source="clf",
        )
        assert len(run_estimation(EstimationConfig(horizon=104, **common))) == 20
        assert len(run_estimation(EstimationConfig(horizon=5, **common))) == 1
        # Below 1 it is out of its domain; from 1 to 4 too short for a round.
        for horizon, message in ((-5, r"must lie in \[1, inf\)"), (0, r"must lie in \[1, inf\)"), (4, "must be >= 5")):
            with pytest.raises(ValueError, match=f"horizon {message}"):
                EstimationConfig(horizon=horizon, **common)

    @pytest.mark.parametrize(
        "layers, true_pi, prior_mean, seed",
        [(3, 0.9964819060079395, 0.9, 1706330194), (3, -0.9923762558099185, -0.9, 238710560)],
    )
    def test_edge_estimate_completes(self, layers, true_pi, prior_mean, seed):
        # True Pi within 1% of +-1 and a wide prior: the fit abscissae reach a
        # multiple of pi, where the bias is smooth, so the estimate completes.
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=layers,
            noise=NoiseModel(0.95, 0.99),
            prior_pi=GaussianBelief(prior_mean, 0.2**2),
            true_pi=true_pi,
            seed=seed,
            horizon=300,
            angle_source="clf",
        )
        records = run_estimation(cfg)
        assert len(records) == 300 // (2 * layers + 1)
        assert all(-1.0 <= rec.pi_belief.mean <= 1.0 for rec in records)

    @pytest.mark.parametrize(
        "moment, bad", [("mean", np.nan), ("variance", -1e-9), ("variance", np.inf)],
        ids=["nan-mean", "negative-variance", "inf-variance"],
    )
    def test_invalid_update_names_the_round(self, monkeypatch, moment, bad):
        # The batch of one excludes its run on an invalid update; that raises
        # a ValueError naming the round, after one update per round and no replay.
        calls = []

        def spoiled(mu, var, r, p, f, d):
            calls.append(1)
            mu_next, var_next = _posterior_moments(mu, var, r, p, f, d)
            if len(calls) < 3:
                return mu_next, var_next
            return (mu_next + bad, var_next) if moment == "mean" else (mu_next, np.full_like(var, bad))

        monkeypatch.setattr(inference, "_posterior_moments", spoiled)
        cfg = EstimationConfig(
            scheme=Scheme.AF,
            layers=1,
            noise=NoiseModel(),
            prior_pi=GaussianBelief(0.05, 0.01),
            true_pi=0.0,
            horizon=30,
            angle_source="clf",
        )
        with pytest.raises(ValueError, match=r"^round 3: the update gave a non-finite mean or a variance outside"):
            run_estimation(cfg)
        assert len(calls) == 3

    def test_angle_source_is_table_or_clf(self):
        # The per-round tuned source is gone; only "table" and "clf" remain.
        with pytest.raises(ValueError, match="^angle_source must be 'table' or 'clf'$"):
            EstimationConfig(Scheme.AF, 1, NoiseModel(), GaussianBelief(0.5, 0.0009), 0.5, 100, angle_source="tune")


@lru_cache(maxsize=None)
def small_table(scheme, layers):
    noise = NoiseModel(0.95, 0.99)
    return build_lookup_table(scheme, layers, noise, np.linspace(-0.9, 0.9, 13), restarts=1, seed=3, max_rounds=20)


class TestEngineEquivalence:
    """A single run, held 0-d on numpy scalars, is column 23 of a 64-run lockstep batch, bit for bit."""

    @pytest.mark.parametrize("source", ["clf", "table"])
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_single_run_is_a_batch_column(self, source, scheme, layers):
        noise = NoiseModel(0.95, 0.99)
        cfg = EstimationConfig(
            scheme=scheme,
            layers=layers,
            noise=noise,
            prior_pi=GaussianBelief(0.35, 0.05**2),
            true_pi=0.3,
            seed=17 + layers,
            horizon=60 * (2 * layers + 1),
            angle_source=source,
            table=small_table(scheme, layers) if source == "table" else None,
        )
        rounds = round_times(cfg.layers, cfg.horizon).size
        draws = np.random.default_rng(np.random.SeedSequence(cfg.seed)).random(rounds)
        marks = range(1, rounds + 1)
        with window_fits() as single_fits:
            single = inference._rounds(cfg, draws, marks)

        # The same run as column 23 among other runs with their own priors and draws.
        rng = np.random.default_rng(layers)
        col, width, n = 23, 64, draws.size
        uniforms = rng.random((n, width))
        uniforms[:, col] = draws
        prior = pi_to_theta(cfg.prior_pi)
        mu = prior.mean + 0.05 * rng.standard_normal(width)
        var = prior.variance * rng.uniform(0.5, 2.0, width)
        mu[col], var[col] = prior.mean, prior.variance
        f = noise.process_fidelity(layers)
        angles = _angle_policy(scheme, f, math.acos(cfg.true_pi), cfg.table or chebyshev_table(layers))
        with window_fits() as batch_fits:
            batch = _lockstep(f, mu, var, angles, uniforms, marks)
        assert len(single_fits) == len(batch_fits) == n
        # The fit's (r, p) stay numpy scalars, not 1-element arrays, and the kept (d, mu, var, alive) one per round.
        assert all(np.ndim(v) == 0 for fit in single_fits for v in fit)
        assert [state.shape for state in single] == [(n,)] * 4 and [state.shape for state in batch] == [(n, width)] * 4
        got = np.column_stack([np.array(single_fits, dtype=float), *single[:3]])
        want = np.column_stack([np.array([(r[col], p[col]) for r, p in batch_fits]), *(s[:, col] for s in batch[:3])])
        assert got.tobytes() == want.tobytes()
        assert single[3].all() and batch[3][:, col].all()
        assert 0 < single[0].sum() < n  # both outcomes occur


@pytest.mark.parametrize("true_pi", [-0.8, 0.3, 0.95])
@pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_angle_policy_reads_the_nearest_valid_entry(layers, scheme, true_pi):
    # A run reads the theta-series column of the valid entry nearest its Pi mean, and the threshold
    # f bias(theta_star) of that column, bit for bit f times its Horner value at two copies of
    # e^{i theta_star}.  A 0-d belief reads one (D + 1,) column and a 0-d threshold, read-only because
    # every run of the process shares them; so does a 1-D one of a one-entry table (chebyshev_table).
    f, theta_star = NoiseModel(0.95, 0.99).process_fidelity(layers), math.acos(true_pi)
    e = np.full(2, complex(math.cos(theta_star), math.sin(theta_star)))
    for table in (chebyshev_table(layers), small_table(scheme, layers)):
        policy = _angle_policy(scheme, f, theta_star, table)
        valid = [entry.pi for entry in table.entries if entry.flag is None]
        # Queries between and beyond the entries, and at each; a belief's Pi mean is its pi to rounding.
        pis = [-0.97, -0.31, 0.0, 0.42, 0.97, *valid]
        mu = np.arccos(pis)
        columns, thresholds = policy(mu, np.full(mu.size, 1e-30))
        if len(valid) == 1:  # one column and threshold for every run, unbroadcast
            assert columns.ndim == 1 and np.ndim(thresholds) == 0 and not columns.flags.writeable
            columns, thresholds = np.repeat(columns[:, None], mu.size, axis=1), np.full(mu.size, thresholds)
        else:
            assert thresholds.shape == mu.shape and len(valid) > 5
        for pi, m, batch_column, batch_threshold in zip(pis, mu, columns.T, thresholds):
            angles = nearest_valid_entry(table, pi).angles
            want = bias_series(scheme, angles)
            want_threshold = f * _horner(want[:, None], e)[0]
            assert abs(want_threshold - f * bias.bias(scheme, theta_star, angles)) <= 1e-12
            assert batch_column.tobytes() == want.tobytes() and batch_threshold == want_threshold
            for belief in ((m, 1e-30), (np.float64(m), np.float64(1e-30))):
                column, threshold = policy(*belief)
                assert column.shape == want.shape and np.ndim(threshold) == 0
                assert column.tobytes() == want.tobytes() and threshold == want_threshold
                assert not column.flags.writeable


class TestLeanRun:
    """A record is the numbers of its round."""

    @staticmethod
    def config(scheme, source, layers=2):
        return EstimationConfig(
            scheme=scheme,
            layers=layers,
            noise=NoiseModel(0.95, 0.99),
            prior_pi=GaussianBelief(0.35, 0.05**2),
            true_pi=0.3,
            seed=5,
            horizon=60 * (2 * layers + 1) + 2,  # not a multiple of the round cost
            angle_source=source,
            table=small_table(scheme, layers) if source == "table" else None,
        )

    @pytest.mark.parametrize("source", ["clf", "table"])
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_records_carry_the_rounds_numbers(self, source, scheme):
        cfg = self.config(scheme, source)
        records = run_estimation(cfg)
        rounds = round_times(cfg.layers, cfg.horizon).size
        uniforms = np.random.default_rng(np.random.SeedSequence(cfg.seed)).random(rounds)
        d, mu, var, alive = inference._rounds(cfg, uniforms, range(1, rounds + 1))
        assert alive.all() and d.dtype == bool
        assert len(records) == d.size == 60
        assert [rec.cumulative_time for rec in records] == [k * 5 for k in range(1, 61)]
        assert [rec.outcome for rec in records] == d.astype(int).tolist()
        assert np.array([rec[2:] for rec in records]).tobytes() == np.stack([mu, var], axis=1).tobytes()
        # Each record's Pi belief, computed when read, is the array-wide read-out of the rounds, bit for bit.
        got = np.array([(rec.pi_belief.mean, rec.pi_belief.variance) for rec in records])
        assert got.tobytes() == np.stack(_cos_moments(mu, var), axis=1).tobytes()
        assert 0 < d.sum() < 60  # both outcomes occur

    def test_record_fields_are_plain_numbers(self):
        for rec in run_estimation(self.config(Scheme.AF, "table")):
            assert [type(v) for v in rec] == [int, int, float, float]
            theta, pi = rec.theta_belief, rec.pi_belief
            assert isinstance(theta, GaussianBelief) and isinstance(pi, GaussianBelief)
            assert (theta.mean, theta.variance) == rec[2:] and type(pi.mean) is type(pi.variance) is float


class TestGridPosterior:
    """The Gaussian belief against the exact posterior, a likelihood product on a dense theta grid.

    At the Chebyshev angles every round has one likelihood, so the exact posterior of a run is the
    engine's own theta prior (``pi_to_theta``) times P(0 | theta)^n0 P(1 | theta)^n1 of its outcome
    counts, on 40,001 points over +-12 prior sd.  Each case runs seeds 0-39 at horizon 600 on the
    benchmark's device, true Pi 0.3 and prior mean 0.32, and scores the last record's theta mean in
    grid-posterior sds (z) and its sd over the grid posterior's (ratio).  A band is the measured
    extreme moved away from the ideal (z 0, ratio 1) by a quarter of its distance to it or by 0.01,
    whichever is more, and rounded outward to two decimals.  The widest are known defects:
    - prior sd 0.1, AF L=1: z reaches 0.638 at seed 10, whose posterior has modes at theta 0.89 and 1.23;
    - AF L=2: the ratio reaches 1.391 (prior sd 0.03) and 3.833 (0.1).  5 theta* sits 0.05 rad from
      2 pi, a dead spot of the Chebyshev bias: the fit learns almost nothing, and the belief keeps
      about the prior's sd, while the exact posterior narrows (to 0.03-0.07 at prior sd 0.1).
    No run, engine or grid, ended beyond 2.70 sd of the true theta.
    """

    DEVICE, TRUE_PI, PRIOR_MEAN, HORIZON, SEEDS = NoiseModel(0.95, 0.99), 0.3, 0.32, 600, range(40)
    # (prior sd, scheme, L): max |z|, ratio low and high.  Measured, in the same order:
    # 0.03: AF1 0.00602, 0.98986-1.00934; AF2 0.06794, 0.84436-1.39135; AB1 0.00008, 0.99979-1.00013;
    #       AB2 0.00188, 0.99679-1.00153.
    # 0.1:  AF1 0.63803, 0.69370-1.05298; AF2 0.07896, 0.75709-3.83314; AB1 0.00402, 0.99635-1.00315;
    #       AB2 0.07870, 0.90532-1.06260.
    BANDS = {
        (0.03, Scheme.AF, 1): (0.02, 0.97, 1.02),
        (0.03, Scheme.AF, 2): (0.09, 0.80, 1.49),
        (0.03, Scheme.AB, 1): (0.02, 0.98, 1.02),
        (0.03, Scheme.AB, 2): (0.02, 0.98, 1.02),
        (0.1, Scheme.AF, 1): (0.80, 0.61, 1.07),
        (0.1, Scheme.AF, 2): (0.10, 0.69, 4.55),
        (0.1, Scheme.AB, 1): (0.02, 0.98, 1.02),
        (0.1, Scheme.AB, 2): (0.10, 0.88, 1.08),
    }

    @pytest.mark.parametrize("prior_sd", [0.03, 0.1])
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_the_belief_tracks_the_grid_posterior(self, layers, scheme, prior_sd):
        prior = GaussianBelief(self.PRIOR_MEAN, prior_sd**2)
        theta_prior, theta_star = pi_to_theta(prior), math.acos(self.TRUE_PI)
        grid = theta_prior.mean + theta_prior.std * np.linspace(-12.0, 12.0, 40_001)
        f, angles = self.DEVICE.process_fidelity(layers), bias.clf_angles(layers)
        log_prior = -0.5 * ((grid - theta_prior.mean) / theta_prior.std) ** 2
        log_p0, log_p1 = (np.log(likelihood(scheme, d, grid, f, angles)) for d in (0, 1))
        max_z, ratio_lo, ratio_hi = self.BANDS[prior_sd, scheme, layers]
        for seed in self.SEEDS:
            cfg = EstimationConfig(scheme, layers, self.DEVICE, prior, self.TRUE_PI, self.HORIZON, seed, "clf")
            records = run_estimation(cfg)
            n1 = sum(rec.outcome for rec in records)
            log_post = log_prior + (len(records) - n1) * log_p0 + n1 * log_p1
            w = np.exp(log_post - log_post.max())
            w /= w.sum()
            assert w[0] < 1e-30 and w[-1] < 1e-30, seed  # the grid holds the whole posterior
            mean = float(np.sum(w * grid))
            sd = math.sqrt(np.sum(w * (grid - mean) ** 2))
            last = records[-1].theta_belief
            z, ratio = (last.mean - mean) / sd, last.std / sd
            assert abs(z) <= max_z and ratio_lo <= ratio <= ratio_hi, (seed, z, ratio)
            assert abs(last.mean - theta_star) <= 3.0 * last.std and abs(mean - theta_star) <= 3.0 * sd, seed
