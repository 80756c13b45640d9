import dataclasses
import math
import os
import re
import traceback

import numpy as np
import pytest
from scipy.stats import chi2

from elfkit.bias import Scheme, clf_angles
from elfkit import inference
from elfkit.inference import EstimationConfig, _angle_policy, _cos_moments, _lockstep, pi_to_theta
from elfkit.metrics import GaussianBelief, NoiseModel
from elfkit.sim import (
    CHECKPOINTS_PER_DECADE,
    CHUNK_SIZE,
    EXPERIMENT_SCHEMES,
    ExperimentConfig,
    TraceSeries,
    _checkpoint_rounds,
    run_experiment,
)
from elfkit.tuner import DEGENERATE_FLAG, LookupTable, TableEntry, build_lookup_table, chebyshev_table
from paper_model import likelihood


@pytest.fixture(scope="module")
def tiny_table():
    return build_lookup_table(
        Scheme.AF,
        1,
        NoiseModel(0.9, 1.0),
        np.linspace(-0.3, 0.3, 31),
        restarts=2,
        seed=1,
        max_rounds=30,
    )


def round_outcomes(scheme, theta_star, f, layers, rng, n=100_000):
    """Outcomes of one lockstep round of n runs at the Chebyshev angles.

    The draw reads only the uniform and the bias at theta_star, not the belief.
    """
    angles = _angle_policy(scheme, f, theta_star, chebyshev_table(layers))
    d = _lockstep(f, np.full(n, 1.0), np.full(n, 0.01), angles, rng.random((1, n)), [1])[0]
    return d[0].astype(int)


class TestSampleOutcome:
    def test_depolarized_is_fair(self):
        draws = round_outcomes(Scheme.AF, 1.0, 0.0, 1, np.random.default_rng(0))
        freq = np.mean(draws == 0)
        assert abs(freq - 0.5) <= 0.005

    def test_frequency_matches_likelihood(self):
        theta_star = 0.5 * np.pi / 3
        p0 = likelihood(Scheme.AF, 0, theta_star, 1.0, clf_angles(1))
        draws = round_outcomes(Scheme.AF, theta_star, 1.0, 1, np.random.default_rng(1))
        n = draws.size
        k = np.sum(draws == 0)
        se = math.sqrt(n * p0 * (1 - p0))
        assert abs(k - n * p0) < 3 * se

    def test_chi_square_consistency(self):
        theta_star, f = 1.1, 0.7
        p0 = likelihood(Scheme.AB, 0, theta_star, f, clf_angles(2))
        draws = round_outcomes(Scheme.AB, theta_star, f, 2, np.random.default_rng(2))
        n = draws.size
        k = np.sum(draws == 0)
        stat = (k - n * p0) ** 2 / (n * p0) + ((n - k) - n * (1 - p0)) ** 2 / (n * (1 - p0))
        assert stat < chi2.ppf(1 - 0.001, df=1)

    def test_deterministic_given_seed(self):
        seqs = [round_outcomes(Scheme.AF, 0.8, 0.9, 1, np.random.default_rng(77), n=200) for _ in range(2)]
        assert np.array_equal(seqs[0], seqs[1])


def standard_finals(true_pi, horizon, runs, seed):
    """Final sample-mean estimates of the standard scheme, one per run."""
    cfg = ExperimentConfig(
        scheme="standard",
        true_pi=true_pi,
        prior_pi=GaussianBelief(0.0, 0.0009),
        layers=1,
        noise=NoiseModel(),
        runs=runs,
        horizon=horizon,
        master_seed=seed,
    )
    return run_experiment(cfg).estimates[:, -1]


class TestStandardSampling:
    def test_single_sample_is_extreme(self):
        assert standard_finals(0.4, 1, 1, 3)[0] in (-1.0, 1.0)

    def test_variance_at_zero(self):
        # Var of the mean after M samples is (1 - Pi^2)/M = 1/M at Pi = 0.
        m = 400
        var = np.var(standard_finals(0.0, m, 300, 0), ddof=1)
        se = (1 / m) * math.sqrt(2 / 299)
        assert abs(var - 1 / m) < 3 * se

    def test_variance_near_boundary(self):
        m = 400
        pi_star = 0.999
        ref = (1 - pi_star**2) / m
        assert np.var(standard_finals(pi_star, m, 300, 0), ddof=1) < 4 * ref + 1e-9


    def test_spam_noise_leaves_no_bias(self):
        # Outcomes have mean f0 Pi at SPAM fidelity f0.  The estimate divides by f0, so its squared
        # bias is sampling noise, far below the (1 - f0)^2 Pi^2 of the plain sample mean.
        f0, pi, runs = 0.9, 0.3, 16
        cfg = ExperimentConfig(
            scheme="standard",
            true_pi=pi,
            prior_pi=None,
            layers=1,
            noise=NoiseModel(1.0, f0),
            runs=runs,
            horizon=200_000,
            master_seed=1,
        )
        traces = run_experiment(cfg)
        assert traces.bias_sq[-1] < 9 * traces.var_est[-1] / runs
        assert traces.bias_sq[-1] < 0.01 * ((1 - f0) * pi) ** 2

    def test_perceived_variance_is_nan_and_no_run_is_excluded(self):
        # A standard run has the shape of any other: per-run perceived variances (NaN, as it
        # keeps no belief) and an exclusion list, empty.  Two chunks are joined.
        cfg = ExperimentConfig(
            scheme="standard",
            true_pi=0.3,
            prior_pi=None,
            layers=1,
            noise=NoiseModel(0.9, 0.99),
            runs=CHUNK_SIZE + 6,
            horizon=200,
            master_seed=1,
        )
        traces = run_experiment(cfg)
        assert traces.perceived_var.shape == traces.estimates.shape == (cfg.runs, traces.times.size)
        assert np.isnan(traces.perceived_var).all() and np.isnan(traces.mean_perceived_var).all()
        assert traces.excluded_runs == []

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("f0", [0.9, 0.99])
    @pytest.mark.parametrize("pi", [-0.999, -0.3, 0.0, 0.7, 0.999])
    def test_estimates_are_each_runs_own_sample_mean(self, pi, f0, threads):
        # Over two chunks, each run's estimates equal, bit for bit, the running mean of its own
        # +-1 outcomes over f0: +1 where u < (1 + f0 Pi)/2, u from its substream of the master seed.
        cfg = ExperimentConfig("standard", pi, None, 0, NoiseModel(0.95, f0), CHUNK_SIZE + 6, 500, 5, threads=threads)
        traces = run_experiment(cfg)
        for i in range(cfg.runs):
            u = np.random.default_rng(np.random.SeedSequence(cfg.master_seed, spawn_key=(i,))).random(cfg.horizon)
            mean = np.cumsum(np.where(u < (1.0 + f0 * pi) / 2.0, 1.0, -1.0)) / np.arange(1, cfg.horizon + 1)
            assert traces.estimates[i].tobytes() == (mean[traces.times - 1] / f0).tobytes(), i


class TestRunExperiment:
    def test_single_run_single_round(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-elf",
            true_pi=0.1,
            prior_pi=GaussianBelief(0.12, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=1,
            horizon=3,
            master_seed=5,
            table=tiny_table,
        )
        traces = run_experiment(cfg)
        assert traces.times.tolist() == [3]
        assert traces.rmse[0] == pytest.approx(abs(traces.estimates[0, 0] - 0.1))

    def test_determinism_and_thread_independence(self, tiny_table):
        def make(threads):
            cfg = ExperimentConfig(
                scheme="af-elf",
                true_pi=0.05,
                prior_pi=GaussianBelief(0.08, 0.0009),
                layers=1,
                noise=NoiseModel(0.9, 1.0),
                runs=130,  # spans three chunks
                horizon=600,
                master_seed=42,
                table=tiny_table,
                threads=threads,
            )
            return run_experiment(cfg)

        a, b, c = make(1), make(1), make(3)
        assert np.array_equal(a.estimates, b.estimates)
        assert np.array_equal(a.estimates, c.estimates)
        assert a.growth_rate == c.growth_rate

    def test_the_pool_gets_no_more_workers_than_chunks_or_cpus(self, monkeypatch):
        # A forked pool starts every worker at its first submit, so a huge thread count must not fork that
        # many.  A serial stand-in records the pool size; no real process is started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)

        def make(threads):
            prior = GaussianBelief(0.12, 0.0009)
            return ExperimentConfig("af-clf", 0.1, prior, 1, NoiseModel(0.95), 130, 60, 3, threads=threads)

        wide = run_experiment(make(10**6))  # 130 runs are three chunks
        workers = min(3, os.cpu_count() or 1)
        assert sizes == ([] if workers == 1 else [workers])
        serial = run_experiment(make(1))
        for field in dataclasses.fields(TraceSeries):
            a, b = getattr(wide, field.name), getattr(serial, field.name)
            assert np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b, field.name

    def test_standard_scheme_rate(self):
        cfg = ExperimentConfig(
            scheme="standard",
            true_pi=0.0,
            prior_pi=GaussianBelief(0.0, 0.0009),
            layers=1,
            noise=NoiseModel(),
            runs=300,
            horizon=4000,
            master_seed=9,
        )
        traces = run_experiment(cfg)
        # Inverse MSE of the sample mean grows by 1/(1 - Pi^2) = 1 per unit time.
        assert traces.growth_rate == pytest.approx(1.0, rel=0.2)

    def test_inverse_mse_linearity(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-elf",
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=200,
            horizon=3000,
            master_seed=11,
            table=tiny_table,
        )
        traces = run_experiment(cfg)
        mask = traces.times >= 0.25 * cfg.horizon
        t, y = traces.times[mask], traces.inv_mse[mask]
        fit = np.polyfit(t, y, 1)
        resid = y - np.polyval(fit, t)
        r2 = 1 - resid.var() / y.var()
        assert r2 > 0.9

    def test_no_exclusions_in_clean_run(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-clf",
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=50,
            horizon=300,
            master_seed=1,
        )
        assert run_experiment(cfg).excluded_runs == []

    @pytest.mark.parametrize(
        "moment, bad",
        [(1, -1.0), (1, 0.0), (1, np.nan), (1, np.inf), (0, np.nan), (0, np.inf), (0, -np.inf)],
        ids=["variance=-1", "variance=0", "variance=nan", "variance=inf", "mean=nan", "mean=inf", "mean=-inf"],
    )
    def test_invalid_update_excludes_only_its_run(self, monkeypatch, moment, bad):
        # Every value outside the rule (finite mean, 0 < variance < inf), even in
        # the first update only, excludes run 5 for good: its belief stays at the
        # prior, though its later updates are valid.  The other runs are untouched.
        def spoiled(mu, var, r, p, f, d):
            moments = posterior_moments(mu, var, r, p, f, d)
            if not calls:
                moments[moment][5] = bad
            calls.append(1)
            return moments

        calls = []

        posterior_moments = inference._posterior_moments
        cfg = ExperimentConfig(
            scheme="af-clf",
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=10,
            horizon=30,
            master_seed=1,
        )
        clean = run_experiment(cfg)
        monkeypatch.setattr(inference, "_posterior_moments", spoiled)
        traces = run_experiment(cfg)
        assert traces.excluded_runs == [5]
        prior = pi_to_theta(cfg.prior_pi)
        assert np.all(traces.estimates[5] == _cos_moments(np.full(1, prior.mean), np.full(1, prior.variance))[0])
        assert np.all(traces.perceived_var[5] == traces.perceived_var[5, 0])
        others = np.arange(cfg.runs) != 5
        assert np.array_equal(traces.estimates[others], clean.estimates[others])
        assert np.array_equal(traces.perceived_var[others], clean.perceived_var[others])
        assert np.isfinite(traces.rmse).all()

        # Every run spoiled at round k: the rounds stop there, after k updates, and each later
        # checkpoint (every round is one here) keeps the beliefs of round k - 1.  No run is left
        # to aggregate, so the aggregates are NaN, without a warning.
        def spoiled_all(mu, var, r, p, f, d):
            moments = posterior_moments(mu, var, r, p, f, d)
            calls.append(1)
            if len(calls) == k:
                moments[moment][:] = bad
            return moments

        k, calls[:] = 4, []
        monkeypatch.setattr(inference, "_posterior_moments", spoiled_all)
        frozen = run_experiment(cfg)
        assert len(calls) == k and frozen.excluded_runs == list(range(cfg.runs))
        assert frozen.times.tolist() == clean.times.tolist() == list(range(3, 31, 3))
        for got, want in ((frozen.estimates, clean.estimates), (frozen.perceived_var, clean.perceived_var)):
            assert np.array_equal(got[:, : k - 1], want[:, : k - 1])
            assert (got[:, k - 1 :] == want[:, [k - 2]]).all()
        assert np.isnan(frozen.rmse).all() and math.isnan(frozen.growth_rate)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_degenerate_fit_abscissa_aborts(self, seed):
        # True Pi near -1: posterior means reach theta = pi, so a sinusoid-fit
        # abscissa lands on a multiple of pi and the lockstep engine aborts the
        # experiment.  The engine's run arrays are freed from the traceback.
        cfg = ExperimentConfig(
            scheme="af-clf",
            true_pi=-0.995,
            prior_pi=GaussianBelief(-0.9, 0.1**2),
            layers=3,
            noise=NoiseModel(0.95, 0.99),
            runs=64,
            horizon=3000,
            master_seed=seed,
        )
        with pytest.raises(FloatingPointError, match="pi") as info:
            run_experiment(cfg)
        engine = [f for f, _ in traceback.walk_tb(info.value.__traceback__) if f.f_code.co_name == "_run_chunk"]
        assert engine and all(f.f_locals == {} for f in engine)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError, match=re.escape(f"scheme must be one of {EXPERIMENT_SCHEMES}")):
            ExperimentConfig("nope", 0.1, GaussianBelief(0.1, 0.0009), 1, NoiseModel(), runs=1, horizon=10)

    @pytest.mark.parametrize("scheme", EXPERIMENT_SCHEMES)
    def test_only_standard_takes_no_prior(self, scheme):
        # The standard scheme reads no prior; every other scheme names the missing prior_pi.
        kwargs = dict(scheme=scheme, true_pi=0.3, prior_pi=None, layers=1, noise=NoiseModel(), runs=1, horizon=10)
        if scheme == "standard":
            assert run_experiment(ExperimentConfig(**kwargs)).estimates.shape[0] == 1
        else:
            with pytest.raises(ValueError, match="prior_pi"):
                ExperimentConfig(**kwargs, table=None if scheme.endswith("clf") else object())

    def test_standard_scheme_ignores_layers(self):
        # The standard scheme runs no layers, so it takes any count.
        cfg = ExperimentConfig(
            scheme="standard",
            true_pi=0.1,
            prior_pi=GaussianBelief(0.1, 0.0009),
            layers=0,
            noise=NoiseModel(),
            runs=1,
            horizon=10,
        )
        assert run_experiment(cfg).rmse.size > 0

    @pytest.mark.parametrize("layers", ["x", None, 2.5, [1]])
    def test_standard_scheme_refuses_a_layer_count_that_is_no_integer(self, layers):
        with pytest.raises(ValueError, match="^layers must be"):
            ExperimentConfig("standard", 0.1, None, layers, NoiseModel(), runs=1, horizon=10)


class _Subclass(LookupTable):
    """A table type of the user's own, which a config takes as a LookupTable."""


_FITTING_TABLE = _Subclass([TableEntry(0.0, clf_angles(2), 1.0)], {"scheme": "af"})


@pytest.mark.parametrize(
    "change, message",
    [
        ({"layers": 0}, "layers must lie in [1, inf), got 0"),
        ({"horizon": 4}, "horizon must be >= 5"),
        ({"true_pi": 1.0}, "true_pi must lie in (-1, 1), got 1.0"),
        ({"prior_pi": GaussianBelief(1.5, 0.0009)}, "prior_pi mean must lie in [-1, 1], got 1.5"),
        ({"table": None}, "table must be given exactly when the angles come from a table, got None"),
        (
            {"table": LookupTable([TableEntry(0.0, clf_angles(3), 1.0)], {"scheme": "af"})},
            "table holds 6-angle vectors, but layers=2 needs 4",
        ),
        (
            {"table": LookupTable([TableEntry(0.0, clf_angles(2), 1.0)], {"scheme": "ab"})},
            "table was tuned for scheme 'ab', not 'af'",
        ),
    ],
    ids=["layers", "horizon", "true-pi", "prior-mean", "no-table", "table-for-3-layers", "table-for-ab"],
)
def test_both_configs_check_a_problem_alike(change, message):
    # A non-standard ExperimentConfig is checked as the EstimationConfig of its runs: the same
    # message, naming a field that both configs have.  Both take a subclass of LookupTable.
    common = dict(
        layers=2, noise=NoiseModel(), prior_pi=GaussianBelief(0.1, 0.0009), true_pi=0.1, horizon=100,
        table=_FITTING_TABLE,
    )
    EstimationConfig(scheme=Scheme.AF, angle_source="table", **common)
    ExperimentConfig(scheme="af-elf", runs=1, **common)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as estimation:
        EstimationConfig(scheme=Scheme.AF, angle_source="table", **{**common, **change})
    with pytest.raises(ValueError) as experiment:
        ExperimentConfig(scheme="af-elf", runs=1, **{**common, **change})
    assert str(experiment.value) == str(estimation.value)


_PRIOR = GaussianBelief(0.1, 0.0009)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExperimentConfig("af-clf", 0.1, _PRIOR, 2, NoiseModel(), 1, 100, table="not a table"),
        lambda: ExperimentConfig("ab-clf", 0.1, _PRIOR, 2, NoiseModel(), 1, 100, table=_FITTING_TABLE),
        lambda: ExperimentConfig("standard", 0.1, None, 2, NoiseModel(), 1, 100, table=_FITTING_TABLE),
        lambda: EstimationConfig(Scheme.AF, 2, NoiseModel(), _PRIOR, 0.1, 100, angle_source="clf", table=object()),
    ],
    ids=["af-clf-string", "ab-clf-table", "standard-table", "estimation-clf-object"],
)
def test_a_config_whose_runs_read_no_table_refuses_one(make):
    # A table that no run would read is refused, not ignored.
    with pytest.raises(ValueError, match="^table must be"):
        make()


def _outcome(config):
    """The TraceSeries of an experiment, or the FloatingPointError that aborted it."""
    try:
        return run_experiment(config)
    except FloatingPointError as exc:
        return exc


@pytest.mark.parametrize("scheme, layers", [("af", 3), ("ab", 2)])
@pytest.mark.parametrize(
    "true_pi, prior", [(0.3, GaussianBelief(0.32, 0.03**2)), (0.995, GaussianBelief(0.9, 0.2**2))], ids=["0.3", "0.995"]
)
def test_a_user_built_chebyshev_table_runs_as_the_clf_scheme(scheme, layers, true_pi, prior):
    # A table of the Chebyshev angles in one valid entry, between two flagged ones, gives every
    # TraceSeries field of the *-clf scheme over two chunks of runs; its grid point does not matter.
    # The second prior is wide and near Pi = 1, where the AF L=3 experiment meets the edge abort
    # (test_degenerate_fit_abscissa_aborts): there both schemes abort alike.
    flagged = [TableEntry(pi, None, None, DEGENERATE_FLAG) for pi in (-1.0, 1.0)]
    table = LookupTable([flagged[0], TableEntry(0.6, clf_angles(layers), None), flagged[1]], {"scheme": scheme})
    common = dict(
        true_pi=true_pi, prior_pi=prior, layers=layers, noise=NoiseModel(0.95, 0.99),
        runs=70, horizon=60 * (2 * layers + 1), master_seed=2,
    )
    assert common["runs"] > CHUNK_SIZE
    clf = _outcome(ExperimentConfig(f"{scheme}-clf", **common))
    elf = _outcome(ExperimentConfig(f"{scheme}-elf", table=table, **common))
    if isinstance(clf, FloatingPointError):
        assert repr(elf) == repr(clf)
        return
    for field in dataclasses.fields(TraceSeries):
        want, got = (np.asarray(getattr(t, field.name)) for t in (clf, elf))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name


def test_checkpoint_rounds_are_the_distinct_rounded_grid():
    # The sort-and-compare form gives what np.unique of the rounded geometric grid gave.
    for n in range(1, 5001):
        count = max(2, math.ceil(math.log10(n) * CHECKPOINTS_PER_DECADE))
        assert np.array_equal(_checkpoint_rounds(n), np.unique(np.rint(np.geomspace(1, n, count)).astype(int))), n


class TestCheckpointReadout:
    @pytest.mark.parametrize("scheme, source", [("af-clf", "clf"), ("af-elf", "table")])
    def test_estimates_are_cos_moments_of_checkpoint_beliefs(self, scheme, source, tiny_table):
        # A full chunk and a partial one.  The readout of each chunk, done once
        # on all its checkpoints, equals, bit for bit, _cos_moments of the
        # beliefs _lockstep keeps at the checkpoint rounds when it marks every round.
        cfg = ExperimentConfig(
            scheme=scheme,
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.03**2),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=CHUNK_SIZE + 6,
            horizon=300,
            master_seed=4,
            table=tiny_table if source == "table" else None,
        )
        traces = run_experiment(cfg)
        n_rounds = cfg.horizon // 3
        streams = [np.random.SeedSequence(cfg.master_seed, spawn_key=(i,)) for i in range(cfg.runs)]
        uniforms = np.stack([np.random.default_rng(s).random(n_rounds) for s in streams], axis=1)
        prior = pi_to_theta(cfg.prior_pi)
        f = cfg.noise.process_fidelity(1)
        _, mu, var, alive = _lockstep(
            f, np.full(cfg.runs, prior.mean), np.full(cfg.runs, prior.variance),
            _angle_policy(Scheme.AF, f, math.acos(cfg.true_pi), cfg.table or chebyshev_table(1)), uniforms,
            range(1, n_rounds + 1),
        )
        rows = _checkpoint_rounds(n_rounds) - 1
        est, per_var = _cos_moments(mu[rows], var[rows])
        assert len(est) == traces.times.size > 50 and alive.all()
        assert np.array_equal(traces.estimates, np.transpose(est))
        assert np.array_equal(traces.perceived_var, np.transpose(per_var))


class TestDiagnostics:
    # The bias/variance decomposition of the estimator that ``TraceSeries``
    # reports along the time grid.
    def test_degenerate_constant_traces(self):
        # All-zero fidelity freezes the belief: zero variance across runs and
        # squared bias equal to the squared offset of the frozen estimate.
        cfg = ExperimentConfig(
            scheme="af-clf",
            true_pi=0.3,
            prior_pi=GaussianBelief(0.2, 0.0009),
            layers=1,
            noise=NoiseModel(1e-9, 1e-9),
            runs=40,
            horizon=120,
            master_seed=3,
        )
        report = run_experiment(cfg)
        assert np.allclose(report.var_est, 0.0, atol=1e-20)
        assert np.allclose(report.bias_sq, report.bias_sq[0])

    def test_perceived_variance_tracks_estimator_variance(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-elf",
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=300,
            horizon=3000,
            master_seed=21,
            table=tiny_table,
        )
        report = run_experiment(cfg)
        late = report.times >= 1500
        ratio = report.mean_perceived_var[late] / report.var_est[late]
        assert np.all(np.abs(ratio - 1) < 0.5)


# The fit leaves 58-70 of 256 runs beyond 5 perceived sd at a prior sd of 0.3 (73-77% within 3).
_WRONG_MODE = pytest.mark.xfail(
    reason="known defect: the Gaussian belief locks onto the wrong mode when its window spans branches"
)


class TestCalibration:
    """The Gaussian belief's perceived variance against the spread of its estimates (a coverage judge)."""

    @pytest.mark.parametrize("prior_std", [pytest.param(0.3, marks=_WRONG_MODE), 0.1])
    def test_final_estimates_lie_within_their_perceived_sd(self, prior_std):
        # AF L=3 at the Chebyshev angles, true Pi 0, on the benchmark's device, master seeds 0-2.
        # On each seed at most 2 of 256 runs may miss by more than 5 perceived sd, and at least
        # 95% must lie within 3.
        for seed in range(3):
            cfg = ExperimentConfig(
                scheme="af-clf",
                true_pi=0.0,
                prior_pi=GaussianBelief(0.0, prior_std**2),
                layers=3,
                noise=NoiseModel(0.95, 0.99),
                runs=256,
                horizon=3000,
                master_seed=seed,
            )
            report = run_experiment(cfg)
            z = np.abs(report.estimates[:, -1]) / np.sqrt(report.perceived_var[:, -1])
            assert (z > 5.0).sum() <= 2 and (z <= 3.0).mean() >= 0.95, seed
