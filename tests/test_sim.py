import io
import math
import traceback

import numpy as np
import pytest
from scipy.stats import chi2

from elfkit.algebra import DegenerateSubspaceError
from elfkit.bias import Scheme, clf_angles
from elfkit.metrics import GaussianBelief, NoiseModel, likelihood
from elfkit.sim import (
    ExperimentConfig,
    diagnostics,
    run_experiment,
    sample_outcome,
    standard_sampling_run,
    write_experiment_csv,
)
from elfkit.tuner import build_lookup_table


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


class TestSampleOutcome:
    def test_depolarized_is_fair(self):
        rng = np.random.default_rng(0)
        x = clf_angles(1)
        draws = [sample_outcome(Scheme.AF, 1.0, 0.0, x, rng) for _ in range(100_000)]
        freq = np.mean(np.array(draws) == 0)
        assert abs(freq - 0.5) <= 0.005

    def test_frequency_matches_likelihood(self):
        rng = np.random.default_rng(1)
        theta_star = 0.5 * np.pi / 3
        x = clf_angles(1)
        p0 = likelihood(Scheme.AF, 0, theta_star, 1.0, x)
        n = 100_000
        draws = np.array([sample_outcome(Scheme.AF, theta_star, 1.0, x, rng) for _ in range(n)])
        k = np.sum(draws == 0)
        se = math.sqrt(n * p0 * (1 - p0))
        assert abs(k - n * p0) < 3 * se

    def test_chi_square_consistency(self):
        rng = np.random.default_rng(2)
        x = clf_angles(2)
        theta_star, f = 1.1, 0.7
        p0 = likelihood(Scheme.AB, 0, theta_star, f, x)
        n = 100_000
        draws = np.array([sample_outcome(Scheme.AB, theta_star, f, x, rng) for _ in range(n)])
        k = np.sum(draws == 0)
        stat = (k - n * p0) ** 2 / (n * p0) + ((n - k) - n * (1 - p0)) ** 2 / (n * (1 - p0))
        assert stat < chi2.ppf(1 - 0.001, df=1)

    def test_deterministic_given_seed(self):
        x = clf_angles(1)
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            seqs.append([sample_outcome(Scheme.AF, 0.8, 0.9, x, rng) for _ in range(200)])
        assert seqs[0] == seqs[1]


class TestStandardSampling:
    def test_single_sample_is_extreme(self):
        rng = np.random.default_rng(3)
        trace = standard_sampling_run(0.4, NoiseModel(), 1, rng)
        assert trace[0] in (-1.0, 1.0)

    def test_variance_at_zero(self):
        # Var of the mean after M samples is (1 - Pi^2)/M = 1/M at Pi = 0.
        m = 400
        finals = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            finals.append(standard_sampling_run(0.0, NoiseModel(), m, rng)[-1])
        var = np.var(finals, ddof=1)
        se = (1 / m) * math.sqrt(2 / 299)
        assert abs(var - 1 / m) < 3 * se

    def test_variance_near_boundary(self):
        m = 400
        pi_star = 0.999
        finals = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            finals.append(standard_sampling_run(pi_star, NoiseModel(), m, rng)[-1])
        ref = (1 - pi_star**2) / m
        assert np.var(finals, ddof=1) < 4 * ref + 1e-9


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
        with pytest.raises(DegenerateSubspaceError, match="pi") as info:
            run_experiment(cfg)
        engine = [f for f, _ in traceback.walk_tb(info.value.__traceback__) if f.f_code.co_name == "_run_chunk"]
        assert engine and all(f.f_locals == {} for f in engine)

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme="nope",
                true_pi=0.1,
                prior_pi=GaussianBelief(0.1, 0.0009),
                layers=1,
                noise=NoiseModel(),
                runs=1,
                horizon=10,
            )

    def test_elf_requires_table(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme="af-elf",
                true_pi=0.1,
                prior_pi=GaussianBelief(0.1, 0.0009),
                layers=1,
                noise=NoiseModel(),
                runs=1,
                horizon=10,
            )


class TestDiagnostics:
    def test_requires_enough_runs(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-clf",
            true_pi=0.05,
            prior_pi=GaussianBelief(0.08, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=10,
            horizon=60,
            master_seed=2,
        )
        with pytest.raises(ValueError):
            diagnostics(run_experiment(cfg))

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
        report = diagnostics(run_experiment(cfg))
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
        report = diagnostics(run_experiment(cfg))
        late = report.times >= 1500
        ratio = report.mean_perceived_var[late] / report.var_est[late]
        assert np.all(np.abs(ratio - 1) < 0.5)


class TestCsvExport:
    def test_columns(self, tiny_table):
        cfg = ExperimentConfig(
            scheme="af-elf",
            true_pi=0.1,
            prior_pi=GaussianBelief(0.12, 0.0009),
            layers=1,
            noise=NoiseModel(0.9, 1.0),
            runs=3,
            horizon=60,
            master_seed=8,
            table=tiny_table,
        )
        buf = io.StringIO()
        write_experiment_csv(run_experiment(cfg), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "time,rmse,inv_mse,bias_sq,var_est,mean_perceived_var"
        assert len(lines) > 2
