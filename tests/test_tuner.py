import json
import math

import numpy as np
import pytest

from csbd_reconstruction import bias_derivative_slope_in_xj, bias_slope_in_xj
from elfkit import tuner
from elfkit.bias import Scheme, _readout, bias, bias_derivative, bias_series, clf_angles
from elfkit.algebra import canonical_angles
from elfkit.csbd import CoefficientTable, sweep
from elfkit.metrics import NoiseModel, fisher_information
from slope_oracle import analytic_l1_slope_optimum, l1_slope_breakpoints
from table_oracle import nearest_valid_entry
from elfkit.tuner import (
    SCAN_POINTS,
    LookupTable,
    Objective,
    TuneSpec,
    build_lookup_table,
    objective_value,
    tune,
    _climbed,
    _coordinate_step_fisher,
    _value_and_gradient,
    _weights,
    _SCAN_BASIS,
)

class TestAnalyticOracle:
    def test_breakpoints(self):
        mu1, mu2, mu3, mu4 = l1_slope_breakpoints()
        assert mu1 == pytest.approx(0.6957, abs=1e-4)
        assert mu2 == pytest.approx(1.1971, abs=1e-4)
        assert mu3 == pytest.approx(1.9445, abs=1e-4)
        assert mu4 == pytest.approx(2.4459, abs=1e-4)

    def test_first_branch_value(self):
        value, g1, g2 = analytic_l1_slope_optimum(0.3)
        assert value == pytest.approx(3 * math.sin(0.9))
        assert (g1, g2) == (math.pi / 2, math.pi / 2)

    def test_middle_branch_value(self):
        value, g1, g2 = analytic_l1_slope_optimum(math.pi / 2)
        assert value == pytest.approx(3.0)
        assert (g1, g2) == (math.pi / 2, math.pi / 2)

    def test_claimed_optimum_is_attained(self):
        # The returned angles must reproduce the returned slope magnitude.
        for mu in (0.3, 0.9, 1.5, 2.1, 2.8):
            value, g1, g2 = analytic_l1_slope_optimum(mu)
            assert abs(bias_derivative(Scheme.AF, mu, [g1, g2])) == pytest.approx(value, abs=1e-10)

    def test_continuity_at_breakpoints(self):
        for mu in l1_slope_breakpoints():
            below = analytic_l1_slope_optimum(mu - 1e-7)[0]
            above = analytic_l1_slope_optimum(mu + 1e-7)[0]
            assert below == pytest.approx(above, abs=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            analytic_l1_slope_optimum(-0.1)


class TestTune:
    def test_slope_l1_matches_oracle(self):
        for mu in (0.3, 1.0, 1.5, 2.0, 2.8):
            ref = analytic_l1_slope_optimum(mu)[0]
            res = tune(
                TuneSpec(Scheme.AF, 1, mu, objective=Objective.SLOPE, restarts=6, seed=2)
            )
            assert res.objective_value == pytest.approx(ref, abs=1e-6)

    def test_low_fidelity_fisher_matches_slope_angles(self):
        # As f -> 0 the Fisher objective degenerates to f^2 slope^2.
        mu, f = 1.0, 1e-3
        res = tune(TuneSpec(Scheme.AF, 1, mu, f, objective=Objective.FISHER, restarts=8, seed=4))
        ref = f**2 * analytic_l1_slope_optimum(mu)[0] ** 2
        assert res.objective_value == pytest.approx(ref, rel=1e-3)

    def test_beats_random_search_l2(self):
        rng = np.random.default_rng(12)
        mu, f = 1.3, 0.8
        spec = TuneSpec(Scheme.AF, 2, mu, f, restarts=10, seed=7)
        res = tune(spec)
        candidates = rng.uniform(-np.pi, np.pi, (10_000, 4))
        best = max(objective_value(spec, c) for c in candidates)
        assert res.objective_value >= best - 1e-9

    def test_never_below_chebyshev_point(self):
        rng = np.random.default_rng(3)
        layers = 6
        f = NoiseModel(0.9, 1.0).process_fidelity(layers)
        for theta in rng.uniform(0.1, math.pi - 0.1, 5):
            res = tune(TuneSpec(Scheme.AF, layers, theta, f, restarts=2, seed=1, max_rounds=40))
            clf_info = fisher_information(Scheme.AF, theta, f, clf_angles(layers))
            assert res.objective_value >= clf_info - 1e-12

    def test_seed_reproducibility(self):
        spec = TuneSpec(Scheme.AB, 2, 0.9, 0.7, restarts=5, seed=123)
        a, b = tune(spec), tune(spec)
        assert np.array_equal(a.x_opt, b.x_opt)
        assert a.objective_value == b.objective_value
        assert (a.iterations, a.restart_index) == (b.iterations, b.restart_index)

    def test_result_consistent_with_metrics(self):
        spec = TuneSpec(Scheme.AF, 2, 1.1, 0.85, restarts=4, seed=9, max_rounds=100)
        res = tune(spec)
        info = fisher_information(Scheme.AF, 1.1, 0.85, res.x_opt)
        assert res.objective_value == pytest.approx(info, abs=1e-10)

    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("objective", [Objective.FISHER, Objective.SLOPE])
    def test_angles_are_canonical(self, scheme, objective):
        # Tuned angles are stored in (-pi, pi], as ``canonical_angles`` maps them.
        for mu in (0.4, 1.3, 2.6):
            spec = TuneSpec(scheme, 2, mu, 0.9, objective, restarts=3, seed=11, max_rounds=30)
            x = tune(spec).x_opt
            assert np.array_equal(canonical_angles(x), x)

    def test_repeated_start_runs_once(self, monkeypatch):
        # A warm start equal to the Chebyshev start is skipped: one ascent,
        # and the result of the Chebyshev start alone (4.1112 from x_1 = 0).
        spec = TuneSpec(Scheme.AF, 2, 1.3, 0.8, restarts=1, seed=3)
        alone = tune(spec)
        starts = []
        ascent = tuner._coordinate_ascent
        monkeypatch.setattr(tuner, "_coordinate_ascent", lambda s, x0: starts.append(x0) or ascent(s, x0))
        res = tune(spec, warm_starts=(clf_angles(2),))
        assert len(starts) == 1
        assert np.array_equal(res.x_opt, alone.x_opt)
        # One sweep plus one finish step.
        assert (res.objective_value, res.iterations, res.restart_index) == (alone.objective_value, 2, 0)
        assert res.objective_value == pytest.approx(4.111162695131024, rel=1e-12)

    @pytest.mark.parametrize(
        ("layers", "mu", "best"),
        [(3, 2.2, 22.87830109662345), (4, 0.7183, 32.20334833052), (4, math.pi - 0.7183, 32.20334833052)],
    )
    def test_default_starts_reach_the_many_start_maximum(self, layers, mu, best):
        # The 80-start values at the device fidelity 0.99 * 0.95^L.  An ascent
        # that repeats coordinate sweeps before its finish stops the default
        # 10 starts at lower local maxima here, 14.4% and 4.3% short.
        f = NoiseModel(0.95, 0.99).process_fidelity(layers)
        assert tune(TuneSpec(Scheme.AF, layers, mu, f)).objective_value == pytest.approx(best, rel=1e-9)

    def test_rejects_boundary_mu(self):
        with pytest.raises(ValueError):
            TuneSpec(Scheme.AF, 1, 0.0)

    @pytest.mark.parametrize("mu", [math.pi / 8, 7 * math.pi / 8])
    def test_capped_runs_converge(self, mu):
        # Coordinate sweeps alone stop short here, at 18.71 and 18.26 with
        # gradient norms of 2.6 and 4.3; the quasi-Newton finish reaches the
        # maximum.
        spec = TuneSpec(Scheme.AF, 3, mu, 0.83, restarts=3, seed=0, max_rounds=100)
        res = tune(spec)
        assert res.objective_value >= 18.817
        assert np.linalg.norm(_value_and_gradient(spec, res.x_opt)[1]) <= 1e-3

    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("mu", [0.5, 1.3, 2.4])
    @pytest.mark.parametrize("objective", [Objective.FISHER, Objective.SLOPE])
    def test_tuned_point_is_stationary(self, scheme, layers, mu, objective):
        # The scan finds a basin and the quasi-Newton finish polishes it, so
        # the gradient at the result is small against the climbed value.
        spec = TuneSpec(scheme, layers, mu, 0.9, objective, restarts=3)
        res = tune(spec)
        value, grad = _value_and_gradient(spec, res.x_opt)
        assert np.linalg.norm(grad) / value <= 1e-4
        # The ascent compares its swept point by a value read off the sweep's
        # final prefix pair, but reports the objective of the returned angles.
        assert res.objective_value == objective_value(spec, res.x_opt)

    def test_reported_objective_where_the_finish_gains_nothing(self):
        # The Chebyshev start wins after one finish step that leaves its
        # objective unchanged, so the swept point itself is returned.
        f = NoiseModel(0.95, 0.99).process_fidelity(3)
        spec = TuneSpec(Scheme.AF, 3, 3 * math.pi / 8, f, restarts=3)
        res = tune(spec)
        assert (res.iterations, res.restart_index) == (2, 0)
        assert res.x_opt == pytest.approx(clf_angles(3), abs=1e-12)
        assert res.objective_value == objective_value(spec, res.x_opt)


class TestWarmStarts:
    def test_rejects_a_start_of_the_wrong_shape(self, monkeypatch):
        # An L=3 start for an L=1 spec used to be tuned as an L=3 circuit,
        # above the L=1 Bernstein bound 9 f^2.  Nothing is tuned now.
        spec = TuneSpec(Scheme.AF, 1, 1.1, 0.9, restarts=2)
        ascents = []
        ascent = tuner._coordinate_ascent
        monkeypatch.setattr(tuner, "_coordinate_ascent", lambda s, x0: ascents.append(x0) or ascent(s, x0))
        for start, shape in ((np.full(6, 0.3), r"\(6,\)"), (np.full((1, 2), 0.3), r"\(1, 2\)")):
            with pytest.raises(ValueError, match=rf"warm_starts .* = 2 angles, got shape {shape}"):
                tune(spec, warm_starts=(clf_angles(1), start))
        assert ascents == []

    def test_a_start_of_the_right_length_is_tuned(self):
        spec = TuneSpec(Scheme.AF, 1, 1.1, 0.9, restarts=2)
        res = tune(spec, warm_starts=(np.full(2, 0.3),))
        assert np.array_equal(res.x_opt, tune(spec, warm_starts=([0.3, 0.3],)).x_opt)
        assert (res.x_opt.shape, res.iterations, res.restart_index) == ((2,), 8, 1)
        assert res.objective_value == pytest.approx(2.54350725915628, rel=1e-12)
        assert res.objective_value <= 9 * 0.9**2


class TestTuneSpecValidation:
    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_max_rounds_below_one(self, value):
        with pytest.raises(ValueError, match="max_rounds"):
            TuneSpec(Scheme.AF, 1, 1.0, max_rounds=value)

    @pytest.mark.parametrize("value", [0.0, -1e-8, math.nan])
    def test_rejects_nonpositive_tolerance(self, value):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            TuneSpec(Scheme.AF, 1, 1.0, tolerance=value)


class TestCoordinateMonotonicity:
    def test_objective_never_decreases_between_rounds(self):
        # Drive the O(L) sweep with the Fisher step and evaluate the
        # objective after every coordinate update.
        spec = TuneSpec(Scheme.AF, 3, 1.1, 0.73, restarts=1, seed=5, max_rounds=60)
        rng = np.random.default_rng(5)
        x = rng.uniform(-np.pi, np.pi, 6)
        history = [objective_value(spec, x)]

        def choose(j, co):
            if j > 1:
                history.append(objective_value(spec, x))
            return _coordinate_step_fisher(co, spec.fidelity, spec.fidelity, x[j - 1])

        for _ in range(12):
            sweep(spec.scheme, spec.mu, x, choose)
            history.append(objective_value(spec, x))
        assert len(history) == 1 + 12 * 6
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))


class TestFisherStepOracle:
    def test_scan_basis_is_shared_and_read_only(self):
        # One module array serves every step, so no caller may write into it.
        grid = np.linspace(-math.pi, math.pi, SCAN_POINTS, endpoint=False)
        assert _SCAN_BASIS.shape == (3, SCAN_POINTS)
        assert np.array_equal(_SCAN_BASIS, np.vstack([np.cos(grid), np.sin(grid), np.ones(SCAN_POINTS)]))
        with pytest.raises(ValueError, match="read-only"):
            _SCAN_BASIS[0, 0] = 0.0

    def test_reaches_scan_grid_maximum(self):
        # Random one-coordinate subproblems: the step must reach the
        # brute-force maximum over the scan grid, never return an angle worse
        # than the current one, and keep the current angle when no grid point
        # beats it.  The climbed value is (g N)^2 / (1 - (f M)^2): the Fisher
        # information for the weights (g, f) = (f, f), the squared slope for (1, 0).
        rng = np.random.default_rng(2006)
        h = 2.0 * math.pi / SCAN_POINTS
        grid = [i * h - math.pi for i in range(SCAN_POINTS)]
        kept = 0
        for _ in range(2000):
            scheme = (Scheme.AF, Scheme.AB)[rng.integers(2)]
            layers = int(rng.integers(1, 4))
            theta, fidelity = rng.uniform(0.05, math.pi - 0.05), rng.uniform(0.5, 1.0)
            x = rng.uniform(-math.pi, math.pi, 2 * layers)
            j = int(rng.integers(1, 2 * layers + 1))
            co = CoefficientTable(scheme, theta, x).coefficients(j)
            k = co.angle_scale
            for g, f in ((fidelity, fidelity), (1.0, 0.0)):

                def climbed(a):
                    ca, sa = math.cos(a), math.sin(a)
                    den = 1.0 - (f * (co.c * ca + co.s * sa + co.b)) ** 2
                    if den < 1e-14:
                        return -math.inf
                    return (g * (co.c_prime * ca + co.s_prime * sa + co.b_prime)) ** 2 / den

                grid_max, a_grid = max((climbed(a), a) for a in grid)
                # The best point of a finer scan around the best grid point
                # (that point included) is no worse than any grid point, so
                # the step must keep it.
                _, a_fine = max((climbed(a), a) for a in [a_grid, *(a_grid + h * np.linspace(-1.0, 1.0, 33))])
                # From a random angle, and from the finer scan's best point.
                for current in (x[j - 1], a_fine / k):
                    step = _coordinate_step_fisher(co, g, f, current)
                    if climbed(k * current) >= grid_max:
                        assert step == current
                        kept += 1
                    else:
                        assert climbed(k * step) >= grid_max - 1e-12 * abs(grid_max)
                        assert climbed(k * step) >= climbed(k * current)
        assert kept >= 2 * 2000


def _table_gradient(spec, x):
    """Climbed value and gradient from a CoefficientTable's per-coordinate slopes.

    The tuner's gradient before the fused pass, kept as a reference: each
    coordinate's bias and d(bias)/dtheta slopes come from its CSBD sinusoids.
    """
    table = CoefficientTable(spec.scheme, spec.mu, x)
    delta, ddelta = bias(spec.scheme, spec.mu, x), bias_derivative(spec.scheme, spec.mu, x)
    chi = np.array([bias_slope_in_xj(table.coefficients(j), x[j - 1]) for j in range(1, x.size + 1)])
    chi_p = np.array([bias_derivative_slope_in_xj(table.coefficients(j), x[j - 1]) for j in range(1, x.size + 1)])
    if spec.objective is Objective.SLOPE:
        return ddelta**2, 2.0 * ddelta * chi_p
    f2 = spec.fidelity**2
    den = 1.0 - f2 * delta**2
    return f2 * ddelta**2 / den, 2.0 * f2 * (den * ddelta * chi_p + f2 * delta * chi * ddelta**2) / den**2


def _climbed_at(spec, x):
    """The value the finish climbs, from ``objective_value``: F, or the squared slope."""
    value = objective_value(spec, x)
    return value**2 if spec.objective is Objective.SLOPE else value


class TestGradientCorrectness:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_fisher_gradient_matches_finite_difference(self, scheme):
        rng = np.random.default_rng(6)
        spec = TuneSpec(scheme, 2, 1.2, 0.8, objective=Objective.FISHER)
        x = rng.uniform(-np.pi, np.pi, 4)
        grad = _value_and_gradient(spec, x)[1]
        h = 1e-6
        for j in range(4):
            up, down = x.copy(), x.copy()
            up[j] += h
            down[j] -= h
            fd = (objective_value(spec, up) - objective_value(spec, down)) / (2 * h)
            assert grad[j] == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("objective", [Objective.FISHER, Objective.SLOPE])
    @pytest.mark.parametrize("layers", [1, 2, 3, 8])
    def test_fused_pass_matches_table_gradient(self, scheme, objective, layers):
        # Against the CoefficientTable gradient and a Richardson-extrapolated
        # five-point central difference (truncation O(h^6)), in units of
        # max(1, value).
        rng = np.random.default_rng(layers)
        h = 5e-4
        for _ in range(5):
            spec = TuneSpec(scheme, layers, rng.uniform(0.1, 3.0), rng.uniform(0.5, 0.9), objective)
            x = rng.uniform(-np.pi, np.pi, 2 * layers)
            value, grad = _value_and_gradient(spec, x)
            ref_value, ref_grad = _table_gradient(spec, x)
            scale = max(1.0, abs(value))
            assert abs(value - ref_value) <= 1e-10 * scale
            assert abs(value - _climbed_at(spec, x)) <= 1e-10 * scale
            assert np.max(np.abs(grad - ref_grad)) <= 1e-10 * scale
            for j, e in enumerate(np.eye(x.size)):

                def central(step):
                    at = [_climbed_at(spec, x + m * step * e) for m in (-2, -1, 1, 2)]
                    return (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * step)

                fd = (16.0 * central(h / 2.0) - central(h)) / 15.0
                assert abs(grad[j] - fd) <= 1e-10 * scale

    def test_singular_point_has_no_gradient(self):
        # All angles zero make Q = I, so the AB bias is 1 and with f = 1 the
        # Fisher information diverges.
        spec = TuneSpec(Scheme.AB, 1, 1.0, 1.0)
        x = np.array([0.0, 0.0])
        assert _value_and_gradient(spec, x) == (-math.inf, None)


class TestSweepObjective:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("objective", [Objective.FISHER, Objective.SLOPE])
    def test_matches_objective_value(self, scheme, objective):
        # The ascent reads each round's objective off the sweep's final
        # prefix pair in place of two more kernel passes.
        rng = np.random.default_rng(17)
        for layers in (1, 2, 3, 8):
            spec = TuneSpec(scheme, layers, rng.uniform(0.1, 3.0), rng.uniform(0.5, 1.0), objective)
            ct, st = math.cos(spec.mu), math.sin(spec.mu)
            x = rng.uniform(-np.pi, np.pi, 2 * layers)
            g, f, report = _weights(spec)
            for _ in range(3):
                pair = sweep(spec.scheme, spec.mu, x, lambda j, co: rng.uniform(-np.pi, np.pi))
                got = report(_climbed(g, f, *_readout(spec.scheme, ct, st, *pair)))
                assert got == pytest.approx(objective_value(spec, x), rel=1e-12)


class TestLookupTable:
    @pytest.fixture(scope="class")
    def small_table(self):
        grid = np.round(np.arange(0.55, 0.6501, 0.0005), 10)
        return build_lookup_table(
            Scheme.AF,
            1,
            NoiseModel(0.9, 1.0),
            grid,
            restarts=2,
            seed=42,
            max_rounds=40,
        )

    def test_nearest_lookup(self, small_table):
        entry = nearest_valid_entry(small_table, 0.6002)
        assert entry.pi == pytest.approx(0.6)
        midpoints, series = small_table.series(Scheme.AF)
        column = series[:, midpoints.searchsorted(0.6002, side="right")]
        assert np.array_equal(column, bias_series(Scheme.AF, entry.angles))

    def test_batch_matches_scalar(self, small_table):
        # The last query sits exactly on the midpoint of two valid entries,
        # which resolves to the right one.
        left, right = small_table.entries[40], small_table.entries[41]
        midpoint = (left.pi + right.pi) / 2.0
        assert left.flag is None and nearest_valid_entry(small_table, midpoint) is right
        queries = np.array([0.57, 0.6002, 0.649, midpoint])
        midpoints, series = small_table.series(Scheme.AF)
        columns = series[:, midpoints.searchsorted(queries, side="right")]
        assert columns.shape == (4, queries.size)
        for q, c in zip(queries, columns.T):
            assert np.array_equal(c, bias_series(Scheme.AF, nearest_valid_entry(small_table, q).angles))

    def test_endpoints_flagged(self):
        table = build_lookup_table(
            Scheme.AF, 1, NoiseModel(), [-1.0, 0.0, 1.0], restarts=1, seed=0, max_rounds=20
        )
        flags = [e.flag for e in table.entries]
        assert flags[0] is not None and flags[2] is not None and flags[1] is None
        # Lookups fall back to the nearest valid entry.
        entry = nearest_valid_entry(table, 0.999)
        assert entry.pi == 0.0
        midpoints, series = table.series(Scheme.AF)
        column = series[:, midpoints.searchsorted(0.999, side="right")]
        assert np.array_equal(column, bias_series(Scheme.AF, entry.angles))

    def test_json_round_trip(self, small_table, tmp_path):
        path = tmp_path / "table.json"
        small_table.save(path)
        doc = json.loads(path.read_text())
        assert doc["version"] == "elf-table/1"
        loaded = LookupTable.load(path)
        assert np.allclose([e.pi for e in loaded.entries], [e.pi for e in small_table.entries])
        q = 0.62
        assert np.allclose(nearest_valid_entry(loaded, q).angles, nearest_valid_entry(small_table, q).angles)

    def test_version_check(self):
        with pytest.raises(ValueError):
            LookupTable.from_json_dict({"version": "other", "entries": []})

    def test_angles_are_canonical(self, small_table):
        for e in small_table.entries:
            assert np.array_equal(canonical_angles(e.angles), e.angles)

    def test_grid_validation(self, monkeypatch):
        # The layer count and the grid rules of LookupTable are checked before any tuning.
        monkeypatch.setattr(tuner, "tune", lambda *a, **k: pytest.fail("tuned a point"))
        cases = [
            (1, [0.2, 0.1], "strictly increasing"),
            (1, [-2.0, 0.0, 0.5], r"within \[-1, 1\]"),
            (1, [-0.5, 0.0, 1.5], r"within \[-1, 1\]"),
            (0, [0.1, 0.2], "layers must be >= 1"),
            (-1, 5, "layers must be >= 1"),
        ]
        for layers, grid, message in cases:
            with pytest.raises(ValueError, match=message):
                build_lookup_table(Scheme.AF, layers, NoiseModel(), grid, restarts=1, seed=0)


class TestBernsteinBound:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("restarts", [1, 10])
    def test_noiseless_table_at_chebyshev_nodes_stays_below_bound(self, scheme, layers, restarts):
        # The bias is a trigonometric polynomial in theta of degree n = 2L + 1
        # (AF) or L (AB) bounded by 1, so Bernstein-Szego gives
        # bias'^2 <= n^2 (1 - bias^2): the noiseless Fisher information is at
        # most n^2.  At a Chebyshev node cos(j pi / n) the Chebyshev start has
        # 1 - bias^2 = 0, and a value climbed from there must not be rounding noise.
        n = 2 * layers + 1 if scheme is Scheme.AF else layers
        nodes = {math.cos(j * math.pi / n) for j in range(n + 1)}
        grid = np.array(sorted(nodes | set(np.linspace(-1.0, 1.0, 9).tolist())))
        table = build_lookup_table(scheme, layers, NoiseModel(), grid, restarts=restarts, seed=0)
        interior = [e for e in table.entries if abs(e.pi) < 1.0]
        assert len(interior) >= n - 1
        for e in interior:
            assert e.flag is None
            assert math.isfinite(e.objective)
            assert e.objective <= n**2 * (1.0 + 1e-9), e.pi


class TestMirrorSymmetry:
    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_mirrored_angles_mirror_the_fisher_information(self, scheme, layers):
        # F(pi - theta; x') = F(theta; x), x' = x with x_2, x_4, ... negated;
        # scored by metrics.fisher_information, independently of the tuner.
        rng = np.random.default_rng(layers)
        for _ in range(10):
            theta, f = rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.5, 1.0)
            x = rng.uniform(-np.pi, np.pi, 2 * layers)
            mirrored = x.copy()
            mirrored[1::2] *= -1.0
            expected = fisher_information(scheme, theta, f, x)
            assert fisher_information(scheme, np.pi - theta, f, mirrored) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("scheme", [Scheme.AF, Scheme.AB])
    def test_symmetric_grid_gives_symmetric_objectives(self, scheme):
        noise = NoiseModel(0.95, 0.99)
        grid = np.linspace(-0.875, 0.875, 15)
        table = build_lookup_table(scheme, 2, noise, grid, restarts=2, seed=2020, max_rounds=50)
        f = noise.process_fidelity(2)
        objectives = [e.objective for e in table.entries]
        for e, partner in zip(table.entries, reversed(objectives)):
            assert e.objective == pytest.approx(partner, rel=1e-12)
            assert e.objective == pytest.approx(fisher_information(scheme, math.acos(e.pi), f, e.angles), rel=1e-9)
            assert np.array_equal(canonical_angles(e.angles), e.angles)
