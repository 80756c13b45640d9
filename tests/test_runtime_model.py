import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from elfkit.metrics import NoiseModel
from elfkit.runtime_model import HardwareParams, hardware_runtime_curve, runtime_bounds
from paper_model import (
    NoiseParams,
    RateDomainError,
    chebyshev_rate_bounds,
    from_noise_model,
    integrate_inverse_variance,
    rbar,
)

E = math.e


class TestNoiseParams:
    def test_rejects_lam_above_one(self):
        with pytest.raises(RateDomainError):
            NoiseParams(1.2)

    def test_from_noise_model_matches_fidelity(self):
        noise = NoiseModel(0.93, 0.97)
        params = from_noise_model(noise)
        for layers in (1, 3, 7):
            m = 2 * layers + 1
            f2 = noise.process_fidelity(layers) ** 2
            assert f2 == pytest.approx(math.exp(-params.lam * m - params.alpha), rel=1e-12)

    def test_alpha_negative_without_spam(self):
        params = from_noise_model(NoiseModel(0.9, 1.0))
        assert params.alpha == pytest.approx(-params.lam)


class TestRbar:
    def test_noiseless_branch(self):
        sigma = 0.01
        value = rbar(sigma, NoiseParams(0.0, 0.0))
        assert value == pytest.approx(math.exp(-0.5) / (math.sqrt(2) * sigma), rel=1e-12)

    def test_shot_noise_branch(self):
        lam = 0.8
        value = rbar(1e-10, NoiseParams(lam, 0.0))
        assert value == pytest.approx(math.exp(-1.0) / lam, rel=1e-6)

    def test_generic_value_between_branches(self):
        # rbar is the maximum over m of m exp(-lam m - m^2 sigma^2 - alpha).
        # Dropping either decay term can only raise that maximum, so rbar lies
        # at or below both limits; it is at least the objective at each
        # limit's own optimal depth, 1/(sqrt(2) sigma) and 1/lam.
        points = [
            (1e-3, 0.01, 0.0),
            (0.5, 0.05, 0.3),
            (1e-4, 0.2, -0.7),
            (0.05, 1e-3, 1.0),
            (1.0, 0.3, 0.0),
        ]
        for lam, sigma, alpha in points:
            value = rbar(sigma, NoiseParams(lam, alpha))

            def neg_log_rate(log_m):
                m = math.exp(log_m)
                return -(log_m - lam * m - (m * sigma) ** 2 - alpha)

            best = minimize_scalar(
                neg_log_rate,
                bounds=(math.log(1e-3), math.log(10.0 / sigma)),
                method="bounded",
                options={"xatol": 1e-12},
            )
            # The maximum is flat in log m: a 1e-8 error in log m changes the
            # objective by ~1e-16 relative, so 1e-12 leaves room for rounding only.
            assert value == pytest.approx(math.exp(-best.fun), rel=1e-12)

            noiseless = math.exp(-alpha - 0.5) / (math.sqrt(2) * sigma)
            shot = math.exp(-alpha - 1.0) / lam
            assert value <= min(noiseless, shot)
            at_limit_depths = max(
                noiseless * math.exp(-lam / (math.sqrt(2) * sigma)),
                shot * math.exp(-((sigma / lam) ** 2)),
            )
            assert value >= at_limit_depths

    def test_alpha_rescales(self):
        base = rbar(0.05, NoiseParams(0.01, 0.0))
        shifted = rbar(0.05, NoiseParams(0.01, 1.0))
        assert shifted == pytest.approx(base / E, rel=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(RateDomainError):
            rbar(0.0, NoiseParams(0.1))

    @pytest.mark.parametrize("sigma", [math.nan, [0.1, math.nan]], ids=["scalar", "in-array"])
    def test_rejects_nan_sigma(self, sigma):
        # The guard reads "not sigma > 0", which NaN fails.
        with pytest.raises(RateDomainError, match="sigma must be positive"):
            rbar(sigma, NoiseParams(0.1))


class TestChebyshevRateBounds:
    def test_fixed_ratio(self):
        lo, hi = chebyshev_rate_bounds(1.0, 0.02, NoiseParams(0.01))
        assert hi / lo == pytest.approx((E / (E - 1)) ** 2, rel=1e-12)
        assert lo < hi

    def test_domain_guard(self):
        with pytest.raises(RateDomainError):
            chebyshev_rate_bounds(0.01, 0.02, NoiseParams(0.01))


class TestInverseVarianceOde:
    def test_heisenberg_window_slope(self):
        curve = integrate_inverse_variance(NoiseParams(1e-4, 0.0), 1.0, 2e7)
        ts = np.geomspace(1e3, 1e7, 80)
        fs = curve.at(ts)
        mask = (fs > 1e4) & (fs < 1e6)
        slope = np.polyfit(np.log(ts[mask]), np.log(fs[mask]), 1)[0]
        assert 1.9 <= slope <= 2.1

    def test_shot_noise_window_slope(self):
        curve = integrate_inverse_variance(NoiseParams(0.5, 0.0), 1.0, 1e5)
        ts = np.geomspace(1e2, 1e5, 80)
        fs = curve.at(ts)
        mask = (fs > 2e3) & (fs < 2e4)
        slope = np.polyfit(np.log(ts[mask]), np.log(fs[mask]), 1)[0]
        assert 0.95 <= slope <= 1.05

    def test_alpha_shift_rescales_time(self):
        a = integrate_inverse_variance(NoiseParams(0.01, 0.0), 1.0, 1e5)
        b = integrate_inverse_variance(NoiseParams(0.01, 1.0), 1.0, E * 1e5)
        target = 1e4
        assert b.time_to(target) == pytest.approx(E * a.time_to(target), rel=1e-5)

    def test_monotone(self):
        curve = integrate_inverse_variance(NoiseParams(0.1, 0.0), 1.0, 1e4)
        assert np.all(np.diff(curve.values) > 0)


class TestRuntimeBounds:
    def test_noiseless_lower_bound(self):
        eps = 1e-3
        lo, _ = runtime_bounds(eps, 0.0, 1.0)
        ref = (E - 1) / 2 * (1 / (math.sqrt(3) * eps) + 2 * math.sqrt(2) / eps)
        assert lo == pytest.approx(ref, rel=1e-12)

    def test_ordering(self):
        for lam in (0.0, 1e-3, 1e-1, 1.0):
            lo, hi = runtime_bounds(1e-4, lam, 0.95)
            assert lo < hi

    def test_high_noise_scaling(self):
        # Both bounds approach lam/eps^2 scaling when lam >> eps.
        lam = 0.5
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6):
            lo, hi = runtime_bounds(eps, lam, 1.0)
            ratios.append((lo / (lam / eps**2), hi / (lam / eps**2)))
        assert ratios[-1][0] == pytest.approx(ratios[-2][0], rel=0.01)
        assert ratios[-1][1] == pytest.approx(ratios[-2][1], rel=0.01)

    def test_ode_time_within_bounds_grid(self):
        for lam in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
            params = NoiseParams(lam, 0.0)
            curve = integrate_inverse_variance(params, 1.0, 5e9, n_points=20)
            for eps in (1e-2, 1e-3):
                t_ode = curve.time_to(1.0 / eps**2)
                lo, hi = runtime_bounds(eps, lam, 1.0)
                assert lo <= t_ode <= hi


class TestHardwareCurve:
    def test_monotone_and_eps_ordering(self):
        hw = HardwareParams(100, 200, 1e-8)
        grid = 1.0 - np.geomspace(1e-2, 1e-7, 40)
        points = hardware_runtime_curve(hw, [1e-3, 1e-4, 1e-5], f2q_grid=grid)
        by_eps: dict = {}
        for p in points:
            if p.valid:
                by_eps.setdefault(p.eps, []).append((p.gate_fidelity, p.t_mid_s))
        for rows in by_eps.values():
            rows.sort()
            assert all(b[1] <= a[1] for a, b in zip(rows, rows[1:]))
        # Pointwise ordering between target errors at fixed fidelity.
        f2qs = sorted({p.gate_fidelity for p in points if p.valid})
        for f2q in f2qs:
            vals = {p.eps: p.t_mid_s for p in points if p.valid and p.gate_fidelity == f2q}
            if len(vals) == 3:
                assert vals[1e-5] > vals[1e-4] > vals[1e-3]

    @pytest.mark.parametrize("eps", [-1.0, math.nan, 0.0, math.inf])
    def test_rejects_bad_eps_where_no_row_is_valid(self, eps):
        # Both rows have a decay exponent above 1, so neither reaches runtime_bounds;
        # each eps is still checked before the first row.
        hw = HardwareParams(100, 200, 1e-8)
        with pytest.raises(ValueError, match=re.escape(f"eps must lie in (0, 2], got {eps}")):
            hardware_runtime_curve(hw, [1e-3, eps], f2q_grid=[1 - 1e-3, 1 - 1e-2], pi=0.0)

    def test_invalid_region_flagged(self):
        hw = HardwareParams(100, 200, 1e-8)
        grid = np.array([0.99, 0.999999])  # first gives lam > 1
        points = hardware_runtime_curve(hw, [1e-3], f2q_grid=grid)
        assert not points[0].valid and math.isnan(points[0].t_mid_s)
        assert points[1].valid

    def test_three_nines_vs_gate_time_tradeoff(self):
        # A 1000x slower gate with three more nines of fidelity gives the same
        # runtime up to e^(lam_base - lam_upgraded).  For eps << lam the
        # lam/eps^2 terms of runtime_bounds dominate and the runtime scales as
        # e^(-lam) lam D t_gate / eps^2, with lam = (nD/2) ln(1/f2q).  The
        # leftover 1/eps terms shift the ratio by about 0.32 eps/lam_upgraded,
        # so eps/lam_upgraded bounds the deviation.  Both points have lam <= 1.
        qubits, depth = 100, 200
        f2q_base, f2q_upgraded = 1 - 1e-5, 1 - 1e-8
        lam_base = 0.5 * qubits * depth * math.log(1 / f2q_base)  # ~0.1
        lam_upgraded = 0.5 * qubits * depth * math.log(1 / f2q_upgraded)  # ~1e-4
        hw_fast = HardwareParams(qubits, depth, 1e-8)
        hw_slow = HardwareParams(qubits, depth, 1e-5)
        for eps in (1e-6, 1e-7):
            base = hardware_runtime_curve(hw_fast, [eps], f2q_grid=np.array([f2q_base]))[0]
            upgraded = hardware_runtime_curve(hw_slow, [eps], f2q_grid=np.array([f2q_upgraded]))[0]
            assert base.valid and upgraded.valid
            assert upgraded.t_mid_s / base.t_mid_s == pytest.approx(
                math.exp(lam_base - lam_upgraded), rel=eps / lam_upgraded
            )

    def test_bounds_bracket_mid(self):
        hw = HardwareParams(50, 100, 1e-8)
        points = hardware_runtime_curve(hw, [1e-3], f2q_grid=np.array([1 - 1e-6]))
        p = points[0]
        assert p.t_lower_s < p.t_mid_s < p.t_upper_s

    def test_mid_of_bounds_near_the_float_limit_is_finite(self):
        # Bounds near 1e298 s: their product overflowed, so the mid curve read inf between them.
        hw = HardwareParams(100, 200, 1e-8, 1e-150)
        p = hardware_runtime_curve(hw, [1e-3], f2q_grid=[1 - 1e-8])[0]
        assert p.valid and 1e297 < p.t_lower_s < p.t_mid_s < p.t_upper_s < math.inf
        assert (p.t_mid_s / p.t_upper_s) ** 2 == pytest.approx(p.t_lower_s / p.t_upper_s, rel=1e-14)

    @pytest.mark.parametrize(
        ("spam", "eps", "gate_time"), [(1e-150, 1e-70, 1e-8), (1e-150, 1e-3, 1e5), (1.0, 1e-5, 1e300)]
    )
    def test_a_bound_beyond_the_floats_names_its_inputs(self, spam, eps, gate_time):
        hw = HardwareParams(100, 200, gate_time, spam)
        message = f"spam {spam}, eps {eps} and depth * gate_time {200 * gate_time} give a runtime bound of inf s"
        with pytest.raises(ValueError, match=re.escape(message)):
            hardware_runtime_curve(hw, [1e-3, eps], f2q_grid=[1 - 1e-8])
