"""Analytic model of estimation runtime on noisy hardware.

Noise enters through a per-time-unit decay exponent lam, the SPAM fidelity
and a SPAM exponent alpha via fidelity^2 = exp(-lam*m - alpha) with
m = 2L + 1.  The closed-form runtime bounds versus target error take lam and
the SPAM fidelity; alpha belongs to the rate oracles of the tests.  The
model maps hardware parameters (qubits, depth, two-qubit fidelity, gate
time) to runtime-in-seconds curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check, check_fields, check_type

E = math.e


@dataclass(frozen=True)
class HardwareParams:
    """Device-level inputs of the runtime-in-seconds mapping.

    The runtime curve sweeps the two-qubit gate fidelity f2Q, so the decay
    exponent takes it as an argument.
    """

    qubits: int
    depth: int  # two-qubit gate depth of one circuit layer
    gate_time: float  # seconds per two-qubit gate layer
    spam_fidelity: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self)

    def decay_exponent(self, f2q: float) -> float:
        """lam = (nD/2) ln(1/f2Q); the layer fidelity is f2Q^(nD/2)."""
        return 0.5 * self.qubits * self.depth * math.log(1.0 / f2q)

    @property
    def seconds_per_time_unit(self) -> float:
        """One ansatz application: depth layers of two-qubit gates."""
        return self.depth * self.gate_time


def runtime_bounds(eps_theta: float, lam: float, spam: float) -> tuple[float, float]:
    """Closed-form bounds on the time to reach phase error eps_theta.

    Lower bound pairs the fastest admissible rate with a bias-free estimate;
    the upper bound the slowest rate with bias equal to variance.  For
    eps_theta << lam the lam/eps_theta^2 terms dominate and both bounds scale
    as e^(-lam) lam / eps_theta^2, and the seconds of hardware_runtime_curve
    as e^(-lam) lam D t_gate / eps_theta^2; for eps_theta >~ lam the 1/eps_theta
    terms dominate and the runtime follows the gate time alone.
    """
    for name, value in (("eps_theta", eps_theta), ("lam", lam), ("spam", spam)):
        check(name, value)
    core_shared = math.sqrt((lam / eps_theta**2) ** 2 + (2.0 * math.sqrt(2.0) / eps_theta) ** 2)
    lower = (
        (E - 1.0)
        * math.exp(-lam)
        / (2.0 * spam**2)
        * (lam / eps_theta**2 + 1.0 / (math.sqrt(3.0) * eps_theta) + core_shared)
    )
    upper = (
        E**2
        / (E - 1.0)
        * math.exp(-lam)
        / spam**2
        * (lam / eps_theta**2 + 1.0 / (math.sqrt(2.0) * eps_theta) + core_shared)
    )
    return lower, upper


@dataclass(frozen=True)
class RuntimePoint:
    gate_fidelity: float
    eps: float
    t_lower_s: float
    t_upper_s: float
    t_mid_s: float
    valid: bool


def hardware_runtime_curve(
    hw: HardwareParams,
    eps_list,
    f2q_grid,
    pi: float = 0.0,
) -> list[RuntimePoint]:
    """Estimation runtime in seconds versus two-qubit gate fidelity.

    The phase error uses eps_theta^2 = eps_pi^2 / (1 - pi^2); rows whose
    decay exponent exceeds 1 are flagged invalid instead of silently plotted.
    The mid curve is the geometric mean of the bounds, consistent with a rate
    tracking the geometric mean of the rate envelope.  ``pi``, every eps and
    eps_theta, and the SPAM fidelity are checked before the first row, as
    ``runtime_bounds`` checks them; a bound beyond the float range raises a
    ``ValueError`` naming the SPAM fidelity, eps, depth and gate time.
    """
    check("pi", pi)
    spam = check("spam", check_type("hw", hw, HardwareParams).spam_fidelity)
    scale = hw.seconds_per_time_unit
    eps_thetas = [check("eps_theta", check("eps", eps) / math.sqrt(1.0 - pi * pi)) for eps in eps_list]
    points: list[RuntimePoint] = []
    for f2q in np.asarray(f2q_grid, dtype=float):
        lam = hw.decay_exponent(f2q)
        valid = lam <= 1.0
        for eps, eps_theta in zip(eps_list, eps_thetas):
            if valid:
                lo, hi = runtime_bounds(eps_theta, lam, spam)
                lo_s, hi_s = lo * scale, hi * scale
                if not math.isfinite(hi_s):
                    raise ValueError(f"spam {spam}, eps {eps} and depth * gate_time {scale} give a runtime bound of inf s")
                mid_s = math.sqrt(lo_s) * math.sqrt(hi_s)
            else:
                lo_s = hi_s = mid_s = math.nan
            points.append(RuntimePoint(float(f2q), float(eps), lo_s, hi_s, mid_s, valid))
    return points
