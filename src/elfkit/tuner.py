"""Circuit-parameter tuning by Fisher-information or slope maximization.

Four ascent variants per scheme: {gradient, coordinate} x {Fisher, slope},
all driven by the CSBD coefficients; coordinate ascent makes one O(L)
``csbd.sweep`` per round.  The slope objective has a closed-form coordinate
update.  The Fisher one is solved in the sinusoid's argument a = k x_j: a
uniform scan of [-pi, pi) (robust to multimodality), then Newton steps on
d/da log F within one grid step of the best scan point.  A step keeps the
current angle unless the scan or Newton point beats it.

A multi-start driver wraps every variant.  The first start is always the
Chebyshev point (pi/2, ..., pi/2), so a tuned objective is never worse than
the untuned one; the remaining starts are seeded-uniform random draws, plus
optional warm starts used by the lookup-table builder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .algebra import DEGENERATE_TOL, DegenerateSubspaceError, canonical_angles
from .bias import Scheme, bias, bias_derivative, clf_angles
from .csbd import CoefficientTable, CsbdCoefficients, sweep
from .metrics import SINGULAR_TOL, NoiseModel

TABLE_FORMAT_VERSION = "elf-table/1"
DEGENERATE_FLAG = "degenerate_theta"


class Objective(Enum):
    FISHER = "fisher"
    SLOPE = "slope"


class Method(Enum):
    GRADIENT = "grad"
    COORDINATE = "coord"


@dataclass(frozen=True)
class TuneSpec:
    """Inputs of one tuning problem.

    ``step_size``/``step_decay`` parameterize the gradient schedule
    delta(t) = step_size / (1 + t/step_decay); coordinate ascent ignores them.
    ``scan_points`` and ``refine_iters`` are the coordinate Fisher step's scan
    grid size and its cap on Newton iterations; gradient ascent ignores them.
    """

    scheme: Scheme
    layers: int
    mu: float
    fidelity: float = 1.0
    objective: Objective = Objective.FISHER
    method: Method = Method.COORDINATE
    restarts: int = 10
    seed: int = 0
    tolerance: float = 1e-8
    step_size: float = 0.1
    step_decay: float = 50.0
    max_rounds: int = 500
    scan_points: int = 64
    refine_iters: int = 30

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if not 0.0 < self.mu < math.pi:
            raise ValueError("mu must lie in (0, pi)")
        if abs(math.sin(self.mu)) < DEGENERATE_TOL:
            raise DegenerateSubspaceError(f"mu={self.mu!r} is within {DEGENERATE_TOL} of a multiple of pi")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity must be in [0, 1]")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class TuneResult:
    x_opt: np.ndarray
    objective_value: float
    iterations: int
    restart_index: int


def objective_value(spec: TuneSpec, x) -> float:
    """Objective evaluated from the bias: Fisher information or |d(bias)/dtheta|."""
    if spec.objective is Objective.SLOPE:
        return abs(bias_derivative(spec.scheme, spec.mu, x))
    delta = bias(spec.scheme, spec.mu, x)
    ddelta = bias_derivative(spec.scheme, spec.mu, x)
    denom = 1.0 - (spec.fidelity * delta) ** 2
    if denom < SINGULAR_TOL:
        return -math.inf
    return (spec.fidelity * ddelta) ** 2 / denom


@lru_cache(maxsize=8)
def _scan_basis(points: int) -> np.ndarray:
    """Rows cos a, sin a, 1 on the scan grid a_i = -pi + i h, h = 2 pi / points, of a = k x_j."""
    a = np.linspace(-math.pi, math.pi, points, endpoint=False)
    basis = np.vstack([np.cos(a), np.sin(a), np.ones(points)])
    basis.setflags(write=False)  # one array serves every caller
    return basis


def _fisher_1d(co: CsbdCoefficients, f: float, a: float) -> float:
    """Fisher information as a function of the sinusoid argument a = k x_j."""
    ca, sa = math.cos(a), math.sin(a)
    num = co.c_prime * ca + co.s_prime * sa + co.b_prime
    den = 1.0 - (f * (co.c * ca + co.s * sa + co.b)) ** 2
    return -math.inf if den < SINGULAR_TOL else (f * num) ** 2 / den


def _newton_log_fisher(co: CsbdCoefficients, f: float, a: float, lo: float, hi: float, iters: int) -> float:
    """Newton ascent of log F = log (f N)^2 - log(1 - f^2 M^2) from a, kept in [lo, hi].

    N and M are the derivative and bias sinusoids, so N'' = b' - N and M'' = b - M.
    """
    f2 = f * f
    for _ in range(iters):
        ca, sa = math.cos(a), math.sin(a)
        n = co.c_prime * ca + co.s_prime * sa + co.b_prime
        dn = co.s_prime * ca - co.c_prime * sa
        m = co.c * ca + co.s * sa + co.b
        dm = co.s * ca - co.c * sa
        den = 1.0 - f2 * m * m
        if n == 0.0 or den < SINGULAR_TOL:
            break
        r = f2 * m * dm / den
        grad = 2.0 * dn / n + 2.0 * r
        curv = 2.0 * (n * (co.b_prime - n) - dn * dn) / (n * n)
        curv += 2.0 * f2 * (dm * dm + m * (co.b - m)) / den + 4.0 * r * r
        if curv >= 0.0:
            break
        step = min(max(a - grad / curv, lo), hi) - a
        a += step
        if abs(step) < 1e-15:
            break
    return a


def _coordinate_step_fisher(co: CsbdCoefficients, f: float, current: float, spec: TuneSpec) -> float:
    # F / f^2 on the grid: the derivative and f-scaled bias sinusoids in one product.
    coefficients = np.array(((co.c_prime, co.s_prime, co.b_prime), (f * co.c, f * co.s, f * co.b)))
    num, fbias = coefficients @ _scan_basis(spec.scan_points)
    den = 1.0 - fbias * fbias
    values = num * num / np.maximum(den, SINGULAR_TOL)
    values[den < SINGULAR_TOL] = -np.inf
    h = 2.0 * math.pi / spec.scan_points
    a0 = int(values.argmax()) * h - math.pi
    best_a, best = a0, _fisher_1d(co, f, a0)
    a = _newton_log_fisher(co, f, a0, a0 - h, a0 + h, spec.refine_iters)
    if (value := _fisher_1d(co, f, a)) > best:
        best_a, best = a, value
    k = co.angle_scale
    if _fisher_1d(co, f, k * current) >= best:
        return current
    return best_a / k


def _coordinate_step_slope(co: CsbdCoefficients, current: float) -> float:
    # Closed-form maximizer of |c' cos(k z) + s' sin(k z) + b'|: align the
    # sinusoid peak with the sign of the constant term.
    sgn = 1.0 if co.b_prime >= 0.0 else -1.0
    z = math.atan2(sgn * co.s_prime, sgn * co.c_prime) / co.angle_scale
    if abs(co.bias_derivative_at(current)) >= abs(co.bias_derivative_at(z)):
        return current
    return z


def _coordinate_ascent(spec: TuneSpec, x0: np.ndarray) -> tuple[np.ndarray, float, int]:
    x = canonical_angles(x0).copy()
    prev = objective_value(spec, x)
    best_x, best_val = x.copy(), prev
    iters = 0

    def choose(j: int, co: CsbdCoefficients) -> float:
        if spec.objective is Objective.SLOPE:
            z = _coordinate_step_slope(co, x[j - 1])
        else:
            z = _coordinate_step_fisher(co, spec.fidelity, x[j - 1], spec)
        # Into (-pi, pi], bit for bit as ``canonical_angles``.
        return math.pi - (math.pi - z) % (2.0 * math.pi)

    for t in range(1, spec.max_rounds + 1):
        sweep(spec.scheme, spec.mu, x, choose)
        val = objective_value(spec, x)
        iters = t
        if val > best_val:
            best_x, best_val = x.copy(), val
        if abs(val - prev) < spec.tolerance:
            break
        prev = val
    return best_x, best_val, iters


def _gradient(spec: TuneSpec, table: CoefficientTable, x: np.ndarray) -> np.ndarray | None:
    f = spec.fidelity
    delta = bias(spec.scheme, spec.mu, x)
    ddelta = bias_derivative(spec.scheme, spec.mu, x)
    grad = np.empty_like(x)
    if spec.objective is Objective.FISHER:
        den = 1.0 - (f * delta) ** 2
        if den < SINGULAR_TOL:
            return None
        for j in range(1, x.size + 1):
            co = table.coefficients(j)
            chi = co.bias_slope_in_xj(x[j - 1])
            chi_p = co.bias_derivative_slope_in_xj(x[j - 1])
            grad[j - 1] = (
                2.0 * f**2 * (den * ddelta * chi_p + f**2 * delta * chi * ddelta**2) / den**2
            )
    else:
        for j in range(1, x.size + 1):
            co = table.coefficients(j)
            grad[j - 1] = 2.0 * ddelta * co.bias_derivative_slope_in_xj(x[j - 1])
    return grad


def _gradient_ascent(spec: TuneSpec, x0: np.ndarray) -> tuple[np.ndarray, float, int]:
    x = canonical_angles(x0).copy()
    prev = objective_value(spec, x)
    best_x, best_val = x.copy(), prev
    iters = 0
    for t in range(spec.max_rounds):
        table = CoefficientTable(spec.scheme, spec.mu, x)
        grad = _gradient(spec, table, x)
        if grad is None:
            break
        delta_t = spec.step_size / (1.0 + t / spec.step_decay)
        x = canonical_angles(x + delta_t * grad)
        val = objective_value(spec, x)
        iters = t + 1
        if val > best_val:
            best_x, best_val = x.copy(), val
        if abs(val - prev) < spec.tolerance:
            break
        prev = val
    return best_x, best_val, iters


def tune(spec: TuneSpec, warm_starts: tuple = ()) -> TuneResult:
    """Best ascent result across restarts (ties break to the lowest index).

    Start 0 is the Chebyshev point, starts 1..k the provided warm starts and
    the remainder seeded-uniform draws from (-pi, pi]^(2L); the total number
    of starts is max(restarts, 1 + len(warm_starts)).
    """
    rng = np.random.default_rng(spec.seed)
    starts: list[np.ndarray] = [clf_angles(spec.layers)]
    starts.extend(canonical_angles(w) for w in warm_starts)
    n_random = max(spec.restarts - len(starts), 0)
    dim = 2 * spec.layers
    starts.extend(rng.uniform(-math.pi, math.pi, dim) for _ in range(n_random))

    ascend = _coordinate_ascent if spec.method is Method.COORDINATE else _gradient_ascent
    best: TuneResult | None = None
    for idx, x0 in enumerate(starts):
        x_opt, val, iters = ascend(spec, x0)
        if best is None or val > best.objective_value:
            best = TuneResult(x_opt, val, iters, idx)
    assert best is not None
    return best


# -- analytic optimum of the single-layer slope ------------------------------


def _real_roots_sorted(coeffs: list[float]) -> np.ndarray:
    roots = np.roots(coeffs)
    real = np.sort(roots[np.abs(roots.imag) < 1e-9].real)
    return real


@lru_cache(maxsize=1)
def l1_slope_breakpoints() -> tuple[float, float, float, float]:
    """The four boundaries of the piecewise single-layer slope optimum.

    The outer two are arctan expressions; the inner two come from the third
    smallest real roots of a pair of degree-8 palindromic polynomials.
    """
    mu1 = 2.0 * math.atan(math.sqrt((4.0 - math.sqrt(13.0)) / 3.0))
    mu4 = 2.0 * math.atan(math.sqrt(4.0 + math.sqrt(13.0)))
    p2 = [1.0, 72.0, -1540.0, 8568.0, -16506.0, 8568.0, -1540.0, 72.0, 1.0]
    p3 = [9.0, -264.0, 2492.0, -9016.0, 13302.0, -9016.0, 2492.0, -264.0, 9.0]
    # np.roots expects the highest-degree coefficient first; both lists are
    # palindromic so the order is immaterial, kept explicit for clarity.
    r2 = _real_roots_sorted(p2)
    r3 = _real_roots_sorted(p3)
    mu2 = 4.0 * math.atan(math.sqrt(r2[2]))
    mu3 = 4.0 * math.atan(math.sqrt(r3[2]))
    return mu1, mu2, mu3, mu4


def analytic_l1_slope_optimum(mu: float) -> tuple[float, float, float]:
    """Exact max of |d(bias)/dtheta| over both angles for L=1 (ancilla-free).

    Returns the maximum slope magnitude and one pair of angles attaining it.
    Used as an independent oracle for the numerical tuner.
    """
    if not 0.0 <= mu <= math.pi:
        raise ValueError("mu must lie in [0, pi]")
    mu1, mu2, mu3, mu4 = l1_slope_breakpoints()
    half = mu / 2.0
    if mu <= mu1 or mu >= mu4:
        return 3.0 * math.sin(3.0 * mu), math.pi / 2.0, math.pi / 2.0
    if mu2 <= mu <= mu3:
        return -3.0 * math.sin(3.0 * mu), math.pi / 2.0, math.pi / 2.0
    if mu < mu2:
        value = 4.0 * math.cos(half) ** 4 / math.tan(half) / (1.0 + 3.0 * math.cos(mu))
        arg = math.sqrt(1.0 - 3.0 * math.cos(mu) + 1.0 / math.cos(mu))
        gamma = math.atan(1.0 / arg)
        return value, -gamma, gamma
    value = 4.0 * math.sin(half) ** 4 * math.tan(half) / (1.0 - 3.0 * math.cos(mu))
    arg = math.sqrt(1.0 + 3.0 * math.cos(mu) - 1.0 / math.cos(mu))
    gamma = math.atan(1.0 / arg)
    return value, gamma, gamma


# -- lookup tables ------------------------------------------------------------


@dataclass
class TableEntry:
    pi: float
    angles: np.ndarray | None
    objective: float | None
    flag: str | None = None


class LookupTable:
    """Tuned angle vectors on a grid of estimand values in [-1, 1]."""

    def __init__(self, grid: np.ndarray, entries: list[TableEntry], metadata: dict) -> None:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size != len(entries):
            raise ValueError("grid and entries must align")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < -1.0 or grid[-1] > 1.0:
            raise ValueError("grid must lie within [-1, 1]")
        self.grid = grid
        self.entries = entries
        self.metadata = dict(metadata)
        valid = [e for e in entries if e.flag is None]
        if not valid:
            raise ValueError("lookup table has no valid entries")
        self._valid_grid = np.array([e.pi for e in valid])
        self._valid_angles = np.vstack([e.angles for e in valid])
        self._valid_entries = valid

    def lookup(self, pi: float) -> TableEntry:
        """Entry at the valid grid point closest to the query value."""
        return self._valid_entries[self._nearest_index(np.asarray([pi]))[0]]

    def angles_for(self, pi: float) -> np.ndarray:
        return self.lookup(pi).angles

    def _nearest_index(self, pis: np.ndarray) -> np.ndarray:
        g = self._valid_grid
        idx = np.searchsorted(g, pis)
        idx = np.clip(idx, 1, g.size - 1)
        left = g[idx - 1]
        right = g[idx]
        idx -= (pis - left) < (right - pis)
        return np.clip(idx, 0, g.size - 1)

    def batch_angles(self, pis: np.ndarray) -> np.ndarray:
        """Nearest-grid-point angle vectors for an array of query values."""
        return self._valid_angles[self._nearest_index(np.asarray(pis, dtype=float))]

    def to_json_dict(self) -> dict:
        return {
            "version": TABLE_FORMAT_VERSION,
            "metadata": self.metadata,
            "entries": [
                {
                    "pi": e.pi,
                    "angles": None if e.angles is None else [float(v) for v in e.angles],
                    "objective": e.objective,
                    **({"flag": e.flag} if e.flag is not None else {}),
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LookupTable":
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise ValueError(f"unsupported table version {doc.get('version')!r}")
        entries = [
            TableEntry(
                pi=float(e["pi"]),
                angles=None if e.get("angles") is None else np.asarray(e["angles"], dtype=float),
                objective=e.get("objective"),
                flag=e.get("flag"),
            )
            for e in doc["entries"]
        ]
        grid = np.array([e.pi for e in entries])
        return cls(grid, entries, doc.get("metadata", {}))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LookupTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def build_lookup_table(
    scheme: Scheme,
    layers: int,
    noise: NoiseModel,
    grid_spec=4001,
    restarts: int = 10,
    seed: int = 0,
    objective: Objective = Objective.FISHER,
    progress=None,
    **tune_overrides,
) -> LookupTable:
    """Tune one angle vector per grid point, warm-starting from the neighbor.

    ``grid_spec`` is either a point count for a uniform grid over [-1, 1] or
    an explicit increasing sequence of estimand values.  Grid points at +-1
    are emitted flagged (the estimand angle would be degenerate); tuning
    failures at interior points are likewise flagged rather than dropped.
    """
    if isinstance(grid_spec, (int, np.integer)):
        if grid_spec < 2:
            raise ValueError("grid must have at least 2 points")
        grid = np.linspace(-1.0, 1.0, int(grid_spec))
    else:
        grid = np.asarray(grid_spec, dtype=float)
    point_seeds = np.random.SeedSequence(seed).generate_state(grid.size, dtype=np.uint64)
    f = noise.process_fidelity(layers)
    entries: list[TableEntry] = []
    prev_x: np.ndarray | None = None
    for i, pi in enumerate(grid):
        if abs(pi) >= 1.0:
            entries.append(TableEntry(float(pi), None, None, DEGENERATE_FLAG))
        else:
            spec = TuneSpec(
                scheme=scheme,
                layers=layers,
                mu=math.acos(pi),
                fidelity=f,
                objective=objective,
                restarts=restarts,
                seed=int(point_seeds[i]),
                **tune_overrides,
            )
            warm = () if prev_x is None else (prev_x,)
            try:
                result = tune(spec, warm_starts=warm)
            except ArithmeticError as exc:
                entries.append(TableEntry(float(pi), None, None, f"tune_failed: {exc}"))
                continue
            entries.append(TableEntry(float(pi), result.x_opt, result.objective_value))
            prev_x = result.x_opt
        if progress is not None:
            progress(i + 1, grid.size)
    metadata = {
        "scheme": scheme.value,
        "layers": layers,
        "layer_fidelity": noise.layer_fidelity,
        "spam_fidelity": noise.spam_fidelity,
        "process_fidelity": f,
        "objective": objective.value,
        "restarts": restarts,
        "seed": seed,
    }
    return LookupTable(grid, entries, metadata)
