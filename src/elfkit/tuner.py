"""Circuit-parameter tuning by Fisher-information or slope maximization.

Both objectives climb one value, (g d(bias)/dtheta)^2 / (1 - (f bias)^2):
the Fisher information for (g, f) = (fidelity, fidelity), and for (g, f) =
(1, 0) the squared slope, which is the f -> 0 limit of F / f^2.  The slope
is reported as the square root of the climbed value.

One ascent serves both: one O(L) coordinate sweep (``csbd.sweep``), each
coordinate updated by the one step ``_coordinate_step_fisher``.  It is
solved in the sinusoid's argument a = k x_j by a uniform scan of [-pi, pi)
(robust to multimodality), and keeps the current angle unless the best scan
point beats it.  The scan only finds the basin; the BFGS finish below
polishes the point within it.

One sweep places each angle in its basin.  Further sweeps would only
zig-zag along coupled ridges that the finish climbs anyway, so the swept
point goes straight to a BFGS finish with Armijo backtracking.  Its value
and gradient (``_value_and_gradient``) take O(L): a forward prefix pass and
one backward pass of co-vectors by the conjugate factors (``csbd.slopes``).

A multi-start driver wraps the ascent.  The first start is always the
Chebyshev point (pi/2, ..., pi/2), so a tuned objective is never worse than
the untuned one; the remaining starts are seeded-uniform random draws, plus
optional warm starts used by the lookup-table builder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import DEGENERATE_TOL, DegenerateSubspaceError, angle_vectors, canonical_angles
from .bias import Scheme, _bias_pair, _readout, bias_series, clf_angles
from .csbd import CsbdCoefficients, slopes, sweep
from .metrics import SINGULAR_TOL, NoiseModel

TABLE_FORMAT_VERSION = "elf-table/1"
DEGENERATE_FLAG = "degenerate_theta"
# The Fisher step's scan grid size.
SCAN_POINTS = 64


class Objective(Enum):
    FISHER = "fisher"
    SLOPE = "slope"


@dataclass(frozen=True)
class TuneSpec:
    """Inputs of one tuning problem.

    Each start takes one coordinate sweep.  ``tolerance`` and ``max_rounds``
    govern only the quasi-Newton finish after it, which stops when a step
    gains less than ``tolerance`` or after ``max_rounds`` steps.
    """

    scheme: Scheme
    layers: int
    mu: float
    fidelity: float = 1.0
    objective: Objective = Objective.FISHER
    restarts: int = 10
    seed: int = 0
    tolerance: float = 1e-8
    max_rounds: int = 500

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
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")


@dataclass(frozen=True)
class TuneResult:
    """The winning start's angles and objective.

    ``iterations`` counts that start's one coordinate sweep plus its
    quasi-Newton steps.
    """

    x_opt: np.ndarray
    objective_value: float
    iterations: int
    restart_index: int


def _weights(spec: TuneSpec):
    """(g, f, report) of the climbed value (g d(bias)/dtheta)^2 / (1 - (f bias)^2).

    ``report`` maps the climbed value to the objective: the Fisher
    information is the climbed value itself, the slope its square root.
    """
    if spec.objective is Objective.SLOPE:
        return 1.0, 0.0, math.sqrt
    return spec.fidelity, spec.fidelity, float


def _climbed(g: float, f: float, delta: float, ddelta: float) -> float:
    """The climbed value from the bias and d(bias)/dtheta; -inf where it is singular."""
    denom = 1.0 - (f * delta) ** 2
    if denom < SINGULAR_TOL:
        return -math.inf
    return (g * ddelta) ** 2 / denom


def objective_value(spec: TuneSpec, x) -> float:
    """The objective at angles x: the Fisher information, or |d(bias)/dtheta| for the slope."""
    g, f, report = _weights(spec)
    return report(_climbed(g, f, *_bias_pair(spec.scheme, spec.mu, x)))


def _value_and_gradient(spec: TuneSpec, x: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The climbed value and its gradient in x, from one forward and one adjoint pass.

    The x-slopes of the bias and of d(bias)/dtheta come from ``csbd.slopes``:
    a forward prefix pass, then one backward pass of co-vectors by the
    conjugate factors (the transpose of a left product is the product by
    the conjugate, and conj U(x) = U(-x)), seeded with the readout's linear
    form, and combined into the gradient as Python floats.  Returns
    (-inf, None) where the climbed value is singular.
    """
    delta, ddelta, chi, chi_p = slopes(spec.scheme, spec.mu, x)
    g, f, _ = _weights(spec)
    g2, f2 = g**2, f**2
    den = 1.0 - f2 * delta * delta
    if den < SINGULAR_TOL:
        return -math.inf, None
    c, k, dd = 2.0 * g2 * ddelta, f2 * delta * ddelta, den * den
    return g2 * ddelta * ddelta / den, np.array([c * (den * cp + k * ch) / dd for ch, cp in zip(chi, chi_p)])


# Rows cos a, sin a, 1 on the scan grid a_i = -pi + i h, h = 2 pi / SCAN_POINTS, of a = k x_j.
_SCAN_GRID = np.linspace(-math.pi, math.pi, SCAN_POINTS, endpoint=False)
_SCAN_BASIS = np.vstack([np.cos(_SCAN_GRID), np.sin(_SCAN_GRID), np.ones(SCAN_POINTS)])
_SCAN_BASIS.setflags(write=False)  # one array serves every caller


def _fisher_1d(co: CsbdCoefficients, g: float, f: float, a: float) -> float:
    """The climbed value (see ``_climbed``) as a function of the sinusoid argument a = k x_j."""
    ca, sa = math.cos(a), math.sin(a)
    return _climbed(g, f, co.c * ca + co.s * sa + co.b, co.c_prime * ca + co.s_prime * sa + co.b_prime)


def _coordinate_step_fisher(co: CsbdCoefficients, g: float, f: float, current: float) -> float:
    """The new x_j: the best scan point, unless ``current`` is no worse."""
    # The climbed value / g^2 on the grid: the derivative and f-scaled bias sinusoids in one product.
    coefficients = np.array(((co.c_prime, co.s_prime, co.b_prime), (f * co.c, f * co.s, f * co.b)))
    num, fbias = coefficients @ _SCAN_BASIS
    den = 1.0 - fbias * fbias
    values = num * num / np.maximum(den, SINGULAR_TOL)
    values[den < SINGULAR_TOL] = -np.inf
    a = float(_SCAN_GRID[values.argmax()])
    k = co.angle_scale
    if _fisher_1d(co, g, f, k * current) >= _fisher_1d(co, g, f, a):
        return current
    return a / k


# Armijo sufficient-increase constant and the cap on step halvings of the
# quasi-Newton finish.
_ARMIJO = 1e-4
_BACKTRACKS = 40


def _quasi_newton(spec: TuneSpec, x: np.ndarray, first_step: float) -> tuple[np.ndarray, int]:
    """BFGS ascent of the climbed value (see ``_value_and_gradient``) from x.

    Each step backtracks from the quasi-Newton step until it passes the
    Armijo test.  Until the first curvature update the step is the gradient,
    shortened where needed so that no angle moves by more than
    ``first_step``.  Stops when a step gains less than ``tolerance``, when no
    step length passes, or after ``max_rounds`` steps.  Returns the last
    point and the number of steps taken.
    """
    val, grad = _value_and_gradient(spec, x)
    h_inv = None  # inverse Hessian estimate of -value, set at the first update
    steps = 0
    while grad is not None and steps < spec.max_rounds:
        if h_inv is None:
            p = grad * (first_step / max(np.abs(grad).max(), first_step))
        else:
            p = h_inv @ grad
        slope = float(grad @ p)
        if not slope > 0.0:
            break
        alpha = 1.0
        for _ in range(_BACKTRACKS):
            x_new = x + p if alpha == 1.0 else x + alpha * p
            val_new, grad_new = _value_and_gradient(spec, x_new)
            if val_new >= val + _ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        steps += 1
        s, y = x_new - x, grad - grad_new
        gain = val_new - val
        x, val, grad = x_new, val_new, grad_new
        if gain < spec.tolerance:
            break
        sy = float(s @ y)
        if sy <= 0.0:
            continue  # no curvature information: keep the estimate
        if h_inv is None:
            h_inv = np.eye(x.size) * (sy / float(y @ y))
        hy = h_inv @ y
        rho = 1.0 / sy
        w = np.multiply.outer(hy, s)  # its transpose is outer(s, hy) bit for bit
        h_inv += (rho * rho * float(y @ hy) + rho) * np.multiply.outer(s, s) - rho * (w + w.T)
    return x, steps


def _coordinate_ascent(spec: TuneSpec, x0: np.ndarray) -> tuple[np.ndarray, float, int]:
    """One coordinate sweep to find the basin, then a quasi-Newton finish.

    Returns the better of the swept point, scored off the sweep's final
    prefix pair, and the finished point; its ``objective_value``; and 1 + the
    finish's steps.
    """
    x = canonical_angles(x0)
    g, f, report = _weights(spec)

    def choose(j: int, co: CsbdCoefficients) -> float:
        z = _coordinate_step_fisher(co, g, f, x[j - 1])
        # Into (-pi, pi], bit for bit as ``canonical_angles``.
        return math.pi - (math.pi - z) % (2.0 * math.pi)

    q, dq = sweep(spec.scheme, spec.mu, x, choose)
    val = report(_climbed(g, f, *_readout(spec.scheme, math.cos(spec.mu), math.sin(spec.mu), q, dq)))
    # The finish's first step moves no angle by more than one scan-grid step.
    period = math.pi if spec.scheme is Scheme.AF else 2.0 * math.pi
    x_fin, steps = _quasi_newton(spec, x, period / SCAN_POINTS)
    x_fin = canonical_angles(x_fin)
    if (val_fin := objective_value(spec, x_fin)) > val:
        return x_fin, val_fin, 1 + steps
    return x, objective_value(spec, x), 1 + steps


def tune(spec: TuneSpec, warm_starts: tuple = ()) -> TuneResult:
    """Best ascent result across restarts (ties break to the lowest index).

    Start 0 is the Chebyshev point, starts 1..k the provided warm starts and
    the remainder seeded-uniform draws from (-pi, pi]^(2L); the total number
    of starts is max(restarts, 1 + len(warm_starts)).  A start that repeats an
    earlier one bit for bit is skipped.  Each warm start must be one vector of
    2L angles; any other raises a ``ValueError`` before the first ascent.
    """
    dim = 2 * spec.layers
    if bad := [np.shape(w) for w in warm_starts if np.shape(w) != (dim,)]:
        raise ValueError(f"warm_starts must be vectors of 2 * layers = {dim} angles, got shape {bad[0]}")
    rng = np.random.default_rng(spec.seed)
    starts: list[np.ndarray] = [clf_angles(spec.layers)]
    starts.extend(canonical_angles(w) for w in warm_starts)
    n_random = max(spec.restarts - len(starts), 0)
    starts.extend(rng.uniform(-math.pi, math.pi, dim) for _ in range(n_random))

    best: TuneResult | None = None
    seen = set()
    for idx, x0 in enumerate(starts):
        # The ascent is deterministic, so a repeated start cannot win.
        if (key := x0.tobytes()) in seen:
            continue
        seen.add(key)
        x_opt, val, iters = _coordinate_ascent(spec, x0)
        if best is None or val > best.objective_value:
            best = TuneResult(x_opt, val, iters, idx)
    assert best is not None
    return best


# -- lookup tables ------------------------------------------------------------


@dataclass
class TableEntry:
    pi: float
    angles: np.ndarray | None
    objective: float | None
    flag: str | None = None


def _check_grid(grid: np.ndarray) -> None:
    """Raise a ``ValueError`` unless the estimand grid is strictly increasing within [-1, 1]."""
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < -1.0 or grid[-1] > 1.0:
        raise ValueError("grid must lie within [-1, 1]")


class LookupTable:
    """Tuned angle vectors on a grid of estimand values in [-1, 1]."""

    def __init__(self, entries: list[TableEntry], metadata: dict) -> None:
        valid = [e for e in entries if e.flag is None]
        if not valid:
            raise ValueError("lookup table has no valid entries")
        _check_grid(np.array([e.pi for e in entries], dtype=float))
        self.entries = entries
        self.metadata = dict(metadata)
        valid_grid = np.array([e.pi for e in valid])
        self._midpoints = (valid_grid[1:] + valid_grid[:-1]) / 2.0
        self._angles = angle_vectors(np.vstack([e.angles for e in valid]))
        self._series: dict[Scheme, np.ndarray] = {}  # theta-series columns of the valid entries, per scheme

    def check_fits(self, scheme: Scheme, layers: int) -> None:
        """Raise a ``ValueError`` naming ``table`` unless its angles serve ``scheme`` at ``layers``.

        The angle vectors must have length 2 ``layers``, and the metadata may
        name no other scheme.
        """
        if (n := self._angles.shape[1]) != 2 * layers:
            raise ValueError(f"table holds {n}-angle vectors, but layers={layers} needs {2 * layers}")
        if (named := self.metadata.get("scheme", scheme.value)) != scheme.value:
            raise ValueError(f"table was tuned for scheme {named!r}, not {scheme.value!r}")

    def series(self, scheme: Scheme) -> tuple[np.ndarray, np.ndarray]:
        """The valid entries' midpoints and ``bias_series`` columns, shape (D + 1, valid entries).

        A query pi reads column ``midpoints.searchsorted(pi, side="right")``: the valid entry nearest
        pi, the right one on a midpoint.  The columns are computed on first use for each scheme.
        """
        if (columns := self._series.get(scheme)) is None:
            columns = self._series[scheme] = bias_series(scheme, self._angles)
        return self._midpoints, columns

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
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
            raise ValueError("table must be a JSON object with an 'entries' list")
        if doc.get("version") != TABLE_FORMAT_VERSION:
            raise ValueError(f"unsupported table version {doc.get('version')!r}")
        for i, e in enumerate(doc["entries"]):
            if not isinstance(e, dict) or not isinstance(e.get("pi"), (int, float)):
                raise ValueError(f"table entry {i} has no numeric 'pi'")
        entries = [
            TableEntry(
                pi=float(e["pi"]),
                angles=None if e.get("angles") is None else np.asarray(e["angles"], dtype=float),
                objective=e.get("objective"),
                flag=e.get("flag"),
            )
            for e in doc["entries"]
        ]
        return cls(entries, doc.get("metadata", {}))

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
    max_rounds: int = 500,
) -> LookupTable:
    """Tune one angle vector per grid point, warm-starting from the neighbor.

    ``grid_spec`` is either a point count for a uniform grid over [-1, 1] or
    an explicit increasing sequence of estimand values.  Grid points at +-1
    are emitted flagged (the estimand angle would be degenerate).  The layer
    count and the grid are checked before any point is tuned.  Each point's
    ``TuneSpec`` takes ``objective``, ``restarts`` and ``max_rounds`` from here.
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if isinstance(grid_spec, (int, np.integer)):
        grid = np.linspace(-1.0, 1.0, max(int(grid_spec), 0))
    else:
        grid = np.asarray(grid_spec, dtype=float)
    if grid.size < 2:
        raise ValueError("grid must have at least 2 points")
    _check_grid(grid)
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
                max_rounds=max_rounds,
            )
            result = tune(spec, warm_starts=() if prev_x is None else (prev_x,))
            entries.append(TableEntry(float(pi), result.x_opt, result.objective_value))
            prev_x = result.x_opt
        if progress is not None:
            progress(i + 1, grid.size)
    # Mirror pass, after tuning so the warm-start chain is unaffected: the
    # objective obeys F(pi - theta; x') = F(theta; x), where x' negates the V
    # angles x_2, x_4, ..., so an entry takes the mirrored angles of the entry
    # at -Pi where they score higher.
    tuned = list(entries)
    for i, entry in enumerate(tuned):
        j = int(np.searchsorted(grid, -entry.pi - 1e-12))
        if j == grid.size or grid[j] > -entry.pi + 1e-12 or entry.angles is None or tuned[j].angles is None:
            continue
        x = canonical_angles(tuned[j].angles * np.tile([1.0, -1.0], layers))
        value = objective_value(TuneSpec(scheme, layers, math.acos(entry.pi), f, objective), x)
        if value > entry.objective:
            entries[i] = TableEntry(entry.pi, x, value)
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
    return LookupTable(entries, metadata)
