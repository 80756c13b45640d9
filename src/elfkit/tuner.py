"""Circuit-parameter tuning by Fisher-information or slope maximization.

Both objectives climb one value, ``metrics.climbed``, (g d(bias)/dtheta)^2 /
(1 - (f bias)^2): the Fisher information for (g, f) = (fidelity, fidelity),
and for (g, f) = (1, 0) the squared slope, which is the f -> 0 limit of
F / f^2.  The slope is reported as the square root of the climbed value.

One ascent serves both: one O(L) coordinate sweep (``csbd.sweep``), each
coordinate updated by the one step ``_coordinate_step_fisher``.  It is
solved in the sinusoid's argument a = k x_j (k = ``Scheme.angle_scale``) by
a uniform scan of [-pi, pi) (robust to multimodality), and keeps the current
angle unless the best scan point beats it.  The scan only finds the basin;
the BFGS finish below polishes the point within it.

One sweep places each angle in its basin.  Further sweeps would only
zig-zag along coupled ridges that the finish climbs anyway, so the swept
point goes straight to a BFGS finish, and only the finished point is scored.
The finish's value and gradient (``_value_and_gradient``) take O(L): a
forward prefix pass and one backward pass by the conjugate factors.

A multi-start driver wraps the ascent.  The first start is always the
Chebyshev point (pi/2, ..., pi/2), so a tuned objective is never worse than
the untuned one; the remaining starts are seeded-uniform random draws, plus
optional warm starts used by the lookup-table builder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .algebra import DEGENERATE_TOL, DOMAINS, angle_vectors, canonical_angles, check, check_fields, check_type, one_vector
from .bias import Scheme, _bias_pair, bias_series, clf_angles
from .csbd import CsbdCoefficients, slopes, sweep
from .metrics import SINGULAR_TOL, NoiseModel, climbed

TABLE_FORMAT_VERSION = "elf-table/1"
DEGENERATE_FLAG = "degenerate_theta"
# The Fisher step's scan grid size.
SCAN_POINTS = 64


class Objective(Enum):
    FISHER = "fisher"
    SLOPE = "slope"


@dataclass(frozen=True)
class TuneSpec:
    """Inputs of one tuning problem; its defaults are also ``build_lookup_table``'s and the CLI's.

    Each start takes one coordinate sweep.  ``max_rounds`` caps only the
    quasi-Newton finish after it, which stops when a step gains less than
    ``_MIN_GAIN`` or would gain only rounding, or after ``max_rounds`` steps.
    """

    scheme: Scheme
    layers: int
    mu: float
    fidelity: float = 1.0
    objective: Objective = Objective.FISHER
    restarts: int = 10
    seed: int = 0
    max_rounds: int = 500

    def __post_init__(self) -> None:
        check_fields(self)
        check_type("scheme", self.scheme, Scheme)
        check_type("objective", self.objective, Objective)
        if abs(math.sin(self.mu)) < DEGENERATE_TOL:
            raise ValueError(f"mu={self.mu!r} is within {DEGENERATE_TOL} of a multiple of pi")


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


def objective_value(spec: TuneSpec, x) -> float:
    """The objective at the 2 ``spec.layers`` angles x: the Fisher information, or |d(bias)/dtheta| for the slope."""
    g, f, report = _weights(spec)
    return report(climbed(g, f, *_bias_pair(spec.scheme, spec.mu, one_vector(x, spec.layers))))


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
    """The climbed value (see ``metrics.climbed``) as a function of the sinusoid argument a = k x_j."""
    ca, sa = math.cos(a), math.sin(a)
    return climbed(g, f, co.c * ca + co.s * sa + co.b, co.c_prime * ca + co.s_prime * sa + co.b_prime)


def _coordinate_step_fisher(co: CsbdCoefficients, k: float, g: float, f: float, current: float) -> float:
    """The new x_j: the best scan point of a = k x_j (k = ``Scheme.angle_scale``), unless ``current`` is no worse."""
    # The climbed value / g^2 on the grid: the derivative and f-scaled bias sinusoids in one product.
    coefficients = np.array(((co.c_prime, co.s_prime, co.b_prime), (f * co.c, f * co.s, f * co.b)))
    num, fbias = coefficients @ _SCAN_BASIS
    den = 1.0 - fbias * fbias
    values = num * num / np.maximum(den, SINGULAR_TOL)
    values[den < SINGULAR_TOL] = -np.inf
    a = float(_SCAN_GRID[values.argmax()])
    if _fisher_1d(co, g, f, k * current) >= _fisher_1d(co, g, f, a):
        return current
    return a / k


# Armijo sufficient-increase constant, the cap on step halvings, the least gain of a step that does not stop
# the quasi-Newton finish, and float64's machine epsilon: a predicted gain below EPS times the value is rounding.
_ARMIJO = 1e-4
_BACKTRACKS = 40
_MIN_GAIN = 1e-8
EPS = float(np.finfo(float).eps)


def _quasi_newton(spec: TuneSpec, x: np.ndarray, first_step: float) -> tuple[np.ndarray, int]:
    """BFGS ascent of the climbed value (see ``_value_and_gradient``) from x.

    Each step backtracks from the quasi-Newton step until it passes the
    Armijo test.  Until the first curvature update the step is the gradient,
    shortened where needed so that no angle moves by more than
    ``first_step``.  Stops before a step whose predicted gain grad . p is at
    most ``EPS`` times the value (so a start at its maximum takes none), after
    one that gains less than ``_MIN_GAIN``, when no step length passes, or
    after ``max_rounds`` steps.  Returns the last point (``canonical_angles``)
    and the number of steps taken.
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
        if not slope > EPS * val:
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
        if gain < _MIN_GAIN:
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
    return canonical_angles(x), steps


def _coordinate_ascent(spec: TuneSpec, x0: np.ndarray) -> tuple[np.ndarray, float, int]:
    """One coordinate sweep to find the basin, then a quasi-Newton finish.

    Returns the finished point, its ``objective_value`` and 1 + the finish's steps.
    """
    x = canonical_angles(x0)
    g, f, _ = _weights(spec)
    k = spec.scheme.angle_scale

    def choose(j: int, co: CsbdCoefficients) -> float:
        z = _coordinate_step_fisher(co, k, g, f, x[j - 1])
        # Into (-pi, pi], bit for bit as ``canonical_angles``.
        return math.pi - math.fmod((math.pi - z) % (2.0 * math.pi), 2.0 * math.pi)

    sweep(spec.scheme, spec.mu, x, choose)
    # The finish's first step moves no angle by more than one scan-grid step, 2 pi / (k SCAN_POINTS).
    x, steps = _quasi_newton(spec, x, 2.0 * math.pi / (k * SCAN_POINTS))
    return x, objective_value(spec, x), 1 + steps


def tune(spec: TuneSpec, warm_starts: tuple = ()) -> TuneResult:
    """Best ascent result across restarts (ties break to the lowest index).

    Start 0 is the Chebyshev point, starts 1..k the provided warm starts and
    the remainder seeded-uniform draws from (-pi, pi]^(2L); the total number
    of starts is max(restarts, 1 + len(warm_starts)).  A start that repeats an
    earlier one bit for bit is skipped.  Each warm start must be one vector of
    2L angles; any other raises a ``ValueError`` before the first ascent.
    """
    dim = 2 * check_type("spec", spec, TuneSpec).layers
    if bad := [np.shape(w) for w in warm_starts if np.shape(w) != (dim,)]:
        raise ValueError(f"warm_starts must be vectors of 2 * layers = {dim} angles, got shape {bad[0]}")
    rng = np.random.default_rng(spec.seed)
    starts: list[np.ndarray] = [clf_angles(spec.layers)]
    starts.extend(canonical_angles(w) for w in warm_starts)
    n_random = max(spec.restarts - len(starts), 0)
    starts.extend(rng.uniform(-math.pi, math.pi, dim) for _ in range(n_random))

    results = []
    seen = set()
    for idx, x0 in enumerate(starts):
        # The ascent is deterministic, so a repeated start cannot win; start 0 is never skipped.
        if (key := x0.tobytes()) in seen:
            continue
        seen.add(key)
        results.append(TuneResult(*_coordinate_ascent(spec, x0), idx))
    return max(results, key=lambda r: r.objective_value)  # the first maximum: ties keep the lowest index


# -- lookup tables ------------------------------------------------------------


@dataclass
class TableEntry:
    pi: float
    angles: np.ndarray | None
    objective: float | None
    flag: str | None = None


def _check_grid(points) -> None:
    """Raise a ``ValueError`` unless the estimand points are numbers in [-1, 1], strictly increasing."""
    for i, point in enumerate(points):
        check(f"grid point {i}", point, DOMAINS["grid_point"])
    if np.any(np.diff(np.asarray(points, dtype=float)) <= 0.0):
        raise ValueError("grid must be strictly increasing")


class LookupTable:
    """Tuned angle vectors on a grid of estimand values in [-1, 1]; a built and a loaded table meet one contract."""

    def __init__(self, entries: list[TableEntry], metadata: dict) -> None:
        check_type("metadata", metadata, dict)
        for i, e in enumerate(entries):
            if check_type(f"table entry {i}", e, TableEntry).objective is not None:
                check(f"table entry {i} objective", e.objective, DOMAINS["objective_value"])
            if e.flag not in (None, DEGENERATE_FLAG):
                raise ValueError(f"table entry {i} has no valid 'flag': {e.flag!r}")
        valid = [(i, e) for i, e in enumerate(entries) if e.flag is None]
        if not valid:
            raise ValueError("lookup table has no valid entries")
        _check_grid([e.pi for e in entries])
        for i, e in valid:  # each holds one angle vector, of the first one's length
            if (got := None if e.angles is None else np.shape(e.angles)) is None or len(got) != 1:
                raise ValueError(f"table entry {i} has no flag, so it needs one angle vector, got {got}")
            if got[0] != (n := np.size(valid[0][1].angles)):
                raise ValueError(f"table entry {i} holds {got[0]} angles, but entry {valid[0][0]} holds {n}")
            try:
                angle_vectors(e.angles)
            except ValueError as err:
                raise ValueError(f"table entry {i}: {err}") from None
        self.entries = entries
        self.metadata = dict(metadata)
        valid_grid = np.array([e.pi for _, e in valid], dtype=float)
        self._midpoints = (valid_grid[1:] + valid_grid[:-1]) / 2.0
        self._angles = np.vstack([e.angles for _, e in valid], dtype=float)
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
        pi, the right one on a midpoint.  The columns, computed on first use per scheme, are shared and read-only.
        """
        if (columns := self._series.get(scheme)) is None:
            columns = self._series[scheme] = bias_series(scheme, self._angles)
            columns.flags.writeable = False
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
        if not isinstance(metadata := doc.get("metadata", {}), dict):
            raise ValueError(f"table 'metadata' must be a JSON object, got {metadata!r}")
        entries = []
        for i, e in enumerate(doc["entries"]):
            if not isinstance(e, dict):
                raise ValueError(f"table entry {i} is not a JSON object: {e!r}")
            if (angles := e.get("angles")) is not None:
                try:
                    angles = np.asarray(angles, dtype=float)
                except (TypeError, ValueError):
                    raise ValueError(f"table entry {i} has non-numeric 'angles': {angles!r}") from None
            entries.append(TableEntry(e.get("pi"), angles, e.get("objective"), e.get("flag")))
        return cls(entries, metadata)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "LookupTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@lru_cache(maxsize=None)
def chebyshev_table(layers: int) -> LookupTable:
    """The Chebyshev angles (``clf_angles``) as a one-entry table: the one angle source of the ``*-clf`` runs."""
    return LookupTable([TableEntry(0.0, clf_angles(layers), None)], {})


def build_lookup_table(
    scheme: Scheme,
    layers: int,
    noise: NoiseModel,
    grid_spec,
    restarts: int = TuneSpec.restarts,
    seed: int = TuneSpec.seed,
    objective: Objective = TuneSpec.objective,
    progress=None,
    max_rounds: int = TuneSpec.max_rounds,
) -> LookupTable:
    """Tune one angle vector per grid point, warm-starting from the neighbor.

    ``grid_spec`` is either a point count for a uniform grid over [-1, 1] or
    an explicit increasing sequence of estimand values.  Grid points at +-1
    are emitted flagged (the estimand angle would be degenerate), as are points
    where every start is singular (noiseless, within about 1e-8 of +-1); a
    flagged point warm-starts no other.  One ``TuneSpec`` of the arguments,
    built before the grid is read, checks them (``noise`` is checked here);
    each point's spec is that one at the point's theta and seed.
    """
    check_type("noise", noise, NoiseModel)
    f = noise.process_fidelity(layers)
    base = TuneSpec(scheme, layers, math.pi / 2.0, f, objective, restarts, seed, max_rounds)
    if isinstance(grid_spec, (int, np.integer)):
        grid = np.linspace(-1.0, 1.0, max(int(grid_spec), 0))
    else:
        grid = np.asarray(grid_spec, dtype=float)
    if grid.size < 2:
        raise ValueError("grid must have at least 2 points")
    _check_grid(grid)
    point_seeds = np.random.SeedSequence(seed).generate_state(grid.size, dtype=np.uint64)
    entries: list[TableEntry] = []
    prev_x: np.ndarray | None = None
    for i, pi in enumerate(grid):
        result = None
        if abs(pi) < 1.0:
            spec = replace(base, mu=math.acos(pi), seed=int(point_seeds[i]))
            result = tune(spec, warm_starts=() if prev_x is None else (prev_x,))
        if result is None or result.objective_value == -math.inf:
            entries.append(TableEntry(float(pi), None, None, DEGENERATE_FLAG))
        else:
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
        value = objective_value(replace(base, mu=math.acos(entry.pi)), x)
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
