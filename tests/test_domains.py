"""The one domain table and its check: every numeric input of the library at its edge values."""

import math
import re

import numpy as np
import pytest

from elfkit.algebra import DOMAINS, INTEGERS, check
from elfkit.bias import Scheme, bias, bias_derivative, bias_series, clf_angles
from elfkit.csbd import CoefficientTable
from elfkit.inference import EstimationConfig
from elfkit.metrics import GaussianBelief, NoiseModel, fisher_information, rhat0, slope
from elfkit.runtime_model import HardwareParams, hardware_runtime_curve, runtime_bounds
from elfkit.sim import ExperimentConfig
from elfkit.tuner import LookupTable, TableEntry, TuneSpec, build_lookup_table, tune

_BELIEF = GaussianBelief(0.3, 1e-3)
_HARDWARE = HardwareParams(100, 200, 1e-8)
# A row of lam = 100 * 200 / 2 * 1e-6 = 0.01, so every call reaches runtime_bounds.
_VALID_ROW = [1.0 - 1e-6]
_EXPERIMENT = dict(
    true_pi=0.3, prior_pi=_BELIEF, layers=1, noise=NoiseModel(), runs=4, horizon=60, master_seed=0, threads=1
)


def _prior_mean(kw: dict) -> dict:
    """``kw`` with a ``prior_mean`` key turned into ``prior_pi``, a belief of that mean."""
    if "prior_mean" in kw:
        kw["prior_pi"] = GaussianBelief(kw.pop("prior_mean"), 1e-3)
    return kw


def _build(**kw):
    """A small ``build_lookup_table`` call, on the grid [-0.5, 0.5] unless ``kw`` names another."""
    return build_lookup_table(
        **{
            "scheme": Scheme.AF,
            "noise": NoiseModel(0.9),
            "grid_spec": [-0.5, 0.5],
            "layers": 1,
            "restarts": 1,
            "max_rounds": 5,
            **kw,
        }
    )


_BUILD_INPUTS = ("layers", "restarts", "seed", "max_rounds")
# Each target: the names of its checked inputs, and a call that takes one of them by keyword.
TARGETS = {
    "NoiseModel": (("layer_fidelity", "spam_fidelity"), lambda **kw: NoiseModel(**kw)),
    "GaussianBelief": (("mean", "variance"), lambda **kw: GaussianBelief(**{"mean": 0.3, "variance": 1e-3, **kw})),
    "TuneSpec": (
        ("layers", "mu", "fidelity", "restarts", "seed", "max_rounds"),
        lambda **kw: TuneSpec(**{"scheme": Scheme.AF, "layers": 1, "mu": 1.0, **kw}),
    ),
    "EstimationConfig": (
        ("layers", "true_pi", "horizon", "seed", "prior_mean"),
        lambda **kw: EstimationConfig(
            **{
                "scheme": Scheme.AF,
                "layers": 1,
                "noise": NoiseModel(),
                "prior_pi": _BELIEF,
                "true_pi": 0.3,
                "horizon": 60,
                "angle_source": "clf",
                **_prior_mean(kw),
            }
        ),
    ),
    "ExperimentConfig": (
        ("true_pi", "layers", "runs", "horizon", "master_seed", "threads", "prior_mean"),
        lambda **kw: ExperimentConfig(**{"scheme": "af-clf", **_EXPERIMENT, **_prior_mean(kw)}),
    ),
    "ExperimentConfig-standard": (
        ("true_pi", "layers", "runs", "horizon", "master_seed", "threads"),
        lambda **kw: ExperimentConfig(**{"scheme": "standard", **_EXPERIMENT, **kw}),
    ),
    "HardwareParams": (
        ("qubits", "depth", "gate_time", "spam_fidelity"),
        lambda **kw: HardwareParams(**{"qubits": 100, "depth": 200, "gate_time": 1e-8, **kw}),
    ),
    "process_fidelity": (("layers",), lambda layers: NoiseModel(0.9).process_fidelity(layers)),
    "clf_angles": (("layers",), lambda layers: clf_angles(layers)),
    "fisher_information": (
        ("theta", "fidelity"),
        lambda **kw: fisher_information(Scheme.AF, kw.get("theta", 0.7), kw.get("fidelity", 0.9), clf_angles(1)),
    ),
    "slope": (
        ("theta", "fidelity"),
        lambda **kw: slope(Scheme.AB, kw.get("theta", 0.7), kw.get("fidelity", 0.9), clf_angles(1)),
    ),
    "rhat0": (
        ("pi_star", "fidelity"),
        lambda **kw: rhat0(Scheme.AF, kw.get("pi_star", 0.3), kw.get("fidelity", 0.9), clf_angles(1)),
    ),
    "CoefficientTable": (("theta",), lambda theta: CoefficientTable(Scheme.AF, theta, clf_angles(1))),
    "runtime_bounds": (
        ("eps_theta", "lam", "spam"),
        lambda **kw: runtime_bounds(**{"eps_theta": 1e-3, "lam": 0.5, "spam": 0.9, **kw}),
    ),
    "hardware_runtime_curve": (
        ("pi", "eps"),
        lambda **kw: hardware_runtime_curve(_HARDWARE, [kw.get("eps", 1e-3)], _VALID_ROW, kw.get("pi", 0.0)),
    ),
    "hardware_runtime_curve-spam": (
        ("spam_fidelity",),
        lambda spam_fidelity: hardware_runtime_curve(
            HardwareParams(100, 200, 1e-8, spam_fidelity), [1e-3], _VALID_ROW
        ),
    ),
    "LookupTable": (
        ("objective_value",),
        lambda objective_value: LookupTable([TableEntry(0.5, clf_angles(1), objective_value)], {}),
    ),
    "build_lookup_table": (_BUILD_INPUTS, _build),
    # Every point flagged, so no point's TuneSpec would check an input.
    "build_lookup_table-ends": (_BUILD_INPUTS, lambda **kw: _build(grid_spec=[-1.0, 1.0], **kw)),
}


# An input that a call passes on under another name, whose domain its errors may name.
_PASSED_AS = {("hardware_runtime_curve-spam", "spam_fidelity"): "spam"}
# An input that a call checks against a domain wider than its entry's: the standard scheme reads no layers.
_DOMAIN_OF = {("ExperimentConfig-standard", "layers"): "(-inf, inf)"}
# The prior's mean, which a config checks as "prior_pi mean" after GaussianBelief has checked it as "mean".
_PRIOR_MEAN = [("EstimationConfig", "prior_mean"), ("ExperimentConfig", "prior_mean")]
# An input whose errors name it by a label: a table entry's objective names its entry.
_LABELS = {("LookupTable", "objective_value"): "table entry 0 objective", **dict.fromkeys(_PRIOR_MEAN, "prior_pi mean")}
# A table entry may have no objective.
_NULLABLE = {("LookupTable", "objective_value")}
# The library's rules beyond a domain: the start of each one's message, and the values it refuses.  A
# mu within 1e-12 of a multiple of pi, horizon >= 2L + 1, each eps passed on as eps_theta =
# eps / sqrt(1 - pi^2), HardwareParams' own check of the SPAM fidelity, ahead of the runtime
# bounds' check of it as spam, and GaussianBelief's own check of the prior's mean.
_RULES = {
    ("TuneSpec", "mu"): ("mu=", lambda v: min(abs(v), abs(math.pi - v)) < 1e-12),
    ("EstimationConfig", "horizon"): ("horizon must be >= 3", lambda v: v < 3),
    ("ExperimentConfig", "horizon"): ("horizon must be >= 3", lambda v: v < 3),
    ("hardware_runtime_curve", "eps"): ("eps_theta must lie in [1e-75, 1e75], got ", lambda v: 0 < v < 1e-75),
    ("hardware_runtime_curve-spam", "spam_fidelity"): (
        "spam_fidelity must lie in (0, 1], got ",
        lambda v: not 0 < v <= 1,
    ),
    **dict.fromkeys(_PRIOR_MEAN, ("mean must lie in (-inf, inf), got ", lambda v: not math.isfinite(v))),
    # A build on the all-flagged grid that takes its inputs finds no valid entry.
    **{
        ("build_lookup_table-ends", name): (
            "lookup table has no valid entries",
            lambda v, name=name: _refusal(name, v, DOMAINS[name]) is None,
        )
        for name in _BUILD_INPUTS
    },
}


def _label(target: str, name: str) -> str:
    return _LABELS.get((target, name)) or _PASSED_AS.get((target, name), name)


def _domain(target: str, name: str) -> str:
    return _DOMAIN_OF.get((target, name)) or DOMAINS[_PASSED_AS.get((target, name), name)]


def _ends(domain: str) -> tuple:
    return tuple(math.pi if end == "pi" else float(end) for end in domain[1:-1].split(", "))


def _edge_values(name: str, domain: str) -> list:
    """0, -1, +-inf, nan, 1e+-300, 1.5 for an integer, and each finite end of the domain with its neighbours.

    An integer input's end also comes as an int, with its int neighbours.
    """
    values = [0, -1, math.inf, -math.inf, math.nan, 1e300, 1e-300]
    if name in INTEGERS:
        values.append(1.5)
    for e in _ends(domain):
        if math.isfinite(e):
            values += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
            if name in INTEGERS:
                values += [int(e) - 1, int(e), int(e) + 1]
    return list({repr(v): v for v in values}.values())


def _refusal(name: str, value, domain: str) -> str | None:
    """The message of a value outside the input's domain, read off the domain itself; None inside it."""
    if name in INTEGERS and not isinstance(value, int):
        return f"must be an integer, got {value!r}"
    lo, hi = _ends(domain)
    if lo < value < hi or (domain[0] == "[" and value == lo) or (domain[-1] == "]" and value == hi):
        return None
    return f"must lie in {domain}, got {value}"


@pytest.mark.parametrize(
    ("target", "name", "value"),
    [
        pytest.param(target, name, value, id=f"{target}-{name}={value!r}")
        for target, (names, _) in TARGETS.items()
        for name in names
        for value in _edge_values(name, DOMAINS[_PASSED_AS.get((target, name), name)])
    ],
)
def test_every_numeric_input_at_its_edge_values(target, name, value, monkeypatch):
    # A value outside the input's domain raises the ValueError "<name> must lie in <domain>, got <value>"
    # ("must be an integer" for a non-int integer), a value that one of _RULES refuses raises that rule's,
    # and any other value constructs (or returns).  No other exception type, pytest turns a RuntimeWarning
    # into an error, and a table build refused at an edge tunes no point.
    tuned = []
    monkeypatch.setattr("elfkit.tuner.tune", lambda *a, **k: tuned.append(a) or tune(*a, **k))
    refusal = _refusal(name, value, _domain(target, name))
    strict = refusal and f"{_label(target, name)} {refusal}"
    rule, refuses = _RULES.get((target, name), ("", lambda v: False))
    try:
        TARGETS[target][1](**{name: value})
    except ValueError as exc:
        assert str(exc) == strict or (refuses(value) and str(exc).startswith(rule)), str(exc)
        assert tuned == []
    else:
        assert not strict and not refuses(value), f"{target} took {name}={value!r}"


def _inside(name: str, domain: str):
    """A value inside ``domain``, an int for an integer input."""
    lo, hi = _ends(domain)
    if math.isfinite(lo) and math.isfinite(hi):
        return (lo + hi) / 2.0
    v = lo + 1.0 if math.isfinite(lo) else 0.5
    return int(v) if name in INTEGERS else v


def _non_numbers(v) -> dict:
    return {
        "array1": np.array([v]),
        "array2": np.array([v, v]),
        "list": [v],
        "string": str(v),
        "None": None,
        "bool": True,
    }


@pytest.mark.parametrize(
    ("target", "name", "kind"),
    [
        pytest.param(target, name, kind, id=f"{target}-{name}-{kind}")
        for target, (names, _) in TARGETS.items()
        for name in names
        for kind in _non_numbers(0.5)
        if not (kind == "None" and (target, name) in _NULLABLE) and (target, name) not in _PRIOR_MEAN
    ],
)
def test_every_numeric_input_refuses_a_non_number(target, name, kind):
    # A value inside the domain, but not one number: the check names the input before any use of it.
    # A prior's mean that is not one number is GaussianBelief's mean, checked as such.
    v = _inside(name, DOMAINS[_PASSED_AS.get((target, name), name)])
    with pytest.raises(ValueError) as exc:
        TARGETS[target][1](**{name: _non_numbers(v)[kind]})
    assert str(exc.value).startswith(_label(target, name)), str(exc.value)


# Each typed input's kind, as its errors name it, and values of other types; a str is the kind's value or name.
_KINDS = {
    "scheme": ("bias.Scheme", ["af", "ab", 1, None]),
    "objective": ("tuner.Objective", ["slope", "fisher", None]),
    "noise": ("metrics.NoiseModel", [None, (0.9, 1.0)]),
    "prior_pi": ("metrics.GaussianBelief", [None, (0.3, 0.01)]),
    "hw": ("runtime_model.HardwareParams", [None]),
    "spec": ("tuner.TuneSpec", ["x"]),
    "metadata": ("builtins.dict", [None]),
    "table entry 0": ("tuner.TableEntry", ["x"]),
    "table": ("tuner.LookupTable", ["not a table", object()]),
}
# Each target: the names of its typed inputs, and a call that takes one of them by keyword.
TYPED = {
    "bias": (("scheme",), lambda scheme: bias(scheme, 0.7, clf_angles(1))),
    "bias_series": (("scheme",), lambda scheme: bias_series(scheme, clf_angles(1))),
    "bias_derivative": (("scheme",), lambda scheme: bias_derivative(scheme, 0.7, clf_angles(1))),
    "TuneSpec": (("scheme", "objective"), TARGETS["TuneSpec"][1]),
    "EstimationConfig": (("scheme", "noise", "prior_pi"), TARGETS["EstimationConfig"][1]),
    "ExperimentConfig": (("noise", "prior_pi"), TARGETS["ExperimentConfig"][1]),
    "ExperimentConfig-standard": (("noise",), TARGETS["ExperimentConfig-standard"][1]),
    "EstimationConfig-table": (
        ("table",),
        lambda table: TARGETS["EstimationConfig"][1](angle_source="table", table=table),
    ),
    "ExperimentConfig-af-elf": (("table",), lambda table: ExperimentConfig("af-elf", **_EXPERIMENT, table=table)),
    "build_lookup_table": (("scheme", "noise", "objective"), TARGETS["build_lookup_table"][1]),
    "hardware_runtime_curve": (("hw",), lambda hw: hardware_runtime_curve(hw, [1e-3], [0.999])),
    "tune": (("spec",), lambda spec: tune(spec)),
    "LookupTable": (
        ("metadata", "table entry 0"),
        lambda **kw: LookupTable(
            [kw.get("table entry 0", TableEntry(0.0, clf_angles(1), None))], kw.get("metadata", {})
        ),
    ),
    "build_lookup_table-ends": (("scheme", "noise", "objective"), TARGETS["build_lookup_table-ends"][1]),
}


@pytest.mark.parametrize(
    ("target", "name", "value"),
    [
        pytest.param(target, name, value, id=re.sub(" at 0x[0-9a-f]+", "", f"{target}-{name}={value!r}"))
        for target, (names, _) in TYPED.items()
        for name in names
        for value in _KINDS[name][1]
    ],
)
def test_every_typed_input_refuses_another_type(target, name, value, monkeypatch):
    # A ValueError naming the input and its kind, before any use of it: a table build tunes no point.
    monkeypatch.setattr("elfkit.tuner.tune", lambda *a, **k: pytest.fail("tuned a point"))
    kind = _KINDS[name][0]
    with pytest.raises(ValueError, match=f"^{name} must be a {re.escape(kind)}, got {re.escape(repr(value))}$"):
        TYPED[target][1](**{name: value})


def test_one_number_is_a_real_scalar():
    for value in (0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(1), np.array(0.5), np.array(1)):
        assert check("fidelity", value) is value
    for value in (True, np.True_, np.array(True), 0.5 + 0j, np.array([0.5]), [0.5], "0.5", None):
        with pytest.raises(ValueError, match=f"^fidelity must be one number, got {re.escape(repr(value))}$"):
            check("fidelity", value)


@pytest.mark.parametrize("name", sorted(INTEGERS))
def test_an_integer_input_takes_an_int_or_numpy_integer_only(name):
    assert check(name, 3) == 3 and check(name, np.int64(3)) == 3
    for value in (3.0, np.float64(3.0), 2.5):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            check(name, value)


def test_check_reads_open_and_closed_ends():
    assert check("spam_fidelity", 1.0) == 1.0 and check("fidelity", 0.0) == 0.0
    with pytest.raises(ValueError, match=r"^layer_fidelity must lie in \(0, 1\], got 0.0$"):
        check("layer_fidelity", 0.0)
    with pytest.raises(ValueError, match=r"^mu must lie in \(0, pi\), got 3.141592653589793$"):
        check("mu", math.pi)
    # Another domain, with its own label: the CLI's options, or an input passed on under another name.
    assert check("--points", 2, "[2, inf)") == 2
    with pytest.raises(ValueError, match=r"^--points must lie in \[2, inf\), got 1$"):
        check("--points", 1, "[2, inf)")


def test_every_domain_parses_to_ordered_ends():
    for name, domain in DOMAINS.items():
        lo, hi = (math.pi if end == "pi" else float(end) for end in domain[1:-1].split(", "))
        assert domain[0] in "[(" and domain[-1] in ")]" and lo < hi, name
