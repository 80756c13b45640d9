"""Command-line surface: tuning, table building, scans, experiments, runtime curves.

Every command accepts ``--config FILE`` with a JSON object whose keys are the
command's flag names.  Its values are parsed as ``--key=value`` tokens ahead
of the explicit flags, so argparse checks them as it checks flags (a float
for an integer option, a boolean, or a list for any key but ``eps`` fails
with exit 2), a list becomes the comma form of ``--eps``, a null keeps the
default, and a later explicit flag wins.  A malformed file value fails even
where a flag overrides it.  Unknown keys are rejected; a ``config`` key is
ignored.  ``scan``, ``simulate`` and ``runtime`` write their CSV and JSON
sidecar through one writer, ``_write_outputs``; the other modules only
compute.  The effective configuration is echoed into every output sidecar so
results are regenerable from the outputs alone.  Each int and float ``Opt``
has a domain, checked after parsing by ``algebra.check`` and printed by
``--help``: one named (dashes as underscores) like a key of ``algebra.DOMAINS``
takes that entry, and only the CLI's own options write theirs here.  An
unbounded domain is not printed: ``scan``'s grid ends print the domain of
each quantity, from ``_SCAN_ENDS``, against which ``cmd_scan`` checks them.

``scan`` tunes its angles with ``tuner.build_lookup_table`` on its grid
mapped to Pi (cos theta for ``fisher`` and ``slope``), so a scan point is a
table entry, and it writes its rows in the order of its own grid.
``tune``, ``table`` and ``scan`` declare a tuning problem's options once
(``_TUNER``, and ``_OBJECTIVE`` for the first two), with ``TuneSpec``'s
defaults, which ``simulate --restarts`` also takes.

Two scales share the name "slope": ``tune --objective slope`` reports the
bias slope |d(bias)/dtheta|, and ``scan --quantity slope`` the likelihood
slope ``metrics.slope`` = f |d(bias)/dtheta| / 2 at process fidelity f.

Exit codes: 0 success, 2 usage error, 3 numeric guard tripped (a builtin
``ArithmeticError``, such as a singular likelihood), 4 I/O error.  A command
with ``--seed`` (all but ``runtime``) draws one where it is absent, and
prints it on exit 0, 3 and 4.  Sidecars are strict JSON: a non-finite figure is null.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .algebra import DOMAINS, check
from .bias import Scheme, clf_angles
from .metrics import GaussianBelief, NoiseModel, fisher_information, rhat0, slope
from .runtime_model import HardwareParams, hardware_runtime_curve
from .sim import EXPERIMENT_SCHEMES, ExperimentConfig, run_experiment
from .tuner import LookupTable, Objective, TuneSpec, build_lookup_table, tune


@dataclass(frozen=True)
class Opt:
    name: str
    type: object = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""
    domain: str | None = None  # interval such as "(0, 1]"; an int or float option named in DOMAINS takes that entry

    def __post_init__(self) -> None:
        if self.domain is None and self.type in (int, float):
            object.__setattr__(self, "domain", DOMAINS.get(self.name.replace("-", "_")))


_CONFIG = Opt("config", str, help="JSON file with flag values (flags override)")
# The domain of scan's grid ends, by quantity: theta for fisher and slope, Pi for rhat0.
_SCAN_ENDS = {"fisher": DOMAINS["mu"], "slope": DOMAINS["mu"], "rhat0": DOMAINS["pi_star"]}
_ENDS = ", ".join(f"{domain} for {quantity}" for quantity, domain in _SCAN_ENDS.items())
_COMMON = (_CONFIG, Opt("seed", int, help="master seed; drawn and printed if absent"))

_NOISE = (
    Opt("layer-fidelity", float, 1.0, help="per-layer process fidelity p"),
    Opt("spam-fidelity", float, 1.0, help="SPAM fidelity"),
)
# A tuning problem's options, with TuneSpec's defaults; tune and table also share the objective.
_TUNER = (
    Opt("scheme", str, "af", choices=tuple(s.value for s in Scheme)),
    Opt("layers", int, 1),
    Opt("restarts", int, TuneSpec.restarts),
    Opt("max-rounds", int, TuneSpec.max_rounds),
)
_OBJECTIVE = Opt(
    "objective",
    str,
    TuneSpec.objective.value,
    choices=tuple(o.value for o in Objective),
    help="slope reports |d(bias)/dtheta|",
)

OPTIONS: dict[str, tuple[Opt, ...]] = {
    "tune": _COMMON + _NOISE + _TUNER + (_OBJECTIVE, Opt("mu", float, required=True, help="tuning point theta")),
    "table": _COMMON
    + _NOISE
    + _TUNER
    + (
        _OBJECTIVE,
        Opt("grid", int, 4001, help="uniform grid size over [grid-min, grid-max]", domain="[2, inf)"),
        Opt("grid-min", float, -1.0, domain=DOMAINS["grid_point"]),
        Opt("grid-max", float, 1.0, domain=DOMAINS["grid_point"]),
        Opt("out", str, "table.json"),
    ),
    "scan": _COMMON
    + _NOISE
    + _TUNER
    + (
        Opt("quantity", str, "fisher", choices=("fisher", "slope", "rhat0"), help="slope is f |d(bias)/dtheta| / 2"),
        Opt("points", int, 41, domain="[2, inf)"),
        Opt("min", float, help=f"grid start (theta, or Pi for rhat0); domain {_ENDS}", domain="(-inf, inf)"),
        Opt("max", float, help=f"grid end; domain {_ENDS}", domain="(-inf, inf)"),
        Opt("out", str, "scan", help="output prefix (.csv and .json; a trailing .csv or .json is dropped)"),
    ),
    "simulate": _COMMON
    + _NOISE
    + (
        Opt("scheme", str, "af-elf", choices=EXPERIMENT_SCHEMES),
        Opt("true-pi", float, required=True),
        Opt("prior-mean", float, help="prior mean of Pi; needed by all but standard"),
        # Its square, the prior variance, is then a positive finite float.
        Opt("prior-std", float, 0.03, help="prior standard deviation of Pi", domain="[1e-150, 1e150]"),
        Opt("layers", int, 1),
        Opt("runs", int, 300),
        Opt("horizon", int, 20000, help="total time budget in ansatz durations"),
        Opt("table", str, help="lookup-table JSON for the engineered schemes"),
        Opt("table-grid", int, 41, help="on-the-fly table size; its ends, Pi = +-1, are flagged", domain="[3, inf)"),
        Opt("restarts", int, TuneSpec.restarts, help="restarts for on-the-fly table tuning"),
        Opt("threads", int, 1, help="at most this many worker processes (outputs are independent of it)"),
        Opt("out", str, "experiment", help="output prefix (.csv and .json; a trailing .csv or .json is dropped)"),
    ),
    "runtime": (
        _CONFIG,
        Opt("qubits", int, 100),
        Opt("depth", int, 200, help="two-qubit gate depth per layer"),
        Opt("gate-time", float, 1e-8, help="seconds per two-qubit gate layer"),
        Opt("spam-fidelity", float, 1.0, help=f"the bounds take {DOMAINS['spam']}"),
        Opt("eps", str, "1e-3,1e-4,1e-5", help=f"comma-separated target errors, each in {DOMAINS['eps']}"),
        Opt("pi", float, 0.0, help="estimand value for the error conversion"),
        Opt("infidelity-min", float, 1e-8, domain="(0, 1)"),
        Opt("infidelity-max", float, 1e-2, domain="(0, 1)"),
        Opt("points", int, 121, domain="[1, inf)"),
        Opt("out", str, "runtime", help="output prefix (.csv and .json; a trailing .csv or .json is dropped)"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elfkit",
        description="Engineered likelihood functions for amplitude estimation",
    )
    parser.add_argument("--version", action="version", version=f"elfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in OPTIONS.items():
        p = sub.add_parser(command)
        for o in opts:
            text = "; ".join(filter(None, (o.help, o.domain not in (None, "(-inf, inf)") and f"domain {o.domain}")))
            p.add_argument(f"--{o.name}", type=o.type, default=o.default, choices=o.choices, help=text)
    return parser


def _token(parser, key: str, value) -> str:
    """A config-file value as the text of its flag; a list joins into the comma form, which only ``--eps`` reads."""
    if not isinstance(value, list):
        return value if isinstance(value, str) else json.dumps(value)
    if key != "eps":
        parser.error(f"argument --{key}: invalid list value: {json.dumps(value)} (only --eps takes a list)")
    return ",".join(_token(parser, key, v) for v in value)


def _effective_config(parser, args, argv: list[str]) -> dict:
    """Option values, with the file's keys parsed as ``--key=value`` tokens ahead of the flags, each in its domain."""
    opts = OPTIONS[args.command]
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must contain a JSON object")
        if unknown := set(file_cfg) - {o.name for o in opts}:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        tokens = [f"--{k}={_token(parser, k, v)}" for k, v in file_cfg.items() if k != "config" and v is not None]
        at = argv.index(args.command) + 1
        args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
    effective = {o.name: getattr(args, o.name.replace("-", "_")) for o in opts if o.name != "config"}
    if missing := [o.name for o in opts if o.required and effective[o.name] is None]:
        raise ValueError(f"missing required option --{missing[0]}")
    for o in opts:
        if o.domain and (value := effective[o.name]) is not None:
            check(f"--{o.name}", value, o.domain)
    return effective


def _sidecar(command: str, cfg: dict, extra: dict | None = None) -> dict:
    return {"tool": "elfkit", "version": __version__, "command": command, "config": cfg, **(extra or {})}


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_outputs(command: str, cfg: dict, header, rows, extra: dict | None = None) -> None:
    """Write the CSV and its JSON sidecar at the ``--out`` prefix (a trailing .csv or .json is dropped).

    Float cells are written as the ``repr`` of a Python float, so they round-trip exactly.
    """
    base = os.path.splitext(cfg["out"])[0] if cfg["out"].endswith((".csv", ".json")) else cfg["out"]
    with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    _write_json(base + ".json", _sidecar(command, cfg, extra))
    print(f"wrote {base}.csv", file=sys.stderr)


# -- commands -------------------------------------------------------------------


def cmd_tune(cfg: dict) -> int:
    spec = TuneSpec(
        scheme=Scheme(cfg["scheme"]),
        layers=cfg["layers"],
        mu=cfg["mu"],
        fidelity=NoiseModel(cfg["layer-fidelity"], cfg["spam-fidelity"]).process_fidelity(cfg["layers"]),
        objective=Objective(cfg["objective"]),
        restarts=cfg["restarts"],
        seed=cfg["seed"],
        max_rounds=cfg["max-rounds"],
    )
    result = tune(spec)
    doc = _sidecar(
        "tune",
        cfg,
        {
            "result": {
                "x_opt": [float(v) for v in result.x_opt],
                "objective_value": result.objective_value if math.isfinite(result.objective_value) else None,
                "iterations": result.iterations,
                "restart_index": result.restart_index,
            }
        },
    )
    json.dump(doc, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def cmd_table(cfg: dict) -> int:
    noise = NoiseModel(cfg["layer-fidelity"], cfg["spam-fidelity"])
    grid = np.linspace(cfg["grid-min"], cfg["grid-max"], cfg["grid"])
    if (np.diff(grid) <= 0.0).any() or not (np.abs(grid) < 1.0).any():
        flags = f"--grid {cfg['grid']}, --grid-min {cfg['grid-min']} and --grid-max {cfg['grid-max']}"
        raise ValueError(f"{flags} must give a strictly increasing grid with a point in (-1, 1)")

    def progress(done: int, total: int) -> None:
        if done % 50 == 0 or done == total:
            print(f"tuned {done}/{total} grid points", file=sys.stderr)

    table = build_lookup_table(
        Scheme(cfg["scheme"]),
        cfg["layers"],
        noise,
        grid,
        restarts=cfg["restarts"],
        seed=cfg["seed"],
        objective=Objective(cfg["objective"]),
        progress=progress,
        max_rounds=cfg["max-rounds"],
    )
    doc = table.to_json_dict()
    doc["config"] = cfg
    out = cfg["out"] if cfg["out"].endswith(".json") else cfg["out"] + ".json"
    _write_json(out, doc)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_scan(cfg: dict) -> int:
    scheme = Scheme(cfg["scheme"])
    layers = cfg["layers"]
    noise = NoiseModel(cfg["layer-fidelity"], cfg["spam-fidelity"])
    f = noise.process_fidelity(layers)
    quantity = cfg["quantity"]
    over_pi = quantity == "rhat0"
    lo = cfg["min"] if cfg["min"] is not None else (-0.9 if over_pi else 0.1)
    hi = cfg["max"] if cfg["max"] is not None else (0.9 if over_pi else math.pi - 0.1)
    for name, end in (("--min", lo), ("--max", hi)):
        check(name, end, _SCAN_ENDS[quantity])
    grid = np.linspace(lo, hi, cfg["points"])
    # The table's grid is the scan's in Pi, in increasing order: distinct points, none at Pi = +-1 (a flagged entry).
    pis = grid if over_pi else np.cos(grid)
    ordered = np.sort(pis)  # np.cos need not be monotone in the last bit; np.unique would load numpy.ma
    if ordered[0] == -1.0 or ordered[-1] == 1.0 or (ordered[1:] == ordered[:-1]).any():
        raise ValueError(f"--min {lo}, --max {hi} and --points {cfg['points']} must give distinct Pi values in (-1, 1)")
    step = 1 if pis[0] < pis[-1] else -1
    table = build_lookup_table(
        scheme,
        layers,
        noise,
        pis[::step],
        restarts=cfg["restarts"],
        seed=cfg["seed"],
        objective=Objective.SLOPE if quantity == "slope" else Objective.FISHER,
        max_rounds=cfg["max-rounds"],
    )
    clf = clf_angles(layers)
    evaluate = {"fisher": fisher_information, "slope": slope, "rhat0": rhat0}[quantity]
    entries = table.entries[::step]
    rows = [(v, evaluate(scheme, v, f, clf), evaluate(scheme, v, f, e.angles)) for v, e in zip(grid.tolist(), entries)]
    _write_outputs("scan", cfg, ["theta_or_pi", "clf_value", "elf_value"], rows)
    return 0


def cmd_simulate(cfg: dict) -> int:
    if cfg["table"] and not cfg["scheme"].endswith("elf"):
        raise ValueError(f"--table is read only by the engineered schemes, not by --scheme {cfg['scheme']}")
    if (mean := cfg["prior-mean"]) is None and cfg["scheme"] != "standard":
        raise ValueError(f"missing option --prior-mean, which --scheme {cfg['scheme']} needs")
    # The Chebyshev twin of an engineered scheme makes every check but the
    # table's, so a bad setting fails before a table is loaded or tuned.
    config = ExperimentConfig(
        scheme=cfg["scheme"].replace("elf", "clf"),
        true_pi=cfg["true-pi"],
        prior_pi=None if mean is None else GaussianBelief(mean, cfg["prior-std"] ** 2),
        layers=cfg["layers"],
        noise=NoiseModel(cfg["layer-fidelity"], cfg["spam-fidelity"]),
        runs=cfg["runs"],
        horizon=cfg["horizon"],
        master_seed=cfg["seed"],
        threads=cfg["threads"],
    )
    if cfg["scheme"].endswith("elf"):
        if cfg["table"]:
            table = LookupTable.load(cfg["table"])
        else:
            print(f"building a {cfg['table-grid']}-point lookup table (pass --table to reuse one)", file=sys.stderr)
            table = build_lookup_table(
                config.bias_scheme,
                cfg["layers"],
                config.noise,
                cfg["table-grid"],
                restarts=cfg["restarts"],
                seed=cfg["seed"],
                max_rounds=100,
            )
        config = replace(config, scheme=cfg["scheme"], table=table)
    traces = run_experiment(config)
    columns = (traces.times, traces.rmse, traces.inv_mse, traces.bias_sq, traces.var_est, traces.mean_perceived_var)
    _write_outputs(
        "simulate",
        cfg,
        ["time", "rmse", "inv_mse", "bias_sq", "var_est", "mean_perceived_var"],
        zip(*(c.tolist() for c in columns)),
        {
            "growth_rate": traces.growth_rate if math.isfinite(traces.growth_rate) else None,
            "excluded_runs": traces.excluded_runs,
            "final_rmse": float(traces.rmse[-1]) if math.isfinite(traces.rmse[-1]) else None,
        },
    )
    return 0


def cmd_runtime(cfg: dict) -> int:
    hw = HardwareParams(cfg["qubits"], cfg["depth"], cfg["gate-time"], cfg["spam-fidelity"])
    try:
        eps_list = [float(v) for v in cfg["eps"].split(",")]
    except ValueError:
        raise ValueError(f"--eps must be comma-separated numbers, got {cfg['eps']!r}") from None
    grid = 1.0 - np.geomspace(cfg["infidelity-max"], cfg["infidelity-min"], cfg["points"])
    points = hardware_runtime_curve(hw, eps_list, f2q_grid=grid, pi=cfg["pi"])
    _write_outputs(
        "runtime",
        cfg,
        ["f2q", "eps", "t_lower_s", "t_upper_s", "t_mid_s", "flags"],
        [
            (p.gate_fidelity, p.eps, p.t_lower_s, p.t_upper_s, p.t_mid_s, "ok" if p.valid else "lam_gt_1")
            for p in points
        ],
    )
    return 0


_HANDLERS = {"tune": cmd_tune, "table": cmd_table, "scan": cmd_scan, "simulate": cmd_simulate, "runtime": cmd_runtime}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    drawn = None  # a seed drawn for the run; printed unless the run never starts (exit 2)
    try:
        cfg = _effective_config(parser, args, argv)
        if "seed" in cfg and cfg["seed"] is None:
            cfg["seed"] = drawn = int.from_bytes(os.urandom(6), "big")
        status = _HANDLERS[args.command](cfg)
    except ArithmeticError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        status = 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        status = 4
    if drawn is not None:
        print(f"seed: {drawn}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
