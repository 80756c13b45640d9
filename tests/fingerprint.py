"""Output fingerprints: one SHA-256 per named output item, and a comparison of two fingerprint files.

    PYTHONPATH=src python tests/fingerprint.py write FILE [--quick]
    PYTHONPATH=src python tests/fingerprint.py compare OLD NEW

``write`` computes every item with the ``elfkit`` found on the path, so one
copy of this script fingerprints any tree: point ``PYTHONPATH`` at that
tree's ``src``.  The items are

- ``tune/...``: a census of tunes, both objectives, both schemes, L = 1..3
  (the angles' bytes, the objective, the iterations and the winning start);
- ``table/...``: ``build_lookup_table`` entries for AF and AB at L = 2;
- ``traces/...``: every ``TraceSeries`` field of the five schemes over two
  chunks of runs, with one worker and with two;
- ``records/...``: every record of one ``run_estimation`` call, AF and AB
  at L = 2 with the tables' angles and the Chebyshev angles, and AB at L = 1
  near Pi = 1 (its time, outcome and theta moments, and its ``theta_belief``
  and ``pi_belief`` moments, each read by attribute, so that trees whose
  records hold other fields hash alike);
- ``cli/...``: the outputs of the commands of ``CLI_COMMANDS``, each JSON
  sidecar without its ``out`` path (``tests/test_cli.py`` runs each of them
  too, for exit 0 and strict JSON);
- ``series/...``: the kernel read directly, AF and AB at L = 1, 3 and 5:
  ``bias_series`` of a seeded (33, 2L) angle matrix (``matrix``) and of the
  Chebyshev vector (``clf``), and ``bias`` and ``bias_derivative`` on a
  17-point theta grid against each row of that matrix (``pair``).

``--quick`` writes a small subset of each kind (of ``series/`` only
``series/af/L3/matrix``).  ``compare`` lists the items
whose hashes differ or that one file lacks, and exits 1 if there is any.  The
hashes are of exact bits, and numpy's SIMD paths may change last bits between
machines, so compare files written on one machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import census_cli
from elfkit import cli
from elfkit.bias import Scheme, bias, bias_derivative, bias_series, clf_angles
from elfkit.inference import EstimationConfig, run_estimation
from elfkit.metrics import GaussianBelief, NoiseModel
from elfkit.sim import EXPERIMENT_SCHEMES, ExperimentConfig, run_experiment
from elfkit.tuner import Objective, TuneSpec, build_lookup_table, tune

DEVICE = NoiseModel(0.95, 0.99)
CLI_COMMANDS = {
    "tune-slope": "tune --mu 1.3 --objective slope --seed 1",
    "tune-singular": "tune --mu 1e-7 --seed 1 --restarts 2 --max-rounds 5",
    "scan-slope": "scan --quantity slope --points 5 --seed 1",
    "scan-rhat0": "scan --quantity rhat0 --points 3 --seed 1",
    "scan-rhat0-l2": "scan --quantity rhat0 --layers 2 --points 3 --seed 1",
    "scan-descending": "scan --quantity fisher --min 2.5 --max 0.5 --points 5 --seed 1",
    "simulate-ab-clf": "simulate --scheme ab-clf --layers 3 --true-pi 0.3 --prior-mean 0.32 --runs 70 --horizon 700"
    " --seed 1",
    "simulate-short": "simulate --scheme af-clf --layers 1 --true-pi 0.3 --prior-mean 0.3 --runs 4 --horizon 3"
    " --seed 1",
    "simulate-standard": "simulate --scheme standard --true-pi 0.3 --runs 70 --horizon 700 --seed 1",
    **{
        f"simulate-ab-elf-threads{t}": "simulate --scheme ab-elf --layers 2 --true-pi 0.3 --prior-mean 0.32 --runs 130"
        f" --horizon 500 --table-grid 9 --restarts 2 --seed 1 --threads {t}"
        for t in (1, 2)
    },
    "table": "table --grid 9 --restarts 2 --seed 1",
    "runtime": "runtime --points 5",
}
QUICK_CLI = ("tune-singular", "runtime")


def _digest(*parts) -> str:
    """SHA-256 of the parts: an array by dtype, shape and bytes, bytes as they are, anything else by ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        else:
            h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def tune_items(quick: bool) -> dict:
    items = {}
    for scheme in (Scheme.AF, Scheme.AB):
        for layers in (1,) if quick else (1, 2, 3):
            for mu in (1.1,) if quick else (0.4, 1.1, 2.3):
                for f in (1.0, 0.9):
                    for objective in Objective:
                        spec = TuneSpec(scheme, layers, mu, f, objective, restarts=3, seed=7, max_rounds=100)
                        r = tune(spec)
                        name = f"tune/{scheme.value}/L{layers}/mu{mu}/f{f}/{objective.value}"
                        items[name] = _digest(r.x_opt, r.objective_value, r.iterations, r.restart_index)
    return items


def _tables(quick: bool) -> dict:
    pairs = [(Scheme.AF, 1)] if quick else [(Scheme.AF, 2), (Scheme.AB, 2)]
    grid, restarts = (5, 1) if quick else (9, 3)
    return {(s, n): build_lookup_table(s, n, DEVICE, grid, restarts=restarts, seed=1) for s, n in pairs}


def table_items(tables: dict) -> dict:
    items = {}
    for (scheme, layers), table in tables.items():
        entries = [v for e in table.entries for v in (e.pi, e.angles, e.objective, e.flag)]
        items[f"table/{scheme.value}/L{layers}"] = _digest(*entries)
    return items


def trace_items(tables: dict, quick: bool) -> dict:
    items = {}
    layers = 1 if quick else 2
    for scheme in ("af-clf", "standard") if quick else EXPERIMENT_SCHEMES:
        bias_scheme = Scheme.AB if scheme.startswith("ab") else Scheme.AF
        table = tables[bias_scheme, layers] if scheme.endswith("elf") else None
        for threads in (1,) if quick else (1, 2):
            # 70 runs are two chunks of sim.CHUNK_SIZE = 64.
            config = ExperimentConfig(
                scheme, 0.3, GaussianBelief(0.32, 0.03**2), layers, DEVICE, 70, 200 if quick else 500, 1, table, threads
            )
            traces = run_experiment(config)
            values = [getattr(traces, field.name) for field in dataclasses.fields(traces)]
            items[f"traces/{scheme}/threads{threads}"] = _digest(*values)
    return items


def record_items(tables: dict, quick: bool) -> dict:
    items = {}
    runs = [(scheme, layers, "table", 0.3, 0.32, 0.03) for scheme, layers in tables]
    if not quick:  # the Chebyshev angles, and last the benchmark's near-edge prior
        runs += [(s, 2, "clf", 0.3, 0.32, 0.03) for s in (Scheme.AF, Scheme.AB)]
        runs.append((Scheme.AB, 1, "clf", 0.995, 0.9, 0.2))
    for scheme, layers, source, pi, mean, sd in runs:
        table = tables[scheme, layers] if source == "table" else None
        config = EstimationConfig(scheme, layers, DEVICE, GaussianBelief(mean, sd * sd), pi, 500, 1, source, table)
        records = run_estimation(config)
        counts = np.array([(r.cumulative_time, r.outcome) for r in records])
        moments = np.array([
            (r.theta_mean, r.theta_variance, r.theta_belief.mean, r.theta_belief.variance, r.pi_belief.mean,
             r.pi_belief.variance)
            for r in records
        ])
        items[f"records/{scheme.value}-{source}/L{layers}/pi{pi:+}"] = _digest(counts, moments)
    return items


def series_items(quick: bool) -> dict:
    items = {}
    theta = np.linspace(0.0, np.pi, 17)
    for scheme in (Scheme.AF, Scheme.AB):
        for layers in (1, 3, 5):
            x = np.random.default_rng(layers).uniform(-np.pi, np.pi, (33, 2 * layers))
            rows = x[:, None, :]  # one run per row, against the whole grid
            name = f"series/{scheme.value}/L{layers}"
            items[f"{name}/matrix"] = _digest(bias_series(scheme, x))
            items[f"{name}/clf"] = _digest(bias_series(scheme, clf_angles(layers)))
            items[f"{name}/pair"] = _digest(bias(scheme, theta, rows), bias_derivative(scheme, theta, rows))
    return {"series/af/L3/matrix": items["series/af/L3/matrix"]} if quick else items


def _normalized(path: str) -> bytes:
    """A file's bytes; a JSON sidecar without the ``out`` path of its config."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not path.endswith(".json"):
        return data
    doc = json.loads(data)
    doc.get("config", {}).pop("out", None)
    return json.dumps(doc, sort_keys=True).encode()


def cli_items(quick: bool) -> dict:
    items = {}
    for name in QUICK_CLI if quick else CLI_COMMANDS:
        argv = CLI_COMMANDS[name].split()
        with tempfile.TemporaryDirectory() as tmp:
            if argv[0] != "tune":
                argv += ["--out", os.path.join(tmp, "out")]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(argv)
            files = [(f, _normalized(os.path.join(tmp, f))) for f in sorted(os.listdir(tmp))]
        items[f"cli/{name}"] = _digest(status, out.getvalue(), *files)
    return items


def fingerprints(quick: bool = False) -> dict:
    tables = _tables(quick)
    items = {
        **tune_items(quick),
        **table_items(tables),
        **trace_items(tables, quick),
        **record_items(tables, quick),
        **cli_items(quick),
        **series_items(quick),
    }
    return dict(sorted(items.items()))


def differing(old: dict, new: dict) -> tuple[list[str], bool]:
    """One line per item whose hash differs, or that only one of the two holds (else one line saying so),
    and whether there is any."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"{name}: only in the old file")
        elif name not in old:
            lines.append(f"{name}: only in the new file")
        elif old[name] != new[name]:
            lines.append(f"{name}: differs")
    return lines or [f"no item differs ({len(old)} items)"], bool(lines)


def main(argv=None) -> int:
    helps = (
        "fingerprint the outputs of the elfkit on the path",
        "a small subset of each kind of item",
        "list the items that differ between two fingerprint files",
    )
    return census_cli.main(argv, __doc__, helps, fingerprints, differing)


if __name__ == "__main__":
    sys.exit(main())
