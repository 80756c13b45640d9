"""Tuned-value census: the objective of fixed tunes and table entries, and a comparison of two census files.

    PYTHONPATH=src python tests/tune_census.py write FILE [--quick]
    PYTHONPATH=src python tests/tune_census.py compare OLD NEW

``write`` tunes every item with the ``elfkit`` found on the path, so one copy
of this script measures any tree: point ``PYTHONPATH`` at that tree's ``src``.
The items are

- ``tune/...``: ``tune`` with the default ``TuneSpec`` (10 restarts, seed 0,
  ``max_rounds`` 500) for AF and AB at L = 1..4 and 12 mu evenly spaced in
  [0.1, pi - 0.1], with the Fisher objective at the benchmark's device
  fidelity 0.99 * 0.95^L (``device``), at 0.9 and at 1.0, and with the slope
  objective at 0.9;
- ``table/{af,ab}/L2/...``, ``table/af/L3/...``: the entries of 41-point
  tables on the benchmark's device (layer fidelity 0.95, SPAM fidelity 0.99),
  10 restarts, seed 1, ``max_rounds`` 100;
- ``table/af/L1-noiseless/...``: the entries of the tier-1 workflow's
  noiseless AF L=1 table (``elfkit table --grid 9 --restarts 2 --seed 1``).

An item's value is its objective; ``null`` where every start is singular,
and a table entry's flag where it is flagged.  ``--quick`` writes the L=1
tunes at four mu and the noiseless table.

``compare`` prints how many items are identical, rose and fell.  It lists
each item that fell by more than 1e-12 relative, that changed whether it is
flagged or null, or that only one file holds, with both values, and exits 1
if it lists any.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import census_cli
from elfkit.bias import Scheme
from elfkit.metrics import NoiseModel
from elfkit.tuner import Objective, TuneSpec, build_lookup_table, tune

DEVICE = NoiseModel(0.95, 0.99)
MUS = np.linspace(0.1, math.pi - 0.1, 12)
QUICK_MUS = MUS[::3]
FALL_TOL = 1e-12


def _value(objective):
    """An objective as JSON holds it: ``null`` for a singular -inf, else the float."""
    return None if objective == -math.inf else objective


def tune_items(quick: bool) -> dict:
    items = {}
    for scheme in (Scheme.AF, Scheme.AB):
        for layers in (1,) if quick else (1, 2, 3, 4):
            cases = (("fisher", "device"), ("fisher", "0.9"), ("fisher", "1.0"), ("slope", "0.9"))
            for mu in QUICK_MUS if quick else MUS:
                for objective, label in cases:
                    f = DEVICE.process_fidelity(layers) if label == "device" else float(label)
                    result = tune(TuneSpec(scheme, layers, float(mu), f, Objective(objective)))
                    items[f"tune/{scheme.value}/L{layers}/mu{mu:.4f}/{objective}/{label}"] = _value(result.objective_value)
    return items


def table_items(quick: bool) -> dict:
    builds = {"af/L1-noiseless": lambda: build_lookup_table(Scheme.AF, 1, NoiseModel(), 9, restarts=2, seed=1)}
    if not quick:
        for scheme, layers in ((Scheme.AF, 2), (Scheme.AB, 2), (Scheme.AF, 3)):
            builds[f"{scheme.value}/L{layers}"] = (
                lambda s=scheme, n=layers: build_lookup_table(s, n, DEVICE, 41, restarts=10, seed=1, max_rounds=100)
            )
    return {
        f"table/{name}/pi{e.pi:+.3f}": e.flag or _value(e.objective)
        for name, build in builds.items()
        for e in build().entries
    }


def census(quick: bool = False) -> dict:
    return dict(sorted({**tune_items(quick), **table_items(quick)}.items()))


def compared(old: dict, new: dict) -> tuple[list[str], bool]:
    """(the counts of identical, rose and fell items, then one line per item listed (see the module docstring)
    or one line saying there is none; whether there is any)."""
    counts, lines = {"identical": 0, "rose": 0, "fell": 0}, []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            side = "old" if name in old else "new"
            lines.append(f"{name}: only in the {side} file ({old.get(name, new.get(name))!r})")
            continue
        a, b = old[name], new[name]
        if not (isinstance(a, float) and isinstance(b, float)):
            if a != b:
                lines.append(f"{name}: {a!r} -> {b!r} (flagged or null changed)")
            counts["identical" if a == b else "rose" if isinstance(b, float) else "fell"] += 1
            continue
        counts["identical" if b == a else "rose" if b > a else "fell"] += 1
        if b < a and (a - b) > FALL_TOL * abs(a):
            lines.append(f"{name}: {a!r} -> {b!r} (fell by {(a - b) / abs(a):.3g} relative)")
    head = ", ".join(f"{n} {key}" for key, n in counts.items()) + f" ({len(old.keys() | new.keys())} items)"
    return [head, *(lines or [f"no item fell by more than {FALL_TOL:g} relative"])], bool(lines)


def main(argv=None) -> int:
    helps = (
        "run the census with the elfkit on the path",
        "the L=1 tunes at four mu and the noiseless table",
        "list the items that fell, changed kind, or only one file holds",
    )
    return census_cli.main(argv, __doc__, helps, census, compared)


if __name__ == "__main__":
    sys.exit(main())
