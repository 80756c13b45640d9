"""The traced run: per-layer metrics of one workload, and a kernel sweep.

The workload's set-up, one pass of its calls and the checks run with every
public elfkit function traced (see ``tracing``).  Each call of the pass also
runs untraced, and the ratio of the two wall times is the tracing overhead.
Per-call times are inclusive: a call's time includes the calls it makes.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np

from harness import OpCounts, self_times
from tracing import Tracer

LAYERS = ("algebra", "bias", "csbd", "tuner", "inference", "sim", "metrics", "cli")
PER_CALL = {
    "bias.bias.us_per_call": "bias.bias",
    "bias.bias_derivative.us_per_call": "bias.bias_derivative",
    "csbd.CoefficientTable.us_per_call": "csbd.CoefficientTable",
    "csbd.coefficients.us_per_call": "csbd.CoefficientTable.coefficients",
    "tuner.objective_value.us_per_call": "tuner.objective_value",
    "tuner.batch_angles.us_per_call": "tuner.LookupTable.batch_angles",
    "inference.fit_sinusoid.us_per_call": "inference.fit_sinusoid",
    "inference.bayes_update.us_per_call": "inference.bayes_update",
    "inference.pi_to_theta.us_per_call": "inference.pi_to_theta",
    "inference.theta_to_pi.us_per_call": "inference.theta_to_pi",
}
SWEEP_LAYERS = (1, 4, 16, 64)
SWEEP_THETAS = 704  # 64 runs x 11 fit points: the thetas of one lockstep round
SWEEP_SECONDS = 0.2  # per timed quantity


class Observed:
    """Counts taken from the arguments and results of traced calls."""

    def __init__(self) -> None:
        self.tunes = 0
        self.tunes_at_max_rounds = 0
        self.runs = 0
        self.excluded = 0
        self.run_rounds = 0

    def tune(self, args, kwargs, result) -> None:
        spec = args[0]
        self.tunes += 1
        self.tunes_at_max_rounds += result.iterations >= spec.max_rounds

    def experiment(self, args, kwargs, result) -> None:
        config = args[0]
        self.runs += config.runs
        self.excluded += len(result.excluded_runs)
        self.run_rounds += (config.runs - len(result.excluded_runs)) * (config.horizon // (2 * config.layers + 1))


def enclosing(spans, name: str) -> list[int]:
    """Index of the innermost span called ``name`` around each span (itself included), or -1."""
    out = []
    for i, s in enumerate(spans):
        if s.name == name:
            out.append(i)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


def layer_metrics(spans, observed: Observed) -> dict:
    own = self_times(spans)
    metrics = {}
    for layer in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.layer == layer]
        metrics[f"{layer}.self_s"] = (math.fsum(own[i] for i in idx), "s")
        metrics[f"{layer}.calls"] = (len(idx), "count")
    for metric, name in PER_CALL.items():
        durations = [s.end - s.start for s in spans if s.name == name]
        metrics[metric] = (1e6 * math.fsum(durations) / len(durations) if durations else 0.0, "us")

    tables = sum(1 for s in spans if s.name == "csbd.CoefficientTable")
    metrics["tuner.tables_per_tune"] = (tables / observed.tunes if observed.tunes else 0.0, "count")
    share = observed.tunes_at_max_rounds / observed.tunes if observed.tunes else 0.0
    metrics["tuner.max_rounds_share"] = (share, "share")

    in_run = enclosing(spans, "sim.run_experiment")
    sim_self = math.fsum(
        own[i] for i, s in enumerate(spans) if s.layer == "sim" and in_run[i] >= 0 and spans[in_run[i]].ok
    )
    per_round = 1e6 * sim_self / observed.run_rounds if observed.run_rounds else 0.0
    metrics["sim.self_us_per_run_round"] = (per_round, "us")
    metrics["sim.excluded_share"] = (observed.excluded / observed.runs if observed.runs else 0.0, "share")

    in_cli = enclosing(spans, "cli.main")
    cli_calls = [s for s in spans if s.name == "cli.main"]
    inner = math.fsum(
        s.end - s.start for i, s in enumerate(spans) if s.name == "sim.run_experiment" and in_cli[i] >= 0
    )
    overhead = (math.fsum(s.end - s.start for s in cli_calls) - inner) / len(cli_calls) if cli_calls else 0.0
    metrics["cli.overhead_s"] = (overhead, "s")
    return metrics


def pass_accounting(spans, indices: list[int], wall: float) -> tuple[float, list[str]]:
    """Harness time of a traced pass, and whether its spans add up.

    ``indices`` select the pass's spans, whose parents lie in the pass too.
    Module self times must add up to the root spans' durations, and those to
    no more than the pass's wall time; the rest is the harness's own time.
    """
    own_all = self_times(spans)
    own = math.fsum(own_all[i] for i in indices)
    top = math.fsum(spans[i].end - spans[i].start for i in indices if spans[i].parent < 0)
    errors = []
    if not math.isclose(own, top, rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"self times add up to {own!r} s, root spans to {top!r} s")
    if not 0.0 <= top <= wall:
        errors.append(f"root spans cover {top!r} s of a {wall!r} s traced pass")
    return wall - top, errors


def _time_per_call(fn) -> float:
    """Median seconds per call of ``fn`` over about SWEEP_SECONDS of calls."""
    samples = []
    start = time.perf_counter()
    while len(samples) < 5 or time.perf_counter() - start < SWEEP_SECONDS:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def kernel_sweep(wl) -> dict:
    """Scalar and batched ancilla-free bias, and coefficient tables, against L."""
    rng = np.random.default_rng(0)
    thetas = np.linspace(0.1, math.pi - 0.1, SWEEP_THETAS)
    metrics = {}
    for layers in SWEEP_LAYERS:
        x = rng.uniform(-math.pi, math.pi, 2 * layers)
        scalar = _time_per_call(lambda: wl.bias.bias(wl.AF, 1.1, x))
        batch = _time_per_call(lambda: wl.bias.bias(wl.AF, thetas, x))
        table = _time_per_call(lambda: wl.csbd.CoefficientTable(wl.AF, 1.1, x))
        metrics[f"bias.scalar_us.L{layers}"] = (1e6 * scalar, "us")
        metrics[f"bias.batch_us.L{layers}"] = (1e6 * batch, "us")
        metrics[f"csbd.table_build_us.L{layers}"] = (1e6 * table, "us")
    return metrics


def traced(args, wl, tmp: str) -> tuple[dict, dict, OpCounts, list[str]]:
    observed = Observed()
    tracer = Tracer(
        wl.LAYER_MODULES,
        observers={"tuner.tune": observed.tune, "sim.run_experiment": observed.experiment},
    )
    ops = wl.make_inputs(args.workload, args.seed)

    tracer.install()
    try:
        tables = wl.build_tables(args.workload, tmp)
    finally:
        tracer.uninstall()

    # Each call runs once untraced and once traced, in alternating order, so
    # that drifts in machine speed cancel out of the overhead.
    untraced, outcomes, in_pass = [], [], []
    wall = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced_call in (i % 2 == 0, i % 2 == 1):
            if traced_call:
                tracer.install()
                first = tracer.mark()
            start = time.perf_counter()
            try:
                out = wl.run_op(args.workload, op, tables)
            finally:
                wall[traced_call] += time.perf_counter() - start
                if traced_call:
                    tracer.uninstall()
                    in_pass += range(first, tracer.mark())
            (outcomes if traced_call else untraced).append(out)

    tracer.install()
    try:
        _, errors = wl.score_tuned(wl.tuned_points(ops, outcomes, tables))
        errors += wl.check_estimates(ops, outcomes)
        errors += wl.check_pipeline(ops, outcomes, tables, args.seed, tmp)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    harness_s, accounting = pass_accounting(spans, in_pass, wall[True])
    errors += accounting + wl.check_kernel()
    errors += [
        f"call {i} differs between the untraced and the traced pass: {op}"
        for i, (op, a, b) in enumerate(zip(ops, untraced, outcomes))
        if wl.fingerprint(a) != wl.fingerprint(b)
    ]

    metrics = layer_metrics(spans, observed)
    metrics["trace.overhead_share"] = (wall[True] / wall[False] - 1.0, "share")
    metrics.update(kernel_sweep(wl))
    details = {
        "spans": len(spans),
        "pass_calls": len(ops),
        "wall_untraced_s": wall[False],
        "wall_traced_s": wall[True],
        "harness_s_in_traced_pass": harness_s,
    }
    return metrics, details, wl.counts_of(outcomes), errors
