"""Benchmark of elfkit: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload experiment --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, the seed, the workload's reason and the
counts behind each metric.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer metrics from a traced pass.

End-to-end metrics, the same on every workload:
  setup_s       median over fresh processes of start-up, the elfkit import
                and the set-up: input generation, and for the estimation
                workloads tuning their lookup tables, saving them as JSON
                and loading them back.
  peak_rss_mb   peak resident memory of the measuring process.
  ok_share      share of operations delivered: Monte Carlo runs
                (experiment), run_estimation calls (adaptive) or tuned
                points (tuning).  A call that raises fails all its
                operations; excluded runs and tune_failed entries fail too.
  work_per_s    run-rounds (experiment, adaptive) or tuned points (tuning)
                delivered per second of calls, failed calls included.
  call_ms_p50   median latency of one call: run_experiment, run_estimation,
                or tune / build_lookup_table.
  fisher_gain   geometric mean of tuned over Chebyshev Fisher information,
                from metrics.fisher_information; the estimation workloads
                score their set-up tables.

Call times in work_per_s and call_ms_p50 are scaled to a reference machine
speed by a calibration block timed between calls (``harness.SpeedProbe``);
the unscaled figures are in the details line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from harness import MIN_SAMPLES_BEYOND, OpCounts, SpeedProbe, geometric_mean, percentile

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("experiment", "adaptive", "tuning")
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_elfkit():
    src = ROOT / "src"
    if not (src / "elfkit" / "__init__.py").is_file():
        sys.exit(f"error: elfkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


# -- set-up ----------------------------------------------------------------------


def setup_child(args) -> None:
    """Body of one timed set-up process: import, inputs, tables; then report."""
    wl = import_elfkit()
    wl.make_inputs(args.workload, args.seed)
    wl.build_tables(args.workload, args.setup_child)
    print(time.monotonic(), flush=True)


def timed_setups(args, directory: str) -> list[float]:
    """Seconds from spawning a fresh process to the end of its set-up, repeated."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--setup-child", directory]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"set-up process failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


# -- measurement -------------------------------------------------------------------


class Pass:
    """Runs a workload's calls in order, in whole passes, for at least ``seconds``.

    The first pass keeps every outcome; each repeated call must reproduce the
    first pass's output exactly.  A calibration block runs between calls now
    and then, to scale the timings to the reference machine speed.
    """

    def __init__(self, wl, workload: str, ops: list[dict], tables: dict) -> None:
        self.wl, self.workload, self.ops, self.tables = wl, workload, ops, tables
        self.first: list = []
        self.latencies: list[float] = []  # at the reference machine speed
        self.unscaled: list[float] = []
        self.work = 0
        self.mismatches: list[str] = []
        self.probe = SpeedProbe()

    def run(self, seconds: float) -> None:
        n = len(self.ops)
        start = time.perf_counter()
        i = 0
        while i % n or i < 2 * MIN_SAMPLES_BEYOND or time.perf_counter() - start < seconds:
            self.probe.poll()
            self.call(i)
            i += 1

    def call(self, i: int) -> None:
        n = len(self.ops)
        op = self.ops[i % n]
        t0 = time.perf_counter()
        out = self.wl.run_op(self.workload, op, self.tables)
        self.unscaled.append(time.perf_counter() - t0)
        self.latencies.append(self.unscaled[-1] * self.probe.scale)
        self.work += out.work
        if i < n:
            self.first.append(out)
        elif self.wl.fingerprint(out) != self.wl.fingerprint(self.first[i % n]):
            self.mismatches.append(f"call {i % n} gave a different output when repeated: {op}")


def end_to_end(args, wl, tmp: str) -> tuple[dict, dict, OpCounts, list[str]]:
    setups = timed_setups(args, tmp)
    tables = wl.load_tables(args.workload, tmp)
    ops = wl.make_inputs(args.workload, args.seed)

    run = Pass(wl, args.workload, ops, tables)
    run.run(args.seconds)

    gains, errors = wl.score_tuned(wl.tuned_points(ops, run.first, tables))
    errors += run.mismatches + wl.check_kernel() + wl.check_estimates(ops, run.first)
    errors += wl.check_pipeline(ops, run.first, tables, args.seed, tmp)
    counts = wl.counts_of(run.first)
    seconds = math.fsum(run.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (counts.ok_share, "share"),
        "work_per_s": (run.work / seconds, "1/s"),
        "call_ms_p50": (1000.0 * percentile(run.latencies, 0.5), "ms"),
        "fisher_gain": (geometric_mean(gains), "ratio"),
    }
    details = {
        "setup_s_samples": setups,
        "calls_timed": len(run.latencies),
        "pass_calls": len(ops),
        "calibration_blocks": len(run.probe.blocks),
        "unscaled_work_per_s": run.work / math.fsum(run.unscaled),
        "unscaled_call_ms_p50": 1000.0 * percentile(run.unscaled, 0.5),
        "speed_scale": seconds / math.fsum(run.unscaled),
        "tuned_points": len(gains),
        "failures": failure_kinds(run.first),
        "rmse_final": [float(o.value.rmse[-1]) for o in run.first if isinstance(o.value, wl.sim.TraceSeries)],
    }
    return metrics, details, counts, errors


def failure_kinds(outcomes: list) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for out in outcomes:
        if out.raised:
            kinds[type(out.value).__name__] = kinds.get(type(out.value).__name__, 0) + 1
    return kinds


# -- environment ---------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    except (OSError, ValueError, KeyError):
        why = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return 0
    wl = import_elfkit()
    tmp = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        measure = layers.traced if args.trace else end_to_end
        metrics, details, counts, errors = measure(args, wl, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    details["counts"] = {"attempted": counts.attempted, "failed": counts.failed}
    print(json.dumps({"environment": environment(args), "details": details}))
    result = {
        "correct": not errors,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
