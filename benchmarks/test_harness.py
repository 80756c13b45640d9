"""Tests of the benchmark's own arithmetic: self time, percentiles, counts, tracing."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from harness import REFERENCE_BLOCK_S, OpCounts, Span, SpeedProbe, geometric_mean, percentile, self_times  # noqa: E402
from layers import Observed, enclosing, layer_metrics, pass_accounting  # noqa: E402
from tracing import Tracer  # noqa: E402


def span(name, start, end, parent, ok=True):
    return Span(name, name.split(".")[0], start, end, parent, ok)


# A root call with two calls of the same function under it, one of which
# calls a third layer, followed by a second root.
NESTED = [
    span("tuner.tune", 0.0, 10.0, -1),
    span("csbd.CoefficientTable", 1.0, 4.0, 0),
    span("algebra.observable", 2.0, 3.0, 1),
    span("csbd.CoefficientTable", 5.0, 7.0, 0),
    span("bias.bias", 11.0, 12.5, -1),
]


class TestSelfTime:
    def test_nested_and_repeated_spans(self):
        assert self_times(NESTED) == [5.0, 2.0, 1.0, 2.0, 1.5]

    def test_self_times_add_up_to_roots(self):
        assert sum(self_times(NESTED)) == 10.0 + 1.5

    def test_layer_totals_sum_repeated_calls(self):
        observed = Observed()
        observed.tunes = 1
        m = layer_metrics(NESTED, observed)
        assert m["csbd.self_s"] == (4.0, "s")
        assert m["csbd.calls"] == (2, "count")
        assert m["tuner.self_s"] == (5.0, "s")
        assert m["csbd.CoefficientTable.us_per_call"] == (2.5e6, "us")
        assert m["tuner.tables_per_tune"] == (2.0, "count")
        assert m["sim.calls"] == (0, "count")

    def test_enclosing_finds_innermost_named_ancestor(self):
        assert enclosing(NESTED, "csbd.CoefficientTable") == [-1, 1, 1, 3, -1]

    def test_pass_accounting(self):
        everything = range(len(NESTED))
        harness_s, errors = pass_accounting(NESTED, everything, wall=12.0)
        assert errors == []
        assert harness_s == pytest.approx(0.5)
        _, errors = pass_accounting(NESTED, everything, wall=11.0)
        assert errors
        harness_s, errors = pass_accounting(NESTED, [4], wall=2.0)
        assert (harness_s, errors) == (0.5, [])


class TestPercentile:
    def test_median_needs_ten_samples_beyond(self):
        values = list(range(1, 21))
        assert percentile(values, 0.5) == 10
        with pytest.raises(ValueError, match="9 beyond"):
            percentile(values[:19], 0.5)

    def test_p90_needs_a_hundred_samples(self):
        values = [float(v) for v in range(100, 0, -1)]
        assert percentile(values, 0.9) == 90.0
        with pytest.raises(ValueError):
            percentile(values[:99], 0.9)

    def test_rejects_quantile_outside_open_interval(self):
        with pytest.raises(ValueError):
            percentile(range(100), 1.0)

    def test_speed_probe_scales_to_the_latest_block(self, monkeypatch):
        blocks = iter([0.04, 0.01])
        monkeypatch.setattr(harness, "calibration_block", lambda: next(blocks))
        probe = SpeedProbe(interval=3600.0)
        probe.poll()
        probe.poll()  # within the interval: no new block
        assert probe.scale == REFERENCE_BLOCK_S / 0.04
        probe.interval = 0.0
        probe.poll()
        assert probe.blocks == [0.04, 0.01]
        assert probe.scale == REFERENCE_BLOCK_S / 0.01

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCounts:
    def test_raised_call_fails_all_its_operations(self):
        counts = OpCounts()
        counts.add(64, 64)  # run_experiment raised
        counts.add(64, 2)  # two excluded runs
        counts.add(1)
        assert (counts.attempted, counts.failed) == (129, 66)
        assert counts.ok_share == pytest.approx(63 / 129)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            OpCounts().add(1, 2)
        with pytest.raises(ValueError):
            OpCounts().ok_share

    def test_edge_experiment_is_counted_not_dropped(self):
        import workloads as wl

        op = dict(wl.EDGE_EXPERIMENT, seed=0)
        out = wl.run_op("experiment", op, {})
        assert out.raised
        counts = wl.counts_of([out])
        assert (counts.attempted, counts.failed) == (wl.EXPERIMENT_RUNS, wl.EXPERIMENT_RUNS)


def make_package():
    """Two modules: ``a`` defines f (calling g) and a class; ``b`` imports f."""
    a = types.ModuleType("pkg.a")
    exec(
        "def g(x):\n    return x + 1\n"
        "def f(x):\n    return 2 * g(x)\n"
        "class Box:\n    def __init__(self, v):\n        self.v = v\n"
        "    def get(self):\n        return g(self.v)\n",
        a.__dict__,
    )
    b = types.ModuleType("pkg.b")
    b.f = a.f
    return a, b


class TestTracer:
    def test_wraps_every_binding_site_and_restores(self):
        a, b = make_package()
        original = a.f
        seen = []
        tracer = Tracer([a, b], observers={"a.f": lambda args, kwargs, result: seen.append(result)})
        tracer.install()
        try:
            assert b.f(1) == 4
            assert a.Box(5).get() == 6
        finally:
            tracer.uninstall()
        assert a.f is original and b.f is original
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("a.f", -1), ("a.g", 0), ("a.Box", -1), ("a.Box.get", -1), ("a.g", 3)]
        assert seen == [4]

    def test_failed_call_is_recorded(self):
        a, _ = make_package()
        tracer = Tracer([a])
        tracer.install()
        try:
            with pytest.raises(TypeError):
                a.f("x")
        finally:
            tracer.uninstall()
        assert [s.ok for s in tracer.spans] == [False, False]
