"""Arithmetic of the benchmark: percentiles, counts, span self time, machine speed.

Kept free of elfkit imports so that its tests run without the package.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# A percentile is reported only when at least this many samples lie above it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``, for 0 < q < 1.

    Raises ``ValueError`` when fewer than ``MIN_SAMPLES_BEYOND`` samples lie
    above the chosen rank, so a tail is never read off a handful of samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{100 * q:g} of {n} samples has {n - rank} beyond it; need {MIN_SAMPLES_BEYOND}"
        )
    return xs[rank - 1]


def geometric_mean(values: Sequence[float]) -> float:
    if not values or any(v <= 0.0 or not math.isfinite(v) for v in values):
        raise ValueError("geometric mean needs finite positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


@dataclass
class OpCounts:
    """Attempted and failed operations of one workload.

    An operation is what a user asked for and either got or did not: one
    Monte Carlo run, one ``run_estimation`` call, one tuned point.  A call
    that raises fails every operation it was asked to do.
    """

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        if attempted < 0 or not 0 <= failed <= attempted:
            raise ValueError(f"invalid counts: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed

    @property
    def ok_share(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operations attempted")
        return (self.attempted - self.failed) / self.attempted


class Span(NamedTuple):
    """One timed call: ``parent`` is the index of the enclosing span or -1."""

    name: str
    layer: str
    start: float
    end: float
    parent: int
    ok: bool


def self_times(spans: Sequence[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    Children of one parent run one after another, so their durations add up
    without overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]



# Seconds one calibration block takes at the reference machine speed.
REFERENCE_BLOCK_S = 0.02
_BATCH = np.linspace(-1.0, 1.0, 64 * 11 * 4).reshape(64, 11, 2, 2) * (0.5 + 0.5j)
_SMALL = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def calibration_block() -> float:
    """Seconds taken by a fixed mix of work like elfkit's, that no change to
    elfkit can move: batched 2x2 complex products, chains of single 2x2
    products, and plain interpreter work."""
    start = time.perf_counter()
    for _ in range(40):
        _BATCH @ _BATCH
        m = _SMALL
        for _ in range(40):
            m = m @ _SMALL
        sum(i * i for i in range(300))
    return time.perf_counter() - start


class SpeedProbe:
    """Times a calibration block between calls, at most every ``interval`` seconds.

    A shared machine can change speed by a factor of two within minutes.
    ``scale`` turns a time measured just after the latest block into seconds
    at the reference speed, so that runs minutes apart compare.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.blocks: list[float] = []
        self._last = -math.inf

    def poll(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.blocks.append(calibration_block())
            self._last = time.perf_counter()

    @property
    def scale(self) -> float:
        return REFERENCE_BLOCK_S / self.blocks[-1]
