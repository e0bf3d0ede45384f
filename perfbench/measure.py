"""The benchmark's own arithmetic: medians, the tail-percentile rule,
failed-operation counting and span self times.

Kept free of any import from the program under test, so the tests in
``perfbench/tests`` check it on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Percentiles the tail rule may pick from, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``n`` samples."""
    return max(1, math.ceil(n * pct / 100 - 1e-9))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least
    ``pct`` percent of the samples at or below it)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


def tail_percentile(
    values: Sequence[float], candidates: Iterable[float] = TAIL_PERCENTILES
) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest candidate percentile that has at
    least :data:`MIN_BEYOND` samples strictly beyond its rank, or None
    when even the median lacks them."""
    best = None
    for pct in sorted(candidates):
        if len(values) - _rank(len(values), pct) >= MIN_BEYOND:
            best = (pct, percentile(values, pct))
    return best


@dataclass
class OpCounter:
    """Attempted and failed operations of one run.

    A failed operation is a raised call, a non-2xx response (a 429
    included), a row left incomplete where the reference completes it,
    or a session that never reaches a certain fix.
    """

    attempted: int = 0
    failed: int = 0

    def call(self, units: int, raised: bool) -> None:
        """A call covering ``units`` rows; all of them fail if it raised."""
        self.attempted += units
        if raised:
            self.failed += units

    def rows_vs_reference(self, completed: int, reference_completed: int) -> None:
        """Rows the reference completes but this output left incomplete
        (the rows were already counted as attempted by :meth:`call`)."""
        self.failed += max(0, reference_completed - completed)

    def response(self, status: int) -> None:
        self.attempted += 1
        if not 200 <= status < 300:
            self.failed += 1

    def session(self, complete: bool) -> None:
        self.attempted += 1
        if not complete:
            self.failed += 1

    def merge(self, other: "OpCounter") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- spans ---------------------------------------------------------------------


@dataclass(slots=True)
class Span:
    """One recorded call. ``parent`` is the enclosing span on the same
    thread (None for a thread's root); ``thread`` is None for a span
    that does not run on one thread's stack (a coroutine)."""

    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """``id(span) -> self time``: the span's duration minus the part of
    it that its child spans cover (children clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = s.parent
            start, end = max(s.start, p.start), min(s.end, p.end)
            if end > start:
                children[id(p)].append((start, end))
    return {id(s): s.duration - _covered(children.get(id(s), [])) for s in spans}


@dataclass
class Rollup:
    """Per-name and per-layer sums over one set of spans."""

    totals: dict[str, float]
    counts: dict[str, int]
    self_by_name: dict[str, float]
    self_by_layer: dict[str, float]
    #: span name -> Σ durations of the spans of that name that are a
    #: thread's root (no enclosing span on their thread)
    roots: dict[str, float]

    @property
    def attributed_s(self) -> float:
        """Σ self time of every span on a thread: layers + unattributed."""
        return sum(self.self_by_layer.values())

    def total(self, *names: str) -> float:
        return sum(self.totals.get(n, 0.0) for n in names)

    def count(self, *names: str) -> int:
        return sum(self.counts.get(n, 0) for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.self_by_name.get(n, 0.0) for n in names)


def rollup(spans: Sequence[Span], layer_of: dict[str, str]) -> Rollup:
    """Sum durations, counts and self times by span name and by layer.

    Spans without a thread (coroutines) count in ``totals`` and
    ``counts`` only: their time overlaps on the thread that runs them,
    so they take no part in the self-time partition of thread time.
    """
    selfs = self_times([s for s in spans if s.thread is not None])
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    roots: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += s.duration
        counts[s.name] += 1
        own = selfs.get(id(s))
        if own is not None:
            by_name[s.name] += own
            by_layer[layer_of.get(s.name, s.name)] += own
            if s.parent is None:
                roots[s.name] += s.duration
    return Rollup(dict(totals), dict(counts), dict(by_name), dict(by_layer), dict(roots))


def partition_gap(roll: Rollup, clocked_s: float) -> float:
    """Relative gap between the self-time partition and ``clocked_s``.

    ``clocked_s`` is the time the traced threads' work took by clocks
    that do not depend on the span wrappers (the benchmark's own
    operation timers, the program's shard timers). A root wrapper that
    is lost leaves clocked time no span covers; a span that escapes its
    parent's stack, or work outside the clocked operations, adds span
    time no clock saw. Either way the gap grows."""
    if clocked_s <= 0:
        return 0.0 if roll.attributed_s == 0 else math.inf
    return abs(roll.attributed_s - clocked_s) / clocked_s
