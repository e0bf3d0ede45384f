"""The benchmark's own arithmetic, on synthetic inputs.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import pytest

from measure import OpCounter, Span, partition_gap, percentile, rollup, self_times, tail_percentile
from calib import NOMINAL_S, reference_seconds


def _tree():
    """Two threads plus one coroutine span:

    thread 1: root [0, 10] > a [1, 4] > g [2, 3]; root > b [5, 9]
    thread 2: w [0, 6] > c [1, 2]; w > d [3, 5]
    no thread: h [0, 10] (a coroutine; overlaps everything)
    """
    root = Span("op.clean", 0.0, 10.0, None, 1)
    a = Span("batch.cache.match", 1.0, 4.0, root, 1)
    g = Span("master.store.probe", 2.0, 3.0, a, 1)
    b = Span("core.chase.chase", 5.0, 9.0, root, 1)
    w = Span("batch.shard.run", 0.0, 6.0, None, 2)
    c = Span("core.chase.chase", 1.0, 2.0, w, 2)
    d = Span("master.store.probe", 3.0, 5.0, w, 2)
    h = Span("service.handle", 0.0, 10.0, None, None)
    return [root, a, g, b, w, c, d, h]


LAYERS = {
    "batch.cache.match": "batch.cache",
    "master.store.probe": "master.store",
    "core.chase.chase": "core.chase",
    "batch.shard.run": "batch.shard",
    "service.handle": "service",
}


def test_self_time_nested_multi_thread_tree():
    spans = _tree()
    root, a, g, b, w, c, d, _ = spans
    selfs = self_times(spans[:-1])
    assert selfs[id(root)] == pytest.approx(10 - 3 - 4)
    assert selfs[id(a)] == pytest.approx(3 - 1)
    assert selfs[id(g)] == pytest.approx(1)
    assert selfs[id(b)] == pytest.approx(4)
    assert selfs[id(w)] == pytest.approx(6 - 1 - 2)
    assert selfs[id(c)] == pytest.approx(1)
    assert selfs[id(d)] == pytest.approx(2)


def test_rollup_sums_by_layer():
    roll = rollup(_tree(), LAYERS)
    assert roll.roots == pytest.approx({"op.clean": 10, "batch.shard.run": 6})
    # Self times partition the roots' time; the coroutine span takes no part.
    assert "service" not in roll.self_by_layer
    assert roll.attributed_s == pytest.approx(10 + 6)
    assert roll.self_by_layer["op.clean"] == pytest.approx(3)  # the unattributed bucket
    assert roll.self_by_layer["master.store"] == pytest.approx(1 + 2)
    assert roll.self_by_layer["core.chase"] == pytest.approx(4 + 1)
    assert roll.total("service.handle") == pytest.approx(10)
    assert roll.count("core.chase.chase", "master.store.probe") == 4


def test_overlapping_children_are_covered_once():
    parent = Span("p", 0.0, 10.0, None, 1)
    kids = [Span("k", 1.0, 4.0, parent, 1), Span("k", 2.0, 6.0, parent, 1),
            Span("k", 8.0, 12.0, parent, 1)]  # the last one is clipped to the parent
    assert self_times([parent, *kids])[id(parent)] == pytest.approx(10 - 5 - 2)


# The clocks of _tree(): the benchmark timed op.clean at 10.0 s on thread
# 1, the program timed the shard at 6.0 s on thread 2.
CLOCKED = 10.0 + 6.0


def test_partition_gap_matches_the_clocks():
    assert partition_gap(rollup(_tree(), LAYERS), CLOCKED) == pytest.approx(0.0)


def test_partition_gap_catches_uncovered_clocked_time():
    # The shard wrapper is lost: its children become thread 2's roots,
    # and the shard's time outside them is covered by no span.
    spans = [s for s in _tree() if s.name != "batch.shard.run"]
    for s in spans:
        if s.thread == 2:
            s.parent = None
    gap = partition_gap(rollup(spans, LAYERS), CLOCKED)
    assert gap == pytest.approx((6 - 3) / CLOCKED)
    assert gap > 0.05


def test_partition_gap_catches_span_time_no_clock_saw():
    # A span that escaped its parent's stack (recorded as a root on a
    # thread the benchmark does not clock) adds time nobody clocked.
    stray = Span("core.chase.chase", 20.0, 22.0, None, 3)
    assert partition_gap(rollup([*_tree(), stray], LAYERS), CLOCKED) == pytest.approx(2 / CLOCKED)


def test_partition_gap_without_clocked_time():
    assert partition_gap(rollup([], LAYERS), 0.0) == 0.0
    assert partition_gap(rollup(_tree(), LAYERS), 0.0) == float("inf")


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 99) == 7.0


@pytest.mark.parametrize(
    "n, expected_pct",
    [
        (15, None),  # the median has only 7 samples beyond it
        (20, 50.0),  # exactly 10 beyond the median
        (100, 90.0),  # 10 beyond p90, 5 beyond p95
        (999, 95.0),  # 9 beyond p99
        (1000, 99.0),  # 10 beyond p99, 1 beyond p99.9
        (10_000, 99.9),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_pct):
    got = tail_percentile(list(range(n)))
    if expected_pct is None:
        assert got is None
    else:
        assert got[0] == expected_pct
        assert got[1] == percentile(list(range(n)), expected_pct)


def test_failed_ops_counting():
    ops = OpCounter()
    for status in (201, 200, 200, 429, 500, 404):
        ops.response(status)
    assert (ops.attempted, ops.failed) == (6, 3)  # the 429 counts as failed
    ops.session(complete=True)
    ops.session(complete=False)
    assert (ops.attempted, ops.failed) == (8, 4)

    batch = OpCounter()
    batch.call(100, raised=False)
    batch.rows_vs_reference(completed=97, reference_completed=99)
    batch.rows_vs_reference(completed=99, reference_completed=99)
    batch.call(50, raised=True)
    assert (batch.attempted, batch.failed) == (150, 2 + 50)

    ops.merge(batch)
    assert (ops.attempted, ops.failed) == (158, 56)
    assert ops.failed_frac == pytest.approx(56 / 158)
    assert OpCounter().failed_frac == 0.0


def test_reference_seconds_scale_by_host_speed():
    # The kernel ran at its nominal time: wall seconds are reference seconds.
    assert reference_seconds(1.5, NOMINAL_S, NOMINAL_S) == pytest.approx(1.5)
    # It took twice as long around the operation: the host ran at half
    # speed, so 2 s of wall time are 1 s at the reference speed.
    assert reference_seconds(2.0, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(1.0)
    # The readings before and after are averaged.
    assert reference_seconds(3.0, NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(2.0)
