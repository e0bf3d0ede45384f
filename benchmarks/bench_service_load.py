"""B3 — async entry service: concurrency sweep.

The point-of-entry scenario (paper §1) at load: many users entering
dirty tuples at once. This bench drives the entry service
(:mod:`repro.service`, what ``cerfix serve`` runs) with the shared load
generator across a concurrency sweep (1 → 64 in-flight sessions) over
an in-process store (sessions run inline on the event loop, no probe
cache), plus one c=32 point over a remote store (2 in-process shard
servers: executor dispatch behind the shared probe cache, micro-batched
probes). Per point it records throughput, client latency percentiles,
probe-cache and suggestion-memo hit rates, coalesced/batched probe
counts and 429 retries; an in-process ``StreamProcessor`` run is noted
as the no-HTTP ceiling.

Acceptance: at every concurrency >= 32, async throughput is >= 0.9x
async c=1 — concurrency may not cost throughput — and the remote point
hits its probe cache and micro-batches. A run is 2,048 sessions, so
c=64 is not mostly ramp-up and drain. Each point runs 9 times, each
time back to back with a c=1 run in alternating order, and the gate
reads the median ratio of the pairs: drift of the machine's speed,
large next to a 10% margin on a shared box, cancels out of each pair.
The JSON snapshot lands in ``BENCH_service.json`` at the repo root.
"""

import gc
import statistics

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.master.shardserver import ShardCluster
from repro.scenarios import uk_customers as uk
from repro.service.loadgen import run_load

SESSIONS = 2_048   # long enough that c=64 is not mostly ramp-up and tail
MASTER_SIZE = 40   # small population -> duplicate-heavy entry traffic
RATE = 0.15
CONCURRENCY_SWEEP = (1, 2, 4, 8, 16, 32, 64)
ACCEPT_AT = 32     # the >= 0.9x gate applies from this concurrency up
TARGET = 0.9
REMOTE_SHARDS = 2
REPEAT = 9         # rounds over the sweep, each point paired with a c=1 run
REMOTE_REPEAT = 3  # runs of the remote point; it keeps its best


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        "B3 — async entry service: concurrency sweep",
        ("point", "sessions/s", "vs c=1", "p50 ms", "p95 ms",
         "cache hit rate", "memo hit rate", "coalesced", "batches", "429 retries"),
        key=("point",),
    )
    yield result
    result.note(f"vs c=1 = median over {REPEAT} rounds of the point's throughput over a "
                "c=1 run paired with it (in-process store); the remote row's is best over best")
    save_table(result, "b3_service_load.txt")
    save_json(result, "BENCH_service.json")


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(MASTER_SIZE, seed=81)
    wl = uk.generate_workload(master, SESSIONS, rate=RATE, seed=82)
    rows = [r.to_dict() for r in wl.dirty.rows()]
    truth = [r.to_dict() for r in wl.clean.rows()]
    return master, wl, rows, truth


def _drive_async(master, rows, truth, concurrency, cluster=None, **service_options):
    """One load run against a fresh service over an in-process store,
    or over ``cluster``: (report, metrics)."""
    remote = {} if cluster is None else {"store": "remote", "store_urls": list(cluster.urls)}
    engine = CerFix(uk.paper_ruleset(), master, **remote)
    server = engine.serve_async(port=0, **service_options)
    try:
        report = run_load(server.url, rows, truth, concurrency=concurrency)
        assert report.dropped == 0 and not report.errors
        return report, server.service.metrics_json()
    finally:
        server.close()
        if cluster is not None:
            engine.master.store.close()


def _best(runs):
    return max(runs, key=lambda run: run[0].throughput)


def _add_row(table, point, report, metrics, vs_c1):
    table.add(
        point,
        round(report.throughput),
        round(vs_c1, 2),
        round(report.latency_percentile(.5) * 1000, 1),
        round(report.latency_percentile(.95) * 1000, 1),
        round(metrics["probe_cache"]["hit_rate"], 2),
        round(metrics["suggestion_memo"]["hit_rate"], 2),
        metrics["probes"]["coalesced"],
        metrics["probes"]["batches"],
        report.retries_429,
    )


def test_service_concurrency_sweep(table, workload):
    master, wl, rows, truth = workload

    # -- reference ceiling: in-process stream (no HTTP at all) --------------
    def stream_once():
        return CerFix(uk.paper_ruleset(), master).stream(wl.dirty, wl.clean)

    t_stream, stream_report = time_call(stream_once, repeat=1)
    assert stream_report.completed == SESSIONS
    table.note(f"stream ceiling (in-process StreamProcessor, no HTTP): "
               f"{SESSIONS / t_stream:.0f} sessions/s")

    # -- the async sweep (in-process store: inline dispatch) ---------------
    # Every point runs paired with a c=1 run, the two back to back in an
    # order that alternates from round to round, so drift of the
    # machine's speed cancels out of the pair's ratio; the gate reads
    # the median ratio over the rounds. Each point's row is its best run.
    best, ratios = {}, {concurrency: [] for concurrency in CONCURRENCY_SWEEP[1:]}
    for round_no in range(REPEAT):
        for i, concurrency in enumerate(CONCURRENCY_SWEEP[1:]):
            pair = {}
            for c in (1, concurrency) if (round_no + i) % 2 == 0 else (concurrency, 1):
                gc.collect()
                pair[c] = _drive_async(master, rows, truth, c)
                best[c] = _best([best.get(c, pair[c]), pair[c]])
            ratios[concurrency].append(pair[concurrency][0].throughput / pair[1][0].throughput)
    vs_c1 = {1: 1.0, **{c: statistics.median(r) for c, r in ratios.items()}}
    for concurrency in CONCURRENCY_SWEEP:
        report, metrics = best[concurrency]
        _add_row(table, f"async c={concurrency} ({metrics['dispatch']})",
                 report, metrics, vs_c1[concurrency])
        probe_cache = metrics["probe_cache"]
        assert probe_cache["hits"] + probe_cache["misses"] == 0, (
            "an in-process store went through a probe cache"
        )

    # -- coalescing through HTTP: a remote store puts sessions off-loop -----
    cluster = ShardCluster.in_process(uk.paper_ruleset(), master, REMOTE_SHARDS)
    try:
        report, metrics = _best([
            _drive_async(master, rows, truth, 32, cluster=cluster, batch_window_ms=2.0)
            for _ in range(REMOTE_REPEAT)
        ])
    finally:
        cluster.close()
    assert metrics["dispatch"] == "executor"
    _add_row(table, f"async c=32 (remote, {REMOTE_SHARDS} in-process shards)",
             report, metrics, report.throughput / best[1][0].throughput)
    assert metrics["probe_cache"]["hits"] > 0, "shared probe cache never hit"
    assert metrics["probes"]["batches"] > 0, "micro-batching never engaged"

    # -- acceptance ---------------------------------------------------------
    for concurrency in CONCURRENCY_SWEEP:
        if concurrency >= ACCEPT_AT:
            assert vs_c1[concurrency] >= TARGET, (
                f"async at {concurrency} concurrent sessions is only "
                f"{vs_c1[concurrency]:.2f}x async c=1 (need {TARGET}x)"
            )
