"""B3 — async entry service: concurrency sweep.

The point-of-entry scenario (paper §1) at load: many users entering
dirty tuples at once. This bench drives the entry service
(:mod:`repro.service`, what ``cerfix serve`` runs) with the shared load
generator across a concurrency sweep (1 → 64 in-flight sessions). An
in-process `StreamProcessor` row is recorded as the no-HTTP reference
ceiling.

Per point we record throughput, client latency percentiles, the shared
probe-cache hit rate, suggestion-memo hit rate, coalesced/batched probe
counts and 429 retries. The sweep runs over an in-process store, so the
store kind puts sessions inline on the event loop and they probe the
store directly (no probe cache: its column reads 0%). One extra point
runs c=32 over a remote store (2 in-process shard servers): the store
kind then puts sessions on the executor behind the shared probe cache,
and the micro-batcher's coalescing counters are exercised through HTTP.

Acceptance: async throughput at every concurrency >= 32 must be
>= 0.9x async c=1 on the same machine — concurrency may not cost
throughput — and the remote point must hit its probe cache and
micro-batch. The JSON snapshot
lands in ``BENCH_service.json`` at the repo root.
"""

import contextlib

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.master.shardserver import ShardCluster
from repro.scenarios import uk_customers as uk
from repro.service.loadgen import run_load

SESSIONS = 256
MASTER_SIZE = 40   # small population -> duplicate-heavy entry traffic
RATE = 0.15
CONCURRENCY_SWEEP = (1, 2, 4, 8, 16, 32, 64)
ACCEPT_AT = 32     # the >= 0.9x gate applies from this concurrency up
TARGET = 0.9
REMOTE_SHARDS = 2
REPEAT = 3         # rounds over every point; each point keeps its best


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        "B3 — async entry service: concurrency sweep",
        ("point", "sessions/s", "vs c=1", "p50 ms", "p95 ms",
         "cache hits", "memo hits", "coalesced", "batches", "429 retries"),
    )
    yield result
    result.note("stream = in-process StreamProcessor (no HTTP) — the transport-free ceiling")
    result.note("vs c=1 = throughput relative to the async c=1 point (in-process store)")
    result.note(f"remote = the same workload over {REMOTE_SHARDS} in-process shard "
                "servers (io_bound store: executor dispatch, micro-batched probes)")
    result.note(f"acceptance: async throughput at {ACCEPT_AT}+ concurrent sessions "
                f">= {TARGET}x async c=1; the remote point batches probes")
    save_table(result, "b3_service_load.txt")
    save_json(result, "BENCH_service.json")


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(MASTER_SIZE, seed=81)
    wl = uk.generate_workload(master, SESSIONS, rate=RATE, seed=82)
    rows = [r.to_dict() for r in wl.dirty.rows()]
    truth = [r.to_dict() for r in wl.clean.rows()]
    return master, wl, rows, truth


@contextlib.contextmanager
def _engine(master, cluster=None):
    """A UK engine over an in-process store, or over ``cluster``."""
    if cluster is None:
        yield CerFix(uk.paper_ruleset(), master)
        return
    engine = CerFix(uk.paper_ruleset(), master, store="remote", store_urls=list(cluster.urls))
    try:
        yield engine
    finally:
        engine.master.store.close()


def _drive_async(master, rows, truth, concurrency, cluster=None, **service_options):
    """One load run against a fresh service: (report, metrics)."""
    with _engine(master, cluster) as engine:
        server = engine.serve_async(port=0, **service_options)
        try:
            report = run_load(server.url, rows, truth, concurrency=concurrency)
            assert report.dropped == 0 and not report.errors
            return report, server.service.metrics_json()
        finally:
            server.close()


def _best(runs):
    return max(runs, key=lambda run: run[0].throughput)


def _add_row(table, point, report, metrics, baseline):
    table.add(
        point,
        f"{report.throughput:.0f}",
        f"{report.throughput / baseline:.2f}x",
        f"{report.latency_percentile(.5) * 1000:.1f}",
        f"{report.latency_percentile(.95) * 1000:.1f}",
        f"{metrics['probe_cache']['hit_rate']:.0%}",
        f"{metrics['suggestion_memo']['hit_rate']:.0%}",
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
    table.add("stream (in-process)", f"{SESSIONS / t_stream:.0f}", "-",
              "-", "-", "-", "-", "-", "-", "-")

    # -- the async sweep (in-process store: inline dispatch) ---------------
    # Each round runs every point once, so the machine's speed drifting
    # between rounds hits every point alike (the gate compares points).
    runs = {concurrency: [] for concurrency in CONCURRENCY_SWEEP}
    for _ in range(REPEAT):
        for concurrency in CONCURRENCY_SWEEP:
            runs[concurrency].append(_drive_async(master, rows, truth, concurrency))
    baseline = _best(runs[1])[0].throughput
    ratios = {}
    for concurrency in CONCURRENCY_SWEEP:
        report, metrics = _best(runs[concurrency])
        ratios[concurrency] = report.throughput / baseline
        _add_row(table, f"async c={concurrency} ({metrics['dispatch']})",
                 report, metrics, baseline)
        probe_cache = metrics["probe_cache"]
        assert probe_cache["hits"] + probe_cache["misses"] == 0, (
            "an in-process store went through a probe cache"
        )

    # -- coalescing through HTTP: a remote store puts sessions off-loop -----
    cluster = ShardCluster.in_process(uk.paper_ruleset(), master, REMOTE_SHARDS)
    try:
        report, metrics = _best([
            _drive_async(master, rows, truth, 32, cluster=cluster, batch_window_ms=2.0)
            for _ in range(REPEAT)
        ])
    finally:
        cluster.close()
    assert metrics["dispatch"] == "executor"
    _add_row(table, f"async c=32 (remote, {REMOTE_SHARDS} in-process shards)",
             report, metrics, baseline)
    assert metrics["probe_cache"]["hits"] > 0, "shared probe cache never hit"
    assert metrics["probes"]["batches"] > 0, "micro-batching never engaged"

    # -- acceptance ---------------------------------------------------------
    for concurrency in CONCURRENCY_SWEEP:
        if concurrency >= ACCEPT_AT:
            assert ratios[concurrency] >= TARGET, (
                f"async at {concurrency} concurrent sessions is only "
                f"{ratios[concurrency]:.2f}x async c=1 (need {TARGET}x)"
            )
