"""B3 — async entry service: concurrency sweep vs the serial surface.

The point-of-entry scenario (paper §1) at load: many users entering
dirty tuples at once. This bench drives the async entry service
(:mod:`repro.service`) with the shared load generator across a
concurrency sweep (1 → 64 in-flight sessions) and compares against the
**single-session serial baseline** — the pre-existing synchronous
``http.server`` explorer (`repro.explorer.web`), which serializes every
request through one handler thread and shares nothing between sessions.
An in-process `StreamProcessor` row is recorded as the no-HTTP
reference ceiling.

Per point we record throughput, client latency percentiles, the shared
probe-cache hit rate, suggestion-memo hit rate, coalesced/batched probe
counts and 429 retries. One extra point runs ``dispatch="executor"``
so the micro-batcher's coalescing counters are exercised through HTTP
(under the default ``auto`` dispatch an in-process store runs sessions
inline on the loop, where probes take the direct path).

Acceptance (ISSUE 4): async throughput at 32+ concurrent sessions must
be >= 3x the single-session serial baseline on the same machine. The
JSON snapshot lands in ``BENCH_service.json`` at the repo root.
"""

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.explorer.web import serve as serve_sync
from repro.scenarios import uk_customers as uk
from repro.service.loadgen import run_load

SESSIONS = 256
MASTER_SIZE = 40   # small population -> duplicate-heavy entry traffic
RATE = 0.15
CONCURRENCY_SWEEP = (1, 2, 4, 8, 16, 32, 64)
ACCEPT_AT = 32     # the >= 3x gate applies from this concurrency up
TARGET = 3.0
REPEAT = 2         # best-of runs per point (loopback jitter)


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        "B3 — async entry service: concurrency sweep vs serial baseline",
        ("point", "sessions/s", "vs serial", "p50 ms", "p95 ms",
         "cache hits", "memo hits", "coalesced", "batches", "429 retries"),
    )
    yield result
    result.note("serial baseline = the sync http.server explorer driven one "
                "session at a time (the pre-PR entry surface; no shared caches)")
    result.note("stream = in-process StreamProcessor (no HTTP) — the transport-free ceiling")
    result.note(f"acceptance: async throughput at {ACCEPT_AT}+ concurrent sessions "
                f">= {TARGET}x the serial baseline")
    save_table(result, "b3_service_load.txt")
    save_json(result, "BENCH_service.json")


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(MASTER_SIZE, seed=81)
    wl = uk.generate_workload(master, SESSIONS, rate=RATE, seed=82)
    rows = [r.to_dict() for r in wl.dirty.rows()]
    truth = [r.to_dict() for r in wl.clean.rows()]
    return master, wl, rows, truth


def _drive_async(master, rows, truth, concurrency, **service_options):
    """Best-of-REPEAT load runs against a fresh service per run."""
    best = None
    metrics = None
    for _ in range(REPEAT):
        engine = CerFix(uk.paper_ruleset(), master)
        server = engine.serve_async(port=0, **service_options)
        try:
            report = run_load(server.url, rows, truth, concurrency=concurrency)
            assert report.dropped == 0 and not report.errors
            if best is None or report.throughput > best.throughput:
                best = report
                metrics = server.service.metrics_json()
        finally:
            server.close()
    return best, metrics


def test_service_concurrency_sweep(table, workload):
    master, wl, rows, truth = workload

    # -- reference ceiling: in-process stream (no HTTP at all) --------------
    def stream_once():
        return CerFix(uk.paper_ruleset(), master).stream(wl.dirty, wl.clean)

    t_stream, stream_report = time_call(stream_once, repeat=1)
    assert stream_report.completed == SESSIONS
    table.add("stream (in-process)", f"{SESSIONS / t_stream:.0f}", "-",
              "-", "-", "-", "-", "-", "-", "-")

    # -- the serial baseline: sync http.server, one session at a time ------
    serial = None
    for _ in range(REPEAT + 1):  # one extra: the baseline sets the bar
        engine = CerFix(uk.paper_ruleset(), master)
        sync_server = serve_sync(engine, port=0)
        try:
            report = run_load(sync_server.url, rows, truth, concurrency=1)
            assert report.dropped == 0 and not report.errors
            if serial is None or report.throughput > serial.throughput:
                serial = report
        finally:
            sync_server.close()
    baseline = serial.throughput
    table.add("serial (sync http.server)", f"{baseline:.0f}", "1.00x",
              f"{serial.latency_percentile(.5) * 1000:.1f}",
              f"{serial.latency_percentile(.95) * 1000:.1f}",
              "-", "-", "-", "-", serial.retries_429)

    # -- the async sweep ----------------------------------------------------
    ratios = {}
    for concurrency in CONCURRENCY_SWEEP:
        report, metrics = _drive_async(master, rows, truth, concurrency)
        ratio = report.throughput / baseline
        ratios[concurrency] = ratio
        cache = metrics["probe_cache"]
        memo = metrics["suggestion_memo"]
        table.add(
            f"async c={concurrency} ({metrics['dispatch']})",
            f"{report.throughput:.0f}",
            f"{ratio:.2f}x",
            f"{report.latency_percentile(.5) * 1000:.1f}",
            f"{report.latency_percentile(.95) * 1000:.1f}",
            f"{cache['hit_rate']:.0%}",
            f"{memo['hit_rate']:.0%}",
            metrics["probes"]["coalesced"],
            metrics["probes"]["batches"],
            report.retries_429,
        )
        assert cache["hits"] > 0, "shared probe cache never hit"

    # -- coalescing through HTTP: force executor dispatch -------------------
    report, metrics = _drive_async(
        master, rows, truth, 32, dispatch="executor", batch_window_ms=2.0
    )
    table.add(
        "async c=32 (executor)",
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
    assert metrics["probes"]["batches"] > 0, "micro-batching never engaged"

    # -- acceptance ---------------------------------------------------------
    for concurrency in CONCURRENCY_SWEEP:
        if concurrency >= ACCEPT_AT:
            assert ratios[concurrency] >= TARGET, (
                f"async at {concurrency} concurrent sessions is only "
                f"{ratios[concurrency]:.2f}x the serial baseline (need {TARGET}x)"
            )
