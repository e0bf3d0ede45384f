"""OBS — telemetry overhead: the unified registry/tracing layer must be
near-free when tracing is off.

Four modes over the same batch-clean workload:

``baseline``
    instrumentation stubbed out (``trace.span`` and ``trace.current_ids``
    no-ops, ``Histogram.observe`` a pass) — what the code would cost had
    the telemetry layer never been written; wall-clock median of several
    GC-controlled runs;
``disabled``
    the shipped default: tracing off (``span()`` returns the NOOP
    singleton after one module-flag check), metrics registry live;
``scraped``
    the disabled default plus a Prometheus scraper hitting the process
    once per second (``record_snapshot()`` + ``dump()`` +
    ``promfmt.render()``, what ``/metrics?format=prometheus`` runs);
``enabled``
    full span export to a JSONL file at sample rate 1.0 — the worst
    case, recorded for the trajectory (no assertion); wall-clock median.

The bench asserts (:func:`assert_obs_fence`) that ``disabled`` *and*
``scraped`` throughput stay within 2% of ``baseline``.

**Why the disabled row is constructed, not raced.** A 2% bound is far
below the wall-clock noise of a shared box at this timescale: the
run-to-run coefficient of variation is 6-13% even with GC controlled,
in multi-second contention epochs, so neither best-of-N nor paired
back-to-back ratios converge (both produced phantom overheads of 4-12%
on identical code). The disabled cost is therefore built from two
*deterministic* measurements: **exact call counts** of the three
disabled-mode primitives (``trace.span``, ``trace.current_ids``,
``Histogram.observe``) during one clean run — the chase is
deterministic, so the counts are too — and **stable per-call costs**,
the min over repeats of a tight loop calling each primitive as the hot
paths do (any quiet window achieves the true cost; loop overhead is
left in, which only makes the fence stricter).
``disabled`` = baseline median + Σ(count × per-call cost), so it fails
when a disabled primitive starts to allocate or lock, or the hot path
multiplies its call sites — never because the box had a loud neighbour.
``scraped`` = disabled × (1 + per-scrape cost × 1 Hz), the per-scrape
cost timed the same way: a scrape that holds registry locks too long,
or a renderer that goes quadratic in metric count, breaks the fence.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from contextlib import contextmanager

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table
from repro.obs import metrics as metrics_mod
from repro.obs import promfmt
from repro.obs import trace as trace_mod
from repro.scenarios import uk_customers as uk

QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

ROWS = 300 if QUICK else 1_000
RUNS = 5 if QUICK else 7  # wall-clock medians (baseline, enabled)
MICRO_N = 20_000 if QUICK else 50_000  # tight-loop iterations per repeat
MICRO_REPS = 3 if QUICK else 5
WORKERS = 1  # serial: one process, no pool jitter in the counts
MASTER_SIZE = 40
RATE = 0.15

MODES = ("baseline", "disabled", "scraped", "enabled")
SCRAPE_HZ = 1.0  # the Prometheus cadence the scraped row charges for
SCRAPE_N = 20 if QUICK else 50  # scrapes per tight-loop repeat
#: disabled and scraped may each cost at most this share of baseline
MAX_OVERHEAD = 0.02


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        "OBS — telemetry overhead: batch clean per instrumentation mode",
        ("rows", "mode", "workers", "seconds", "tuples/s"),
        key=("rows", "mode", "workers"),
    )
    yield result
    result.note("baseline = instrumentation stubbed out; disabled = shipped default")
    result.note("disabled seconds = baseline + call counts x tight-loop per-call cost")
    result.note("scraped = disabled + a 1/s Prometheus scraper (snapshot+dump+render)")
    result.note(f"acceptance: disabled AND scraped within {MAX_OVERHEAD:.0%} of baseline")
    save_table(result, "obs_overhead.txt")
    save_json(result, "BENCH_obs.json")


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(MASTER_SIZE, seed=7)
    return master, uk.generate_workload(master, ROWS, rate=RATE, seed=8)


@contextmanager
def _instrumented_out():
    """Stub the telemetry call sites the obs layer added to hot paths.

    Call sites late-bind through the module (``trace.span``) and the
    class (``Histogram.observe``), so patching here reaches the chase,
    the executor, the session and the audit bridge without touching
    them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_mod, "span", lambda name, **attrs: trace_mod.NOOP)
        mp.setattr(trace_mod, "current_ids", lambda: (None, None))
        mp.setattr(metrics_mod.Histogram, "observe", lambda self, seconds: None)
        yield


@contextmanager
def _counting():
    """Count primitive invocations without changing their behaviour."""
    counts = {"span": 0, "current_ids": 0, "observe": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((trace_mod, "span"), (trace_mod, "current_ids")):
            mp.setattr(owner, name, counted(name, getattr(owner, name)))
        observe = metrics_mod.Histogram.observe
        mp.setattr(metrics_mod.Histogram, "observe", counted("observe", observe))
        yield counts


def _min_per_call(loop, n: int) -> float:
    """Seconds per iteration of ``loop(n)``, min over repeats: immune to
    contention (any quiet window achieves the true cost), loop overhead
    left in (conservative)."""
    times = []
    for _ in range(MICRO_REPS):
        started = time.perf_counter()
        loop(n)
        times.append((time.perf_counter() - started) / n)
    return min(times)


def _percall_seconds() -> dict[str, float]:
    """Disabled-mode cost of each primitive, as the hot paths call it."""

    def span_loop(n):
        span = trace_mod.span
        for _ in range(n):
            with span("bench", probes=1):
                pass

    def ids_loop(n):
        current_ids = trace_mod.current_ids
        for _ in range(n):
            current_ids()

    hist = metrics_mod.get_registry().histogram("cerfix.bench.obs_probe_seconds")

    def observe_loop(n):
        observe = hist.observe
        for _ in range(n):
            observe(0.00123)

    assert not trace_mod.enabled()
    return {
        "span": _min_per_call(span_loop, MICRO_N),
        "current_ids": _min_per_call(ids_loop, MICRO_N),
        "observe": _min_per_call(observe_loop, MICRO_N),
    }


def _per_scrape_seconds() -> float:
    """Cost of one ``/metrics?format=prometheus`` scrape of this
    process' (workload-populated) registry — snapshot, dump, render.
    The history ring is bounded, so looping scrapes does not grow the
    registry."""
    registry = metrics_mod.get_registry()

    def scrape_loop(n):
        for _ in range(n):
            registry.record_snapshot()
            promfmt.render(registry.dump())

    return _min_per_call(scrape_loop, SCRAPE_N)


def assert_obs_fence(rows: list[dict]) -> None:
    """The fence: ``disabled`` and ``scraped`` tuples/s each keep at
    least ``1 - MAX_OVERHEAD`` of the instrumented-out ``baseline``."""
    tput = {row["mode"]: row["tuples/s"] for row in rows}
    for mode in ("disabled", "scraped"):
        assert tput[mode] >= tput["baseline"] * (1 - MAX_OVERHEAD), (
            f"{mode}: {tput[mode]:g} tuples/s is "
            f"{1 - tput[mode] / tput['baseline']:.1%} below the instrumented-out "
            f"baseline {tput['baseline']:g} (budget {MAX_OVERHEAD:.0%})"
        )


def test_obs_overhead(table, workload, tmp_path_factory):
    master, wl = workload
    span_file = tmp_path_factory.mktemp("obs") / "spans.jsonl"

    def clean_once() -> float:
        engine = CerFix(uk.paper_ruleset(), master)
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        result = engine.clean_relation(wl.dirty, wl.clean, workers=WORKERS)
        elapsed = time.perf_counter() - started
        gc.enable()
        assert result.report.completed == ROWS
        return elapsed

    trace_mod.disable()  # a stray CERFIX_TRACE must not skew "disabled"
    clean_once()  # warm-up: imports, first-touch allocations, caches

    # Deterministic inputs to the disabled-mode estimate.
    with _counting() as counts:
        clean_once()
    assert counts["span"] > 0 and counts["observe"] > 0
    percall = _percall_seconds()
    per_scrape = _per_scrape_seconds()

    # Wall-clock medians for the measured modes.
    with _instrumented_out():
        base_med = statistics.median(clean_once() for _ in range(RUNS))
    trace_mod.configure(str(span_file), 1.0)
    try:
        enabled_med = statistics.median(clean_once() for _ in range(RUNS))
    finally:
        trace_mod.disable()

    instrument_cost = sum(counts[k] * percall[k] for k in counts)
    disabled_secs = base_med + instrument_cost
    estimate = {
        "baseline": base_med,
        "disabled": disabled_secs,
        # one scrape per second of runtime, each costing per_scrape
        "scraped": disabled_secs * (1.0 + SCRAPE_HZ * per_scrape),
        "enabled": enabled_med,
    }
    table.note(
        "counts/run: "
        + ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
        + "; per-call ns: "
        + ", ".join(f"{k}={percall[k] * 1e9:.0f}" for k in sorted(percall))
    )
    table.note(
        f"scraped = disabled + {SCRAPE_HZ:g}/s scrapes at "
        f"{per_scrape * 1e3:.2f} ms/scrape (snapshot+dump+render)"
    )

    for mode in MODES:
        secs = estimate[mode]
        table.add(ROWS, mode, WORKERS, round(secs, 4), round(ROWS / secs, 1))
    assert_obs_fence([dict(zip(table.headers, row)) for row in table.rows])

    # The enabled run must actually have exported spans (otherwise the
    # "worst case" row measured nothing).
    assert span_file.exists() and span_file.stat().st_size > 0
