"""Service load smoke: ~200 concurrent sessions through the real stack.

The CI ``service-load`` leg runs this file on its own: it boots the
async entry service, drives ~200 sessions concurrently with the load
generator (undersized limits, so the 429 backpressure path fires under
real contention), and asserts the invariants that matter at load —
**zero dropped fixes** (every session completes, bit-identical to the
serial monitor), a **nonzero suggestion-memo hit count**, no
probe-cache lookups (an in-process store is probed directly; the
probe-cache hit rate is asserted over a remote store in
``tests/test_service.py``), and internally consistent metrics.
"""

from __future__ import annotations

import pytest

from repro.master.conformance import normalize_audit
from repro import CerFix
from repro.scenarios import uk_customers as uk
from repro.service.loadgen import run_load

SESSIONS = 200
CONCURRENCY = 200  # every session in flight at once


@pytest.fixture(scope="module")
def load_result():
    master = uk.generate_master(40, seed=71)
    wl = uk.generate_workload(master, SESSIONS, rate=0.2, seed=72)

    serial_engine = CerFix(uk.paper_ruleset(), master)
    serial_engine.stream(wl.dirty, wl.clean)

    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(
        port=0,
        max_sessions=64,          # < SESSIONS: admission must shed and recover
        max_session_pending=8,
    )
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()]
        truth = [r.to_dict() for r in wl.clean.rows()]
        report = run_load(server.url, rows, truth, concurrency=CONCURRENCY)
        metrics = server.service.metrics_json()
    finally:
        server.close()
    return wl, serial_engine, engine, report, metrics


def test_zero_dropped_fixes(load_result):
    wl, serial_engine, engine, report, _ = load_result
    assert not report.errors
    assert report.sessions == SESSIONS
    assert report.dropped == 0  # every session reached a certain fix

    names = wl.dirty.schema.names
    serial_rows = []
    for i, row in enumerate(wl.dirty.rows()):
        values = row.to_dict()
        for e in serial_engine.audit.by_tuple(f"t{i}"):
            values[e.attr] = e.new
        serial_rows.append(tuple(str(values[n]) for n in names))
    assert report.values_in_order(names) == serial_rows
    assert normalize_audit([e.to_json() for e in engine.audit]) == normalize_audit(
        [e.to_json() for e in serial_engine.audit]
    )


def test_cache_amortisation_under_load(load_result):
    _, _, _, _, metrics = load_result
    # An in-process store answers repeats from its own memo: the service
    # builds no probe cache, so it reports no lookups.
    cache = metrics["probe_cache"]
    assert cache["hits"] + cache["misses"] == 0
    assert metrics["probes"]["store_probes"] == 0
    memo = metrics["suggestion_memo"]
    assert memo["hits"] > 0


def test_backpressure_fired_and_recovered(load_result):
    _, _, _, report, metrics = load_result
    # 200 sessions against max_sessions=64 must shed load...
    assert metrics["requests"]["rejected_429"] > 0
    assert metrics["requests"]["rejected_429"] == report.retries_429
    # ...and still complete everything
    assert metrics["sessions"]["opened"] == SESSIONS
    assert metrics["sessions"]["completed"] == SESSIONS
    assert metrics["sessions"]["active"] == 0
    assert metrics["requests"]["in_flight"] == 0


def test_metrics_accounting_is_consistent(load_result):
    _, _, _, report, metrics = load_result
    by_status = metrics["requests"]["by_status"]
    assert sum(by_status.values()) == metrics["requests"]["total"]
    assert by_status.get("201", 0) == SESSIONS
    # the load generator saw every response the server sent
    assert metrics["requests"]["total"] == report.requests
    probes = metrics["probes"]
    # every micro-batch carries at least one store probe
    assert probes["batches"] <= probes["store_probes"]
    assert metrics["dispatch"] in ("executor", "inline")
