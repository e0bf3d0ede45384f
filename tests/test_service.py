"""Tests for the async entry service (repro.service).

Covers the ISSUE 4 satellite checklist: concurrent-session correctness
(bit-identical to the serial monitor), probe coalescing under
contention, the 429 backpressure path, the metrics-endpoint schema —
plus the shared routing table, the suggestion and chase memos, dispatch
by store kind, the instance document's ``service`` section and the CLI
flags.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.master.conformance import (
    generate_case,
    normalize_audit,
    normalize_outcome,
    run_monitor_path,
    run_service_path,
    store_factories,
)
from repro import CerFix
from repro.config import InstanceConfig
from repro.errors import ValidationError
from repro.explorer.cli import build_parser
from repro.explorer.web import CerFixWebApp
from repro.master.store import SingleRelationStore
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk
from repro.service.app import AsyncCerFixService, classify_route
from repro.service.batcher import CoalescingMasterDataManager, ProbeBatcher, ProbeKeyer
from repro.service.cache import LRUMemo, MemoView, SharedProbeCache
from repro.service.limits import AdmissionController
from repro.service.loadgen import run_load
from repro.service.metrics import LatencyWindow, ServiceMetrics


def _request(url: str, method: str = "GET", body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        # A stalled event loop fails the test instead of hanging it.
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.fixture()
def uk_workload():
    master = uk.generate_master(25, seed=11)
    wl = uk.generate_workload(master, 48, rate=0.2, seed=12)
    return master, wl


@pytest.fixture()
def server(uk_workload):
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    srv = engine.serve_async(port=0)
    yield srv
    srv.close()


# ---------------------------------------------------------------------------
# Concurrent-session correctness: same fixes as the serial monitor
# ---------------------------------------------------------------------------


def test_concurrent_sessions_match_serial_monitor(uk_workload):
    """48 sessions at concurrency 16 produce, per tuple, the exact fixed
    values and audit events of the serial stream path."""
    master, wl = uk_workload
    serial_engine = CerFix(uk.paper_ruleset(), master)
    serial_engine.stream(wl.dirty, wl.clean)
    serial_audit = normalize_audit([e.to_json() for e in serial_engine.audit])

    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()]
        truth = [r.to_dict() for r in wl.clean.rows()]
        report = run_load(server.url, rows, truth, concurrency=16)
    finally:
        server.close()

    assert report.dropped == 0 and not report.errors
    names = wl.dirty.schema.names
    serial_rows = []
    for i, row in enumerate(wl.dirty.rows()):
        values = row.to_dict()
        for e in serial_engine.audit.by_tuple(f"t{i}"):
            values[e.attr] = e.new
        serial_rows.append(tuple(str(values[n]) for n in names))
    assert report.values_in_order(names) == serial_rows
    assert normalize_audit([e.to_json() for e in engine.audit]) == serial_audit


@pytest.mark.parametrize("backend", ["single", "sharded", "sqlite"])
def test_service_parity_across_backends(backend, tmp_path):
    """The ISSUE 4 differential guarantee, per store backend: concurrent
    service output is bit-identical to the serial monitor path."""
    case = generate_case(1001, scenario="uk", n=20)
    factories = store_factories(case, tmp_path)
    serial = normalize_outcome(run_monitor_path(case, factories[backend]()))
    service = run_service_path(case, factories[backend](), concurrency=8)
    assert service.fixed_rows == serial.fixed_rows
    assert service.audit_events == serial.audit_events
    assert service.regions == serial.regions
    assert service.report["completed"] == serial.report["completed"]


def test_duplicate_session_id_conflicts_under_concurrency(server):
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    s1, _, _ = _request(f"{server.url}/api/sessions", "POST",
                        {"tuple_id": "dup", "values": values})
    s2, body, _ = _request(f"{server.url}/api/sessions", "POST",
                           {"tuple_id": "dup", "values": values})
    assert (s1, s2) == (201, 409)
    assert "already exists" in body["error"]
    status, body, _ = _request(f"{server.url}/api/sessions/dup", "DELETE")
    assert status == 200 and body["deleted"] == "dup"
    status, _, _ = _request(f"{server.url}/api/sessions/dup", "GET")
    assert status == 404


# ---------------------------------------------------------------------------
# Probe coalescing under contention
# ---------------------------------------------------------------------------


class _SlowCountingStore(SingleRelationStore):
    """A store whose probes are slow enough that concurrent misses pile
    up inside one batch window."""

    def __init__(self, relation, delay=0.005):
        super().__init__(relation)
        self.delay = delay
        self.probe_calls = 0
        self.batch_calls = 0

    def probe(self, rule, values, *, use_index=True):
        self.probe_calls += 1
        time.sleep(self.delay)
        return super().probe(rule, values, use_index=use_index)

    def probe_many(self, requests, *, use_index=True):
        self.batch_calls += 1
        return super().probe_many(requests, use_index=use_index)


def _loop_in_thread():
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    return loop, thread


def test_probe_coalescing_collapses_identical_keys():
    """8 threads missing on the same key cost exactly one store probe;
    the other 7 attach to the in-flight future."""
    ruleset = uk.paper_ruleset()
    master = uk.paper_master()
    store = _SlowCountingStore(Relation(master.schema, master.tuples()))
    store.prebuild(ruleset)
    cache = SharedProbeCache(128)
    metrics = ServiceMetrics()
    batcher = ProbeBatcher(store, cache, window=0.02, max_batch=64, metrics=metrics)
    keyer = ProbeKeyer(ruleset)
    manager = CoalescingMasterDataManager(store, cache, batcher, keyer)

    loop, _thread = _loop_in_thread()
    batcher.bind_loop(loop)
    try:
        rule = next(r for r in ruleset if not r.is_constant)
        values = uk.fig3_truth()
        barrier = threading.Barrier(8)
        results = []

        def probe_once():
            barrier.wait()
            results.append(manager.match(rule, values))

        threads = [threading.Thread(target=probe_once) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        loop.call_soon_threadsafe(loop.stop)

    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert store.probe_calls == 1  # one store hit served all eight
    assert metrics.coalesced_probes == 7
    assert metrics.store_probes == 1
    # ... and the next call is a pure cache hit
    assert manager.match(rule, values) == results[0]
    assert cache.stats.hits >= 1


def test_coalescing_happens_under_real_service_contention(uk_workload):
    """Duplicate-heavy concurrent traffic exercises coalescing/batching
    through the full HTTP path."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    # executor dispatch (sessions off-loop) is what makes misses
    # concurrent; a wide batch window makes them pile up deterministically
    server = engine.serve_async(port=0, batch_window_ms=5.0, dispatch="executor")
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()] * 2  # duplicates
        truth = [r.to_dict() for r in wl.clean.rows()] * 2
        report = run_load(server.url, rows, truth, concurrency=24)
        service = server.service
        assert report.dropped == 0 and not report.errors
        stats = service.cache.stats
        assert stats.hits > 0 and stats.hit_rate > 0.3
        assert service.metrics.probe_batches > 0
        assert service.metrics.batched_misses == service.metrics.store_probes
    finally:
        server.close()


# ---------------------------------------------------------------------------
# Backpressure: the 429 path
# ---------------------------------------------------------------------------


def test_session_capacity_429_with_retry_after(uk_workload):
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, max_sessions=2)
    try:
        values = {k: str(v) for k, v in uk.fig3_tuple().items()}
        for i in range(2):
            status, _, _ = _request(f"{server.url}/api/sessions", "POST",
                                    {"tuple_id": f"cap{i}", "values": values})
            assert status == 201
        status, body, headers = _request(f"{server.url}/api/sessions", "POST",
                                         {"tuple_id": "cap2", "values": values})
        assert status == 429
        assert "capacity" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        assert body["retry_after"] == int(headers["Retry-After"])
        # deleting an active session frees a slot
        _request(f"{server.url}/api/sessions/cap0", "DELETE")
        status, _, _ = _request(f"{server.url}/api/sessions", "POST",
                                {"tuple_id": "cap2", "values": values})
        assert status == 201
        assert server.service.metrics.to_json()["requests"]["rejected_429"] == 1
    finally:
        server.close()


def test_backpressure_retries_drop_nothing(uk_workload):
    """An overloaded service (tiny limits, aggressive concurrency) sheds
    load with 429s, yet every session completes after retries."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, max_sessions=4, max_session_pending=2)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()]
        truth = [r.to_dict() for r in wl.clean.rows()]
        report = run_load(server.url, rows, truth, concurrency=24)
        assert report.dropped == 0 and not report.errors
        assert report.retries_429 > 0  # backpressure actually fired
        metrics = server.service.metrics.to_json()
        assert metrics["requests"]["rejected_429"] == report.retries_429
        assert metrics["sessions"]["completed"] == len(rows)
    finally:
        server.close()


def test_engine_routes_stay_off_the_event_loop(uk_workload, monkeypatch):
    """Under inline dispatch a session runs on the event loop, but an
    engine-level route still goes to the executor: with a batch clean
    blocked mid-flight, a session opens and validates to completion."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    entered, release = threading.Event(), threading.Event()
    original = engine.clean_relation

    def blocking_clean(*args, **kwargs):
        entered.set()
        release.wait()
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "clean_relation", blocking_clean)
    server = engine.serve_async(port=0)
    assert server.service.dispatch_mode == "inline"
    rows = [r.to_dict() for r in wl.dirty.rows()][:4]
    clean_result = {}

    def post_clean():
        clean_result["status"] = _request(f"{server.url}/api/clean", "POST", {"rows": rows})[0]

    cleaner = threading.Thread(target=post_clean)
    try:
        cleaner.start()
        assert entered.wait(timeout=60)
        # With the clean blocked, drive one session to its certain fix;
        # were the clean on the loop, these requests would time out.
        row, truth_row = next(wl.dirty.rows()).to_dict(), next(wl.clean.rows()).to_dict()
        values = {k: str(v) for k, v in row.items()}
        status, state, _ = _request(f"{server.url}/api/sessions", "POST",
                                    {"tuple_id": "blocked", "values": values})
        assert status == 201
        rounds = 0
        while not state["complete"]:
            assignments = {a: str(truth_row[a]) for a in state["suggestion"]["attrs"]}
            status, state, _ = _request(f"{server.url}/api/sessions/blocked/validate",
                                        "POST", {"assignments": assignments})
            assert status == 200
            rounds += 1
        assert rounds > 0
        assert "status" not in clean_result  # the clean is still blocked
    finally:
        release.set()
        cleaner.join(timeout=60)
        server.close()
    assert not cleaner.is_alive()
    assert clean_result["status"] == 200


def test_admission_controller_bounds():
    ctl = AdmissionController(max_sessions=2, max_inflight=2, max_session_pending=1)
    assert ctl.enter_request().admitted and ctl.enter_request().admitted
    rejected = ctl.enter_request()
    assert not rejected.admitted and rejected.retry_after >= 1
    ctl.exit_request()
    assert ctl.enter_request().admitted
    assert ctl.enter_session_op("s").admitted
    assert not ctl.enter_session_op("s").admitted
    ctl.exit_session_op("s")
    assert ctl.enter_session_op("s").admitted
    # session slots are reservations: check-and-claim is atomic
    assert ctl.reserve_session().admitted and ctl.reserve_session().admitted
    third = ctl.reserve_session()
    assert not third.admitted and "capacity" in third.reason
    ctl.release_session()
    assert ctl.reserve_session().admitted
    assert ctl.active_sessions == 2
    with pytest.raises(ValueError):
        AdmissionController(max_sessions=0)


# ---------------------------------------------------------------------------
# Metrics endpoint schema
# ---------------------------------------------------------------------------


def test_metrics_endpoint_schema(server, uk_workload):
    _, wl = uk_workload
    rows = [r.to_dict() for r in wl.dirty.rows()][:8]
    truth = [r.to_dict() for r in wl.clean.rows()][:8]
    report = run_load(server.url, rows, truth, concurrency=4)
    assert report.dropped == 0
    status, metrics, _ = _request(f"{server.url}/api/metrics")
    assert status == 200
    assert set(metrics) >= {
        "requests", "sessions", "probes", "latency_ms",
        "probe_cache", "suggestion_memo", "limits",
    }
    assert metrics["requests"]["total"] >= report.requests
    assert metrics["requests"]["in_flight"] == 1  # the metrics request itself
    assert metrics["sessions"]["opened"] == 8
    assert metrics["sessions"]["completed"] == 8
    assert metrics["sessions"]["active"] == 0
    for key in ("hits", "misses", "hit_rate", "evictions", "size", "maxsize"):
        assert key in metrics["probe_cache"]
    for key in ("hits", "misses", "hit_rate", "size", "maxsize"):
        assert key in metrics["suggestion_memo"]
    chase_memo = metrics["chase_memo"]
    assert set(chase_memo) == {"hits", "misses", "hit_rate", "size", "maxsize"}
    assert chase_memo["misses"] > 0 and 0 < chase_memo["size"] <= chase_memo["maxsize"]
    assert chase_memo["maxsize"] == server.service.chase_memo.maxsize
    assert chase_memo["hits"] == server.service.chase_memo.stats.hits
    for cls in ("open", "validate", "read", "other"):
        window = metrics["latency_ms"][cls]
        assert set(window) == {"count", "p50_ms", "p95_ms", "p99_ms", "mean_ms"}
    opened = metrics["latency_ms"]["open"]["count"]
    assert opened == 8
    assert metrics["limits"]["max_sessions"] == 256


def test_sync_webapp_shares_routing_table(uk_workload):
    """The sync explorer and the async service answer identically from
    the one RoutingCore, including the /api/metrics schema."""
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    app = CerFixWebApp(engine)
    status, rules = app.handle("GET", "/api/rules", None)
    assert status == 200 and len(rules) == len(engine.ruleset)
    # session routes flow through the same table
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    status, state = app.handle("POST", "/api/sessions", {"tuple_id": "x", "values": values})
    assert status == 201 and app.sessions["x"].tuple_id == "x"
    status, payload = app.handle("DELETE", "/api/sessions/x", None)
    assert status == 200 and "x" not in app.sessions


def test_sync_webapp_metrics_schema(uk_workload):
    """The serial explorer serves /api/metrics with the async schema:
    request/session counters and latency windows are live; the shared
    probe-cache / suggestion-memo / admission sections report empty."""
    master, _ = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    app = CerFixWebApp(engine)
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    status, _ = app.handle("POST", "/api/sessions", {"tuple_id": "m", "values": values})
    assert status == 201
    status, _ = app.handle("DELETE", "/api/sessions/m", None)
    assert status == 200
    status, metrics = app.handle("GET", "/api/metrics", None)
    assert status == 200
    assert set(metrics) >= {
        "requests", "sessions", "probes", "latency_ms",
        "probe_cache", "suggestion_memo", "limits", "dispatch",
    }
    assert metrics["dispatch"] == "serial"
    assert metrics["requests"]["total"] == 3  # open, delete, metrics
    assert metrics["sessions"]["opened"] == 1
    # dropping an unfinished session counts as an eviction
    assert metrics["sessions"]["evicted"] + metrics["sessions"]["completed"] == 1
    assert metrics["sessions"]["active"] == 0
    for key in ("hits", "misses", "hit_rate", "evictions", "size", "maxsize"):
        assert key in metrics["probe_cache"]
    for key in ("hits", "misses", "hit_rate", "size", "maxsize"):
        assert key in metrics["suggestion_memo"]
    for cls in ("open", "validate", "read", "other"):
        assert set(metrics["latency_ms"][cls]) == {
            "count", "p50_ms", "p95_ms", "p99_ms", "mean_ms",
        }
    assert metrics["latency_ms"]["open"]["count"] == 1
    assert metrics["limits"]["max_sessions"] is None


# ---------------------------------------------------------------------------
# Shared caches and the suggestion memo
# ---------------------------------------------------------------------------


def test_shared_probe_cache_stats_are_race_free():
    cache = SharedProbeCache(64)
    sentinel = object()
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for i in range(500):
            key = ("k", i % 16)
            if cache.get(key) is None:
                cache.put(key, sentinel)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = cache.stats
    assert stats.hits + stats.misses == 8 * 500  # no lost increments


def test_suggestion_memo_preserves_suggestions():
    """A memoised session suggests exactly what an unmemoised one does,
    and the second identical session hits the memo."""
    ruleset = uk.paper_ruleset()
    master = uk.paper_master()
    memo = LRUMemo(64)
    truth = uk.fig3_truth()

    def drive(suggestion_memo):
        engine = CerFix(ruleset, master)
        session = engine.session(uk.fig3_tuple(), "t", suggestion_memo=suggestion_memo)
        seen = []
        while not session.is_complete:
            suggestion = session.suggestion()
            if suggestion is None:
                break
            seen.append(tuple(suggestion.attrs))
            session.validate({a: truth[a] for a in suggestion.attrs})
        return seen, session.current_values()

    plain = drive(None)
    first = drive(memo)
    assert memo.stats.misses > 0
    second = drive(memo)
    assert plain == first == second
    assert memo.stats.hits >= len(second[0])


def test_memo_view_scopes_epochs():
    memo = LRUMemo(16)
    old, new = MemoView(memo, 0), MemoView(memo, 1)
    old.put("k", "old-value")
    assert old.get("k") == "old-value"
    assert new.get("k") is None  # epoch bump retires the entry
    new.put("k", "new-value")
    assert old.get("k") == "old-value"  # sessions on the old epoch unaffected


def _event_view(event) -> dict:
    return {k: v for k, v in event.to_json().items() if k != "seq"}


@pytest.mark.parametrize("dispatch", ["inline", "executor"])
def test_chase_memo_parity_with_serial_fix(uk_workload, dispatch):
    """Every UK row driven twice through HTTP, so the shared chase memo
    hits: each session's final values, validated set and audit events
    equal a serial, memo-free ``engine.fix`` of the same row."""
    from repro.monitor.user import OracleUser

    master, wl = uk_workload
    rows = [{k: str(v) for k, v in r.to_dict().items()} for r in wl.dirty.rows()]
    truth = [{k: str(v) for k, v in r.to_dict().items()} for r in wl.clean.rows()]
    ids = [f"a{i}" for i in range(len(rows))] + [f"b{i}" for i in range(len(rows))]
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, dispatch=dispatch)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the executor threads' memo traffic
    try:
        service = server.service
        assert service.dispatch_mode == dispatch
        report = run_load(server.url, rows * 2, truth * 2, concurrency=8, tuple_ids=ids)
        assert report.dropped == 0 and not report.errors
        assert service.chase_memo.stats.hits > 0
        sessions = service.core.sessions
        assert set(sessions) == set(ids)
    finally:
        sys.setswitchinterval(switch_interval)
        server.close()

    serial_engine = CerFix(uk.paper_ruleset(), master)
    for tuple_id, row, truth_row in zip(ids, rows * 2, truth * 2):
        serial = serial_engine.fix(row, OracleUser(truth_row), tuple_id)
        assert serial._chase_memo is None and serial._suggestion_memo is None
        got = sessions[tuple_id]
        assert got.current_values() == serial.current_values()
        assert got.validated == serial.validated
        assert [_event_view(e) for e in engine.audit.by_tuple(tuple_id)] == [
            _event_view(e) for e in serial_engine.audit.by_tuple(tuple_id)
        ]


def test_strict_sessions_bypass_the_chase_memo(uk_workload):
    """A strict chase aborts mid-sweep on a conflict, so a strict session
    must never read or fill the shared memo — even one run twice."""
    from repro.monitor.user import OracleUser

    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    service = AsyncCerFixService(engine)
    try:
        row, truth_row = next(wl.dirty.rows()).to_dict(), next(wl.clean.rows()).to_dict()
        for tuple_id in ("strict0", "strict1"):
            session = engine.session(
                row, tuple_id, master=service.manager, chase_memo=service.chase_memo,
                strict=True,
            )
            session.run(OracleUser(truth_row))
            assert session.round_no > 0
        stats = service.chase_memo.stats
        assert (stats.hits, stats.misses, len(service.chase_memo)) == (0, 0, 0)
    finally:
        service.close()


def test_regions_recompute_scopes_new_sessions(server):
    """Sessions opened after a regions recompute capture the new regions
    AND memoise under them — the memo token IS the captured tuple, so
    the two can never disagree (old sessions keep their own key space)."""
    service = server.service
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    _request(f"{server.url}/api/sessions", "POST", {"tuple_id": "r1", "values": values})
    first = service.core.sessions["r1"]
    status, _, _ = _request(f"{server.url}/api/regions?k=1")
    assert status == 200
    _request(f"{server.url}/api/sessions", "POST", {"tuple_id": "r2", "values": values})
    second = service.core.sessions["r2"]
    assert second.regions == tuple(service.engine.regions)
    assert first.regions != second.regions  # r1 predates the recompute
    assert second._suggestion_memo._token == second.regions


# ---------------------------------------------------------------------------
# Config + CLI surface
# ---------------------------------------------------------------------------


def test_instance_service_section_validates():
    base = {
        "name": "x",
        "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
        "master_schema": {"name": "m", "attributes": [{"name": "a"}]},
    }
    config = InstanceConfig.from_json(
        {**base, "service": {"max_sessions": 8, "batch_window_ms": 0.5}}
    )
    assert config.service == {"max_sessions": 8, "batch_window_ms": 0.5}
    assert config.to_json()["service"] == config.service
    with pytest.raises(ValidationError, match="unknown service option"):
        InstanceConfig.from_json({**base, "service": {"bogus": 1}})
    with pytest.raises(ValidationError, match="must be >= 1"):
        InstanceConfig.from_json({**base, "service": {"max_sessions": 0}})
    with pytest.raises(ValidationError, match="must be int"):
        InstanceConfig.from_json({**base, "service": {"cache_size": "lots"}})


def test_cli_serve_async_flags_parse():
    args = build_parser().parse_args(
        ["serve", "--async", "--max-sessions", "32", "--cache-size", "1024"]
    )
    assert args.use_async and args.max_sessions == 32 and args.cache_size == 1024
    args = build_parser().parse_args(["serve"])
    assert not args.use_async and args.max_sessions is None


def test_classify_route():
    assert classify_route("POST", ["api", "sessions"]) == ("open", None)
    assert classify_route("POST", ["api", "sessions", "s1", "validate"]) == ("validate", "s1")
    assert classify_route("GET", ["api", "sessions", "s1"]) == ("read", "s1")
    assert classify_route("DELETE", ["api", "sessions", "s1"]) == ("read", "s1")
    assert classify_route("GET", ["api", "rules"]) == ("other", None)
    assert classify_route("GET", []) == ("other", None)


def test_latency_window_percentiles():
    window = LatencyWindow(maxlen=10)
    assert window.to_json()["count"] == 0
    for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        window.record(ms / 1000)
    snap = window.to_json()
    assert snap["count"] == 10
    assert snap["p50_ms"] == pytest.approx(6.0, abs=1.01)
    assert snap["p99_ms"] == pytest.approx(10.0, abs=0.01)


def test_default_session_ids_survive_deletes(uk_workload):
    """The sync explorer's auto ids must not collide after DELETE
    shrinks the sessions dict (len()-based ids would repeat forever)."""
    master, _ = uk_workload
    app = CerFixWebApp(CerFix(uk.paper_ruleset(), master))
    values = {k: str(v) for k, v in uk.fig3_tuple().items()}
    open_body = {"values": values}
    assert app.handle("POST", "/api/sessions", open_body)[1]["tuple_id"] == "web0"
    assert app.handle("POST", "/api/sessions", open_body)[1]["tuple_id"] == "web1"
    assert app.handle("DELETE", "/api/sessions/web0", None)[0] == 200
    status, state = app.handle("POST", "/api/sessions", open_body)
    assert status == 201 and state["tuple_id"] == "web2"
    assert set(app.sessions) == {"web1", "web2"}


def test_completed_sessions_are_retained_boundedly(uk_workload):
    """Completed sessions stay readable up to completed_retention, then
    the oldest are evicted — memory stays bounded under sustained
    traffic, and the evicted fix survives in the audit log."""
    master, wl = uk_workload
    engine = CerFix(uk.paper_ruleset(), master)
    server = engine.serve_async(port=0, completed_retention=4)
    try:
        rows = [r.to_dict() for r in wl.dirty.rows()][:12]
        truth = [r.to_dict() for r in wl.clean.rows()][:12]
        report = run_load(server.url, rows, truth, concurrency=2)
        assert report.dropped == 0
        sessions = server.service.core.sessions
        assert len(sessions) <= 4
        # the oldest finished sessions are gone from the read surface...
        status, _, _ = _request(f"{server.url}/api/sessions/t0", "GET")
        assert status == 404
        # ...but their provenance is still in the audit log
        status, events, _ = _request(f"{server.url}/api/audit/t0", "GET")
        assert status == 200 and events
        assert len(server.service._session_locks) <= 4
    finally:
        server.close()


def test_unknown_session_ids_leave_no_lock_behind(server):
    for i in range(5):
        status, _, _ = _request(f"{server.url}/api/sessions/ghost{i}", "GET")
        assert status == 404
    assert not any(k.startswith("ghost") for k in server.service._session_locks)


def test_http_bad_requests(server):
    import http.client

    conn = http.client.HTTPConnection(server.host, server.port)
    conn.request("POST", "/api/sessions", body=b"{not json", headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert b"not valid JSON" in resp.read()
    # keep-alive survives the bad body: the same connection still works
    conn.request("GET", "/api/rules")
    resp = conn.getresponse()
    assert resp.status == 200
    conn.close()
    # a malformed Content-Length answers 400, not a dropped socket
    conn = http.client.HTTPConnection(server.host, server.port)
    conn.request("GET", "/api/rules", headers={"Content-Length": "abc"})
    resp = conn.getresponse()
    assert resp.status == 400
    assert b"Content-Length" in resp.read()
    conn.close()
    status, payload, _ = _request(f"{server.url}/api/nope")
    assert status == 404 and "no route" in payload["error"]
