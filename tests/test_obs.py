"""Unified telemetry layer: metrics registry, trace spans, propagation.

Pins the observability contracts the rest of the system leans on:

* the :class:`MetricsRegistry` instrument semantics and the
  ``cerfix.metrics.v1`` dump schema every surface re-exports;
* span-tree integrity — one connected trace across the batch
  pipeline's serial *and* process executors, across the entry
  service's executor threads, and across a real ``cerfix
  shard-server`` subprocess via the ``X-Cerfix-Trace`` header;
* tracing is observation only: a traced clean produces bit-identical
  fixes, reports and (trace-stamp-stripped) audit streams;
* per-store remote stats survive pickle rebuilds without leaking
  between independent stores.
"""

from __future__ import annotations

import gc
import json
import os
import pickle

import pytest

from repro import CerFix
from repro.master.conformance import (
    case_cluster,
    generate_case,
    run_batch_path,
    run_service_path,
    store_factories,
)
from repro.master.remote import RemoteMasterStore
from repro.master.shardserver import ShardCluster
from repro.obs import trace
from repro.obs.metrics import (
    BUCKET_BOUNDS_MS,
    MetricsRegistry,
    bucket_percentile,
    get_registry,
)
from repro.scenarios import uk_customers as uk


@pytest.fixture(autouse=True)
def _tracing_off():
    """No test may leak an enabled exporter into the next."""
    yield
    trace.disable()


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(30, seed=21)
    ruleset = uk.paper_ruleset()
    workload = uk.generate_workload(master, 30, rate=0.25, seed=22)
    return master, ruleset, workload


def _read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        assert reg.counter_value("c") == 5
        assert reg.counter_value("never-touched") == 0

    def test_gauge_set_and_default(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 7)
        assert reg.gauge_value("g") == 7
        assert reg.gauge_value("missing", 42) == 42
        reg.set_gauge("g", None)  # unset again
        assert reg.gauge_value("g", -1) == -1

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for seconds in (0.001, 0.002, 0.002, 0.5):
            h.observe(seconds)
        summary = h.to_json()
        assert summary["count"] == 4
        assert summary["max_ms"] == pytest.approx(500.0)
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]
        assert sum(summary["buckets"].values()) == 4

    def test_histogram_overflow_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(BUCKET_BOUNDS_MS[-1] / 1000 * 10)  # past the last bound
        assert h.to_json()["buckets"] == {"+inf": 1}

    def test_dump_schema(self):
        reg = MetricsRegistry()
        reg.inc("a.count")
        reg.set_gauge("a.level", 3)
        reg.observe("a.seconds", 0.01)
        dump = reg.dump()
        assert dump["schema"] == "cerfix.metrics.v1"
        assert dump["counters"] == {"a.count": 1}
        assert dump["gauges"] == {"a.level": 3}
        assert set(dump["histograms"]) == {"a.seconds"}
        assert dump["sources"] == {}
        json.dumps(dump)  # the whole snapshot must be JSON-able

    def test_source_weakly_held(self):
        class Owner:
            def stats(self):
                return {"alive": True}

        reg = MetricsRegistry()
        owner = Owner()
        reg.register_source("owner", owner.stats)
        assert reg.dump()["sources"] == {"owner": {"alive": True}}
        del owner
        gc.collect()
        assert reg.dump()["sources"] == {}  # dead ref pruned, not an error

    def test_source_last_registration_wins(self):
        reg = MetricsRegistry()
        reg.register_source("s", lambda: {"v": 1})
        reg.register_source("s", lambda: {"v": 2})
        assert reg.dump()["sources"]["s"] == {"v": 2}

    def test_source_exception_reported_not_raised(self):
        def bad():
            raise RuntimeError("backing store gone")

        reg = MetricsRegistry()
        reg.register_source("bad", bad)
        assert "backing store gone" in reg.dump()["sources"]["bad"]["error"]

    def test_global_registry_is_process_wide(self):
        assert get_registry() is get_registry()


class TestPercentileEdgeCases:
    """Regressions: zero- and single-observation percentiles."""

    def test_zero_observations_answer_zero(self):
        reg = MetricsRegistry()
        summary = reg.histogram("empty").to_json()
        assert summary["count"] == 0
        assert summary["p50_ms"] == summary["p95_ms"] == summary["p99_ms"] == 0.0
        assert summary["mean_ms"] == 0.0 and summary["max_ms"] == 0.0

    def test_single_observation_every_quantile_agrees(self):
        reg = MetricsRegistry()
        h = reg.histogram("one")
        h.observe(0.003)
        summary = h.to_json()
        assert summary["count"] == 1
        assert summary["p50_ms"] == summary["p95_ms"] == summary["p99_ms"]
        assert 0 < summary["p50_ms"] <= summary["max_ms"] * 1.0001

    def test_single_zero_observation(self):
        reg = MetricsRegistry()
        h = reg.histogram("zero")
        h.observe(0.0)
        summary = h.to_json()
        # clamped to the observed max: a 0ms observation answers 0ms,
        # not the first bucket's upper bound
        assert summary["p50_ms"] == summary["p99_ms"] == 0.0

    def test_bucket_percentile_never_exceeds_max(self):
        for q in (0.5, 0.95, 0.99):
            assert bucket_percentile([0, 1], 1, 0.07, q) == pytest.approx(0.07)
        assert bucket_percentile([], 0, 0.0, 0.99) == 0.0

    def test_overflow_bucket_quantile_is_observed_max(self):
        reg = MetricsRegistry()
        h = reg.histogram("over")
        h.observe(BUCKET_BOUNDS_MS[-1] / 1000 * 10)
        summary = h.to_json()
        assert summary["p99_ms"] == summary["max_ms"]


class TestCallableGauges:
    def test_register_gauge_evaluated_at_dump(self):
        reg = MetricsRegistry()
        calls = []

        def level():
            calls.append(1)
            return 42.0

        reg.register_gauge("lazy", level)
        assert calls == []
        assert reg.dump()["gauges"]["lazy"] == 42.0
        assert len(calls) == 1

    def test_gauge_fn_errors_and_none_skipped(self):
        reg = MetricsRegistry()
        reg.register_gauge("broken", lambda: 1 / 0)
        reg.register_gauge("absent", lambda: None)
        assert reg.dump()["gauges"] == {}

    def test_last_registration_wins(self):
        reg = MetricsRegistry()
        reg.register_gauge("g", lambda: 1.0)
        reg.register_gauge("g", lambda: 2.0)
        assert reg.dump()["gauges"]["g"] == 2.0


class TestSnapshotHistory:
    def test_ring_is_bounded(self):
        reg = MetricsRegistry(history=3)
        for i in range(5):
            reg.record_snapshot(ts=float(i))
        assert [s["ts"] for s in reg.history()] == [2.0, 3.0, 4.0]

    def test_rates_need_two_snapshots(self):
        reg = MetricsRegistry()
        reg.record_snapshot(ts=0.0)
        assert reg.rates() == {"window_s": 0.0, "counters_per_s": {}, "histograms": {}}

    def test_counter_delta_rates(self):
        reg = MetricsRegistry()
        reg.inc("a", 10)
        reg.record_snapshot(ts=100.0)
        reg.inc("a", 30)
        reg.inc("b", 4)  # born inside the window: delta from 0
        reg.record_snapshot(ts=102.0)
        rates = reg.rates()
        assert rates["window_s"] == 2.0
        assert rates["counters_per_s"] == {"a": 15.0, "b": 2.0}

    def test_histogram_window_percentiles_are_delta(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for _ in range(100):
            h.observe(5.0)  # ancient slow history
        reg.record_snapshot(ts=0.0)
        for _ in range(100):
            h.observe(0.001)  # the window itself is fast
        reg.record_snapshot(ts=10.0)
        windowed = reg.rates()["histograms"]["lat"]
        assert windowed["count_per_s"] == 10.0
        assert windowed["p99_ms"] < 100.0  # lifetime p99 would be ~5000ms
        assert reg.histogram("lat").to_json()["p99_ms"] >= 5000.0

    def test_window_selects_oldest_inside(self):
        reg = MetricsRegistry()
        reg.inc("a", 1)
        reg.record_snapshot(ts=0.0)
        reg.inc("a", 1)
        reg.record_snapshot(ts=8.0)
        reg.inc("a", 2)
        reg.record_snapshot(ts=10.0)
        assert reg.rates(window_s=3.0)["counters_per_s"] == {"a": 1.0}
        assert reg.rates()["counters_per_s"] == {"a": 0.3}


# ---------------------------------------------------------------------------
# Trace primitives and propagation encodings
# ---------------------------------------------------------------------------


class TestTracePrimitives:
    def test_disabled_span_is_the_noop_singleton(self):
        assert trace.span("anything", attr=1) is trace.NOOP
        assert trace.current_ids() == (None, None)
        assert trace.carrier() is None
        assert trace.header_value() is None

    def test_header_roundtrip(self, tmp_path):
        trace.configure(tmp_path / "t.jsonl")
        with trace.span("root") as root:
            value = trace.header_value()
            car = trace.parse_header(value)
            assert car is not None
            assert (car.trace_id, car.span_id) == (root.trace_id, root.span_id)
            assert car.sampled is True

    @pytest.mark.parametrize(
        "value", [None, "", "a-b", "a-b-2", "--1", "a-b-1-c", "  "]
    )
    def test_parse_header_rejects_garbage(self, value):
        assert trace.parse_header(value) is None

    def test_carrier_is_picklable(self, tmp_path):
        trace.configure(tmp_path / "t.jsonl")
        with trace.span("root"):
            car = trace.carrier()
        clone = pickle.loads(pickle.dumps(car))
        assert clone == car

    def test_configure_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("CERFIX_TRACE", trace.env_value(str(path), 0.5))
        assert trace.configure_from_env() is True
        assert trace.enabled()
        assert trace.export_path() == str(path)

    def test_activate_none_is_noop(self):
        with trace.activate(None):
            assert trace.current_ids() == (None, None)

    def test_nested_spans_share_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.span("outer") as outer:
            with trace.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        trace.disable()
        names = {s["name"] for s in _read_spans(path)}
        assert names == {"outer", "inner"}


class TestTraceRotation:
    def test_export_rotates_at_cap(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path, max_mb=200 / (1024 * 1024))  # ~1 record per file
        for i in range(20):
            with trace.span("work", i=i):
                pass
        trace.disable()
        rotated = path.with_name(path.name + ".1")
        assert rotated.exists()
        # the cap bounds BOTH files: live restarted small, one .1 kept
        assert path.stat().st_size <= 400
        assert rotated.stat().st_size <= 400
        # rotated-out records still parse (cerfix trace reads them)
        assert all(s["name"] == "work" for s in _read_spans(rotated))

    def test_max_mb_env_honoured(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("CERFIX_TRACE_MAX_MB", str(200 / (1024 * 1024)))
        monkeypatch.setenv("CERFIX_TRACE", str(path))
        trace.configure_from_env()
        for i in range(20):
            with trace.span("work", i=i):
                pass
        trace.disable()
        assert path.with_name(path.name + ".1").exists()

    def test_zero_cap_disables_rotation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path, max_mb=0)
        for i in range(20):
            with trace.span("work", i=i):
                pass
        trace.disable()
        assert not path.with_name(path.name + ".1").exists()
        assert len(_read_spans(path)) == 20


class TestSlowlog:
    def test_only_slow_spans_logged(self, tmp_path):
        import time as _time

        path = tmp_path / "slow.jsonl"
        trace.configure_slowlog(path, threshold_ms=5.0)
        with trace.span("fast"):
            pass
        with trace.span("slow"):
            _time.sleep(0.02)
        trace.disable()
        records = _read_spans(path)
        assert [r["name"] for r in records] == ["slow"]
        assert records[0]["slow_ms"] == 5.0
        assert records[0]["dur_ms"] >= 5.0

    def test_slowlog_ignores_sampling(self, tmp_path):
        import time as _time

        # sample=0: nothing exports to the trace file, but a slow span
        # must still reach the slowlog — it is exactly the span you
        # cannot afford to have sampled out.
        trace.configure(tmp_path / "t.jsonl", sample=0.0)
        slow_path = tmp_path / "slow.jsonl"
        trace.configure_slowlog(slow_path, threshold_ms=5.0)
        with trace.span("slow-unsampled"):
            _time.sleep(0.02)
        trace.disable()
        assert [r["name"] for r in _read_spans(slow_path)] == ["slow-unsampled"]
        # the sink opens lazily, so the sampled-out trace file was never created
        assert not (tmp_path / "t.jsonl").exists()

    def test_slowlog_env_roundtrip(self, tmp_path, monkeypatch):
        path = tmp_path / "slow.jsonl"
        monkeypatch.setenv("CERFIX_SLOW_SPAN", trace.slow_env_value(str(path), 25.0))
        assert trace.configure_from_env() is True
        assert trace.slowlog_path() == str(path)

    def test_slowlog_readable_by_tracecli(self, tmp_path, capsys):
        import time as _time

        from repro.obs import tracecli

        path = tmp_path / "slow.jsonl"
        trace.configure_slowlog(path, threshold_ms=5.0)
        with trace.span("slow-stage"):
            _time.sleep(0.02)
        trace.disable()
        spans = tracecli.load_spans(path)
        assert [s.name for s in spans] == ["slow-stage"]


# ---------------------------------------------------------------------------
# Span-tree integrity across executors
# ---------------------------------------------------------------------------


class TestSpanTree:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_batch_clean_yields_one_connected_trace(self, world, tmp_path, backend):
        master, ruleset, wl = world
        path = tmp_path / f"{backend}.jsonl"
        trace.configure(path)
        try:
            engine = CerFix(ruleset, master)
            result = engine.clean_relation(
                wl.dirty, wl.clean, workers=1 if backend == "serial" else 2
            )
        finally:
            trace.disable()
        assert result.report.completed == 30

        spans = _read_spans(path)
        assert {s["trace"] for s in spans} == {spans[0]["trace"]}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["clean-run"]
        assert roots[0]["attrs"]["backend"] == backend
        ids = {s["span"] for s in spans}
        orphans = [s for s in spans if s["parent"] is not None and s["parent"] not in ids]
        assert orphans == []
        names = {s["name"] for s in spans}
        assert {"clean-run", "plan", "shard", "group-chase"} <= names
        if backend == "process":
            assert len({s["pid"] for s in spans}) >= 2  # workers exported too

    def test_service_executor_threads_join_the_trace(self, tmp_path):
        """The entry service over a remote store sends its batched
        probes from executor threads, which have no ambient span: each
        ``probe_many`` must still parent under the loop's ``probe``
        span, in its trace."""
        case = generate_case(3, master_size=20, n=8)
        path = tmp_path / "service.jsonl"
        with case_cluster(case, tmp_path) as cluster:
            store = store_factories(case, tmp_path, remote_urls=cluster.urls)["remote"]()
            try:
                # Traced from serving on: region precompute probes too,
                # from this thread.
                run_service_path(case, store, on_serve=lambda: trace.configure(path))
            finally:
                store.close()
                trace.disable()

        spans = _read_spans(path)
        by_id = {s["span"]: s for s in spans}
        batched = [s for s in spans if s["name"] == "probe_many"]
        assert batched, "the service sent no batched probe"
        for s in batched:
            parent = by_id.get(s["parent"])
            assert parent is not None and parent["name"] == "probe"
            assert parent["trace"] == s["trace"]

    def test_shard_server_subprocess_joins_the_trace(self, tmp_path, monkeypatch):
        case = generate_case(3, master_size=20, n=8)
        path = tmp_path / "remote.jsonl"
        # Spawned servers inherit the exporter through the environment —
        # exactly what `cerfix clean --trace` arranges for its children.
        monkeypatch.setenv("CERFIX_TRACE", trace.env_value(str(path), 1.0))
        with case_cluster(case, tmp_path, processes=True) as cluster:
            factories = store_factories(case, tmp_path, remote_urls=cluster.urls)
            trace.configure(path)
            try:
                store = factories["remote"]()
                try:
                    run_batch_path(case, store)
                finally:
                    store.close()
            finally:
                trace.disable()

        spans = _read_spans(path)
        roots = [s for s in spans if s["parent"] is None and s["name"] == "clean-run"]
        assert len(roots) == 1
        trace_id = roots[0]["trace"]
        # Handshake/fetch RPCs before the clean root their own traces;
        # the clean itself must produce server spans JOINED to its trace.
        server_spans = [
            s for s in spans if s["name"] == "shard-server" and s["trace"] == trace_id
        ]
        assert server_spans, "no shard-server span joined the clean-run trace"
        for s in server_spans:
            assert s["parent"] is not None  # joined via X-Cerfix-Trace
            assert s["pid"] != os.getpid()  # exported by the subprocess
        rpc_parents = {
            s["span"]
            for s in spans
            if s["name"] == "shard-rpc" and s["trace"] == trace_id
        }
        assert all(s["parent"] in rpc_parents for s in server_spans)


# ---------------------------------------------------------------------------
# Tracing is observation only
# ---------------------------------------------------------------------------


def _strip_stamps(events: list[dict]) -> list[dict]:
    return [
        {k: v for k, v in e.items() if k not in ("trace_id", "span_id")}
        for e in events
    ]


class TestTracingIsPure:
    def test_traced_clean_is_bit_identical(self, tmp_path):
        case = generate_case(11, master_size=20, n=12)
        factories = store_factories(case, tmp_path)

        plain = run_batch_path(case, factories["single"]())
        trace.configure(tmp_path / "t.jsonl")
        try:
            traced = run_batch_path(case, factories["single"]())
        finally:
            trace.disable()

        assert traced.fixed_rows == plain.fixed_rows
        assert traced.report == plain.report
        assert _strip_stamps(traced.audit_events) == _strip_stamps(plain.audit_events)
        # ... and the traced run's provenance actually points somewhere.
        stamped = [e for e in traced.audit_events if e.get("trace_id")]
        assert stamped
        assert {e["trace_id"] for e in stamped} == {stamped[0]["trace_id"]}

    def test_batch_audit_stamps_name_the_group_chase_span(self, tmp_path):
        """A batch fix points at the group-chase span that produced it,
        not at the replay loop that copied it onto member rows."""
        case = generate_case(11, master_size=20, n=12)
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        try:
            traced = run_batch_path(case, store_factories(case, tmp_path)["single"]())
        finally:
            trace.disable()
        chases = {s["span"] for s in _read_spans(path) if s["name"] == "group-chase"}
        rule_events = [e for e in traced.audit_events if e["source"] == "rule"]
        assert rule_events
        assert {e["span_id"] for e in rule_events} <= chases

    def test_audit_stamps_omitted_when_disabled(self, tmp_path):
        case = generate_case(11, master_size=20, n=12)
        outcome = run_batch_path(case, store_factories(case, tmp_path)["single"]())
        assert all("trace_id" not in e for e in outcome.audit_events)


# ---------------------------------------------------------------------------
# Remote per-store stats: rebuild continuity without cross-store leaks
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, 3)
    yield cluster
    cluster.close()


def _total_round_trips(store: RemoteMasterStore) -> int:
    return sum(s["round_trips"] for s in store.stats()["per_shard"])


class TestRemoteStats:
    def test_rebuild_resumes_counters(self, cluster):
        store = RemoteMasterStore(cluster.urls)
        try:
            before = _total_round_trips(store)
            assert before > 0  # the handshake alone costs round trips
            clone = pickle.loads(pickle.dumps(store))
            try:
                # The clone's own handshake adds to the SAME counters —
                # a fork-safe reconnect does not zero the history.
                assert _total_round_trips(clone) > before
            finally:
                clone.close()
        finally:
            store.close()

    def test_independent_stores_are_isolated(self, cluster):
        a = RemoteMasterStore(cluster.urls)
        b = RemoteMasterStore(cluster.urls)
        try:
            b_before = _total_round_trips(b)
            assert a.relation is not None  # lazy shard fetch — RPCs on a only
            assert _total_round_trips(b) == b_before
        finally:
            a.close()
            b.close()

    def test_registry_dump_labels_shards_by_url(self, cluster):
        store = RemoteMasterStore(cluster.urls)
        try:
            source = get_registry().dump()["sources"]["remote_store"]
            urls = [s["url"] for s in source["per_shard"]]
            assert urls == list(cluster.urls)
        finally:
            store.close()
