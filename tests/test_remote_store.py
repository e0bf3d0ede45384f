"""Remote master store: routing, failure handling, lifecycle, resume.

The conformance kit (``tests/test_conformance.py``) proves the remote
backend bit-identical to the in-process backends; this module pins the
*remote-specific* machinery: the handshake guards, misroute rejection,
retry-with-backoff, shard-down degradation, round-trip amortisation of
``probe_many``, fork/pickle safety, journal resume across a shard
restart, and the subprocess cluster lifecycle the CI leg relies on.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

import repro.batch.executor as executor_mod
from repro import CerFix
from repro.errors import MasterDataError
from repro.master.conformance import (
    case_cluster,
    generate_case,
    normalize_report,
    run_failover_conformance,
    store_factories,
    write_case_instance,
)
from repro.master.remote import (
    RemoteMasterStore,
    ShardEndpoint,
    _backoff_delay,
    _normalize_topology,
    fetch_health,
)
from repro.master.shardserver import ShardCluster, ShardServerApp
from repro.master.store import SingleRelationStore, make_store
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk

SHARDS = 3
REPLICAS = 2


@pytest.fixture(scope="module")
def world():
    master = uk.generate_master(40, seed=41)
    ruleset = uk.paper_ruleset()
    workload = uk.generate_workload(master, 50, rate=0.25, seed=42)
    return master, ruleset, workload


@pytest.fixture(scope="module")
def cluster(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, SHARDS)
    yield cluster
    cluster.close()


def _probe_requests(world, n=10):
    master, ruleset, workload = world
    rules = [r for r in ruleset if not r.is_constant]
    rows = list(workload.clean.rows())[:n]
    return [(rule, row.to_dict()) for row in rows for rule in rules]


# ---------------------------------------------------------------------------
# Handshake and construction guards
# ---------------------------------------------------------------------------


def test_handshake_rejects_misordered_urls(world, cluster):
    urls = list(cluster.urls)
    urls[0], urls[1] = urls[1], urls[0]
    with pytest.raises(MasterDataError, match="shard-url order mismatch"):
        RemoteMasterStore(urls)


def test_handshake_rejects_wrong_shard_count(world, cluster):
    with pytest.raises(MasterDataError, match="shard-url order mismatch"):
        RemoteMasterStore(cluster.urls[:2])  # servers say shards=3


def test_handshake_rejects_divergent_content(world, cluster, tmp_path):
    master, ruleset, _ = world
    other = uk.generate_master(40, seed=99)
    other_cluster = ShardCluster.in_process(ruleset, other, SHARDS)
    try:
        mixed = [cluster.urls[0], other_cluster.urls[1], cluster.urls[2]]
        with pytest.raises(MasterDataError, match="disagree on master content"):
            RemoteMasterStore(mixed)
        # make_store with a local relation digest-checks the cluster
        with pytest.raises(MasterDataError, match="different master content"):
            make_store(master, "remote", urls=other_cluster.urls)
    finally:
        other_cluster.close()


def test_construction_needs_urls(world):
    master, _, _ = world
    with pytest.raises(MasterDataError, match="needs shard server urls"):
        make_store(master, "remote")
    with pytest.raises(MasterDataError, match="at least one shard url"):
        RemoteMasterStore([])
    with pytest.raises(MasterDataError, match="host and port"):
        RemoteMasterStore(["http://nowhere"])


def test_shard_server_rejects_non_scalar_master(world):
    from repro.relational.schema import Schema

    _, ruleset, _ = world
    bad = Relation(Schema("m", ["a", "b"]), [(("t", "uple"), "x")])
    with pytest.raises(MasterDataError, match="JSON scalar"):
        ShardServerApp(ruleset, bad, 0, 1)


# ---------------------------------------------------------------------------
# Routing and misroutes
# ---------------------------------------------------------------------------


def test_probes_spread_across_shards(world, cluster):
    store = RemoteMasterStore(cluster.urls)
    try:
        requests = _probe_requests(world, n=20)
        got = store.probe_many(requests)
        single = SingleRelationStore(world[0])
        assert got == [single.probe(r, v) for r, v in requests]
        per_shard = store.stats()["per_shard"]
        assert sum(s["probes"] for s in per_shard) == len(requests)
        assert sum(1 for s in per_shard if s["probes"]) > 1, "routing never spread"
    finally:
        store.close()


def test_server_rejects_misrouted_probe(world):
    master, ruleset, workload = world
    rules = [r for r in ruleset if not r.is_constant]
    app = ShardServerApp(ruleset, master, 0, SHARDS)
    values = list(workload.clean.rows())[0].to_dict()
    # find a probe that routes elsewhere, send it to shard 0 anyway
    for row in workload.clean.rows():
        values = row.to_dict()
        rule = rules[0]
        if app.store.route(rule, values) != 0:
            break
    status, payload = app.handle(
        "POST",
        "/probe_many",
        {"probes": [{"rule_id": rule.rule_id, "values": values}]},
    )
    assert status == 409
    assert "routes to shard" in payload["error"]
    assert app.metrics.counter_value("cerfix.shard.misroutes") == 1


def test_client_misroute_is_loud_not_wrong(world, cluster, monkeypatch):
    store = RemoteMasterStore(cluster.urls)
    try:
        (rule, values) = _probe_requests(world, n=1)[0]
        right = store.route(rule, values)
        monkeypatch.setattr(
            RemoteMasterStore, "route", lambda self, r, v: (right + 1) % SHARDS
        )
        with pytest.raises(MasterDataError, match="routes to shard"):
            store.probe(rule, values)
    finally:
        store.close()


def test_unknown_rule_is_a_clear_400(world, cluster):
    store = RemoteMasterStore(cluster.urls)
    try:
        status_error = None
        try:
            store.groups[0].request(
                "POST", "/probe_many",
                {"probes": [{"rule_id": "phantom", "values": {}}]},
            )
        except MasterDataError as exc:
            status_error = str(exc)
        assert status_error and "unknown or constant rule" in status_error
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Failure handling: retries, restarts, dead shards
# ---------------------------------------------------------------------------


def test_transient_5xx_retries_then_succeeds(world):
    master, ruleset, _ = world
    solo = ShardCluster.in_process(ruleset, master, 1)
    try:
        app = solo._members[0]["server"].app
        real = app.handle
        failures = {"left": 2}

        def flaky(method, path, body):
            if path == "/probe_many" and failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("injected shard hiccup")  # -> 500
            return real(method, path, body)

        app.handle = flaky
        store = RemoteMasterStore(solo.urls, retries=3, backoff=0.01)
        (rule, values) = _probe_requests(world, n=1)[0]
        expected = SingleRelationStore(master).probe(rule, values)
        assert store.probe(rule, values) == expected
        stats = store.stats()["per_shard"][0]
        assert stats["retries"] >= 2 and stats["errors"] == 0
        store.close()
    finally:
        solo.close()


def test_shard_restart_mid_probing_heals_via_retry(world, cluster):
    store = RemoteMasterStore(cluster.urls, retries=3, backoff=0.02)
    try:
        (rule, values) = _probe_requests(world, n=1)[0]
        shard_id = store.route(rule, values)
        before = store.probe(rule, values)  # opens the pooled connection
        cluster.restart(shard_id)
        assert store.probe(rule, values) == before
        assert store.stats()["per_shard"][shard_id]["retries"] >= 1
    finally:
        store.close()


def test_dead_shard_is_a_loud_error_not_a_wrong_answer(world):
    master, ruleset, _ = world
    mortal = ShardCluster.in_process(ruleset, master, SHARDS)
    store = RemoteMasterStore(mortal.urls, retries=1, backoff=0.01)
    try:
        requests = _probe_requests(world, n=12)
        by_shard = {}
        for rule, values in requests:
            by_shard.setdefault(store.route(rule, values), (rule, values))
        assert len(by_shard) > 1, "need probes on several shards"
        dead = sorted(by_shard)[0]
        alive = sorted(by_shard)[1]
        mortal.stop(dead)
        # probes routed to the dead shard: loud, naming shard and url
        with pytest.raises(MasterDataError, match=f"shard {dead} .* unreachable"):
            store.probe(*by_shard[dead])
        # probes routed elsewhere keep working
        rule, values = by_shard[alive]
        assert store.probe(rule, values) == SingleRelationStore(master).probe(rule, values)
        assert store.stats()["per_shard"][dead]["errors"] >= 1
    finally:
        store.close()
        mortal.close()


def test_remote_updates_are_refused(world, cluster):
    store = RemoteMasterStore(cluster.urls)
    try:
        with pytest.raises(MasterDataError, match="read-only"):
            store.apply_update(add=[{}])
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Round-trip amortisation and the wire lifecycle
# ---------------------------------------------------------------------------


def test_probe_many_amortises_round_trips(world, cluster):
    requests = _probe_requests(world, n=30)
    naive = RemoteMasterStore(cluster.urls)
    batched = RemoteMasterStore(cluster.urls)
    try:
        for rule, values in requests:
            naive.probe(rule, values)
        batched.probe_many(requests)

        def trips(store):
            # subtract the handshake GET per shard
            return sum(s["round_trips"] - 1 for s in store.stats()["per_shard"])

        assert trips(naive) == len(requests)
        assert trips(batched) <= SHARDS  # one POST per shard
        assert trips(batched) < trips(naive) / 5
    finally:
        naive.close()
        batched.close()


def test_relation_fetch_is_lazy_and_digest_checked(world, cluster):
    master, _, _ = world
    store = RemoteMasterStore(cluster.urls)
    try:
        assert store._relation is None  # probing never fetched it
        assert len(store) == len(master)
        assert store.content_digest() == SingleRelationStore(master).content_digest()
        assert store.relation.tuples() == master.tuples()  # lazy fetch
        rule = next(r for r in world[1] if not r.is_constant)
        assert store.ambiguous_keys(rule) == SingleRelationStore(master).ambiguous_keys(rule)
    finally:
        store.close()


def test_pickled_store_reconnects_and_agrees(world, cluster):
    store = RemoteMasterStore(cluster.urls)
    try:
        (rule, values) = _probe_requests(world, n=1)[0]
        expected = store.probe(rule, values)
        clone = pickle.loads(pickle.dumps(store))
        try:
            assert clone.probe(rule, values) == expected
            assert clone.content_digest() == store.content_digest()
        finally:
            clone.close()
    finally:
        store.close()


def test_fetch_health_reports_dead_server():
    with pytest.raises(MasterDataError, match="no healthy shard server"):
        fetch_health("http://127.0.0.1:1")


# ---------------------------------------------------------------------------
# Journal resume across a shard restart (the acceptance scenario)
# ---------------------------------------------------------------------------


def test_remote_batch_crash_resume_with_shard_restart(tmp_path, monkeypatch):
    """Kill a remote-backed batch run mid-shard, restart one shard
    server, then resume from the journal: same repaired relation, same
    scheduling-independent report as an uninterrupted run."""
    case = generate_case(2101, scenario="uk")
    journal = tmp_path / "journal.jsonl"
    with case_cluster(case, tmp_path, shards=SHARDS) as cluster:
        def engine():
            return CerFix(
                case.ruleset,
                make_store(
                    Relation(case.master.schema, case.master.tuples()),
                    "remote",
                    urls=cluster.urls,
                ),
            )

        expected = engine().clean_relation(
            case.dirty, case.truth, workers=1, shards=4
        )

        real = executor_mod._run_shard
        calls = {"n": 0}

        def crashing(shard, ctx, base, cache, *memos):
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-shard kill")
            calls["n"] += 1
            return real(shard, ctx, base, cache, *memos)

        monkeypatch.setattr(executor_mod, "_run_shard", crashing)
        with pytest.raises(RuntimeError, match="simulated mid-shard kill"):
            engine().clean_relation(
                case.dirty, case.truth, workers=1, shards=4, journal_path=journal
            )
        monkeypatch.setattr(executor_mod, "_run_shard", real)
        assert sum(
            1 for line in journal.read_text().splitlines()
            if json.loads(line)["kind"] == "shard"
        ) == 2

        # the "restart": one shard server bounces before the resume
        cluster.restart(1)
        resumed = engine().clean_relation(
            case.dirty, case.truth, workers=1, shards=4, journal_path=journal
        )
        assert resumed.relation.tuples() == expected.relation.tuples()
        assert resumed.report.resumed_shards == 2
        assert normalize_report(resumed.report.to_json()) == normalize_report(
            expected.report.to_json()
        )


# ---------------------------------------------------------------------------
# Subprocess cluster lifecycle (what the CI remote-store leg boots)
# ---------------------------------------------------------------------------


def test_subprocess_cluster_boots_serves_and_dies(world, tmp_path):
    master, ruleset, workload = world
    case = generate_case(2202, scenario="uk", n=8)
    instance = tmp_path / "inst"
    write_case_instance(case, instance)
    cluster = ShardCluster.spawn(instance, SHARDS)
    processes = [m["process"] for m in cluster._members]
    try:
        for i, url in enumerate(cluster.urls):
            health = fetch_health(url)
            assert (health["shard_id"], health["shards"]) == (i, SHARDS)
        factories = store_factories(case, tmp_path, remote_urls=cluster.urls)
        remote, single = factories["remote"](), factories["single"]()
        rules = [r for r in case.ruleset if not r.is_constant]
        requests = [
            (rule, row.to_dict())
            for row in list(case.dirty.rows())[:6]
            for rule in rules
        ]
        assert remote.probe_many(requests) == [
            single.probe(r, v) for r, v in requests
        ]
        # rolling restart of a real process, same port
        cluster.restart(0)
        assert remote.probe_many(requests) == [
            single.probe(r, v) for r, v in requests
        ]
        remote.close()
    finally:
        cluster.close()
    for process in processes:
        assert process.poll() is not None, "cluster.close() left an orphan"


# ---------------------------------------------------------------------------
# Configuration surfaces
# ---------------------------------------------------------------------------


def test_spawn_failure_reports_child_output(tmp_path):
    """A server dying at startup must surface its own error text, not
    just an exit code and a timeout."""
    with pytest.raises(MasterDataError, match="child output") as excinfo:
        ShardCluster.spawn(tmp_path / "no-such-instance", 1, timeout=10)
    assert "no instance document" in str(excinfo.value)


def test_auto_dispatch_never_inlines_remote_probes(world, cluster, monkeypatch):
    """The store kind alone decides the dispatch: an io_bound store
    gets the executor (a blocking network probe, or its retry cycle, on
    the event loop would stall accepts and backpressure), every other
    store runs inline — however many cores the host reports."""
    import os as os_mod

    from repro.service.app import AsyncCerFixService

    master, ruleset, _ = world
    monkeypatch.setattr(os_mod, "cpu_count", lambda: 64)
    engine = CerFix(ruleset, master, store="remote", store_urls=list(cluster.urls))
    service = AsyncCerFixService(engine)
    assert service.dispatch_mode == "executor"
    service.close()
    engine.master.store.close()
    local = CerFix(ruleset, master)
    service = AsyncCerFixService(local)
    assert service.dispatch_mode == "inline"  # in-memory stores keep the fast path
    service.close()


def test_instance_document_remote_store_section(world, cluster, tmp_path):
    master, ruleset, _ = world
    from repro.config import InstanceConfig, load_instance, save_instance
    from repro.core.certainty import CertaintyMode

    config = InstanceConfig(
        "uk-remote",
        ruleset.input_schema,
        ruleset.master_schema,
        mode=CertaintyMode.ANCHORED,
        store={"backend": "remote", "urls": list(cluster.urls)},
    )
    save_instance(tmp_path / "inst", config, master, ruleset)
    engine, loaded = load_instance(tmp_path / "inst")
    assert engine.master.store.backend == "remote"
    assert loaded.store["urls"] == list(cluster.urls)
    engine.master.store.close()


def test_instance_document_rejects_bad_remote_section():
    from repro.config import InstanceConfig
    from repro.errors import ValidationError

    base = {
        "name": "x",
        "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
        "master_schema": {"name": "m", "attributes": [{"name": "a"}]},
    }
    for urls in (None, [], ["", "http://ok:1"], "http://not-a-list:1"):
        doc = dict(base, store={"backend": "remote", "urls": urls})
        with pytest.raises(ValidationError, match="'urls'"):
            InstanceConfig.from_json(doc)


def test_cli_remote_flag_validation():
    from repro.explorer.cli import main

    rc = main(
        ["clean", "--scenario", "uk", "--store", "remote", "--input", "/dev/null"]
    )
    assert rc == 2  # "--store remote requires --shard-urls", prettified


def test_cli_shard_urls_parses_replica_groups():
    from types import SimpleNamespace

    from repro.explorer.cli import _parse_shard_urls

    flat = _parse_shard_urls(SimpleNamespace(shard_urls="h:1, h:2 ,h:3"))
    assert flat == ["h:1", "h:2", "h:3"]
    nested = _parse_shard_urls(SimpleNamespace(shard_urls="h:1,h:2; h:3 ,h:4"))
    assert nested == [["h:1", "h:2"], ["h:3", "h:4"]]
    assert _parse_shard_urls(SimpleNamespace(shard_urls="")) is None


def test_topology_normalisation_accepts_mixed_forms():
    got = _normalize_topology(["http://a:1", ["http://b:2", "http://c:3/"]])
    assert got == (("http://a:1",), ("http://b:2", "http://c:3"))
    with pytest.raises(MasterDataError, match="single string"):
        _normalize_topology("http://a:1")
    with pytest.raises(MasterDataError, match="at least one url"):
        _normalize_topology([[]])


def test_instance_document_accepts_replica_url_lists():
    from repro.config import InstanceConfig
    from repro.errors import ValidationError

    base = {
        "name": "x",
        "input_schema": {"name": "i", "attributes": [{"name": "a"}]},
        "master_schema": {"name": "m", "attributes": [{"name": "a"}]},
    }
    nested = [["http://a:1", "http://b:2"], "http://c:3"]
    config = InstanceConfig.from_json(
        dict(base, store={"backend": "remote", "urls": nested})
    )
    assert config.store["urls"] == nested
    for urls in ([[]], [["http://a:1"], []], [[""]], [["http://a:1", 7]]):
        with pytest.raises(ValidationError, match="'urls'"):
            InstanceConfig.from_json(
                dict(base, store={"backend": "remote", "urls": urls})
            )


# ---------------------------------------------------------------------------
# Retry-path details: jitter, failure kinds, error accounting
# ---------------------------------------------------------------------------


def test_backoff_jitter_is_decorrelated_and_bounded():
    base, cap = 0.05, 0.8
    delay, seen = 0.0, set()
    for _ in range(200):
        delay = _backoff_delay(base, delay, cap)
        assert base <= delay <= cap
        seen.add(round(delay, 9))
    assert len(seen) > 20, "no jitter: delays repeat deterministically"


def test_exhausted_5xx_reports_server_error_not_unreachable(world):
    """A shard that *answers* — with a 5xx every time — must not be
    reported as 'unreachable': the operator's next move differs."""
    master, ruleset, _ = world
    solo = ShardCluster.in_process(ruleset, master, 1)
    store = RemoteMasterStore(solo.urls, retries=1, backoff=0.01)
    try:
        app = solo._members[0]["server"].app

        def always_fail(method, path, body):
            raise RuntimeError("injected permanent failure")  # handler -> 500

        app.handle = always_fail
        with pytest.raises(MasterDataError, match="5xx answer on every one of 2"):
            store.probe(*_probe_requests(world, n=1)[0])
        assert store.stats()["per_shard"][0]["errors"] >= 1
    finally:
        store.close()
        solo.close()


def test_4xx_detail_is_decoded_text_and_counted(world):
    master, ruleset, _ = world
    solo = ShardCluster.in_process(ruleset, master, 1)
    store = RemoteMasterStore(solo.urls)
    try:
        app = solo._members[0]["server"].app
        # a non-dict JSON body: the detail must come out as text, never
        # as a bytes repr leaking b'...' into the user-facing error
        app.handle = lambda method, path, body: (418, "short and stout")
        with pytest.raises(MasterDataError, match="short and stout") as excinfo:
            store.probe(*_probe_requests(world, n=1)[0])
        assert "b'" not in str(excinfo.value)
        assert store.stats()["per_shard"][0]["errors"] == 1
    finally:
        store.close()
        solo.close()


# ---------------------------------------------------------------------------
# Replication: rotation, failover, circuit breaking
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def replicated(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, SHARDS, replicas=REPLICAS)
    yield cluster
    cluster.close()


def test_replicated_topology_parity_and_read_spread(world, replicated):
    urls = replicated.urls
    assert all(isinstance(group, list) and len(group) == REPLICAS for group in urls)
    store = RemoteMasterStore(urls)
    try:
        requests = _probe_requests(world, n=20)
        single = SingleRelationStore(world[0])
        expected = [single.probe(r, v) for r, v in requests]
        for _ in range(3):
            assert store.probe_many(requests) == expected
        per_shard = store.stats()["per_shard"]
        assert sum(s["probes"] for s in per_shard) == 3 * len(requests)
        # healthy replicas rotate the read load — for busy shards both
        # replicas end up serving probes, not just the primary
        spread = [[r["probes"] for r in s["replicas"]] for s in per_shard]
        assert any(all(served > 0 for served in shard) for shard in spread), spread
    finally:
        store.close()


def test_replica_killed_mid_run_fails_over_bit_identically(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, SHARDS, replicas=REPLICAS)
    store = RemoteMasterStore(cluster.urls, retries=1, backoff=0.01)
    try:
        requests = _probe_requests(world, n=20)
        single = SingleRelationStore(master)
        expected = [single.probe(r, v) for r, v in requests]
        assert store.probe_many(requests) == expected  # warm pooled conns
        for shard in range(SHARDS):
            cluster.stop(shard, 1)  # kill one replica of every shard
        # two sweeps: rotation guarantees the dead replica leads the
        # candidate order at least once per shard — forcing a failover
        assert store.probe_many(requests) == expected
        assert store.probe_many(requests) == expected
        stats = store.stats()
        assert sum(s["failovers"] for s in stats["per_shard"]) >= 1
    finally:
        store.close()
        cluster.close()


def test_circuit_opens_and_half_opens_on_schedule():
    """The breaker on an injected clock: every transition at a chosen
    instant, with no wait for a real window to elapse."""
    endpoint = ShardEndpoint(
        0,
        "http://127.0.0.1:9",
        stats_token="circuit-schedule-test",
        circuit_threshold=2,
        circuit_reset=0.15,
    )
    t = 1000.0
    assert endpoint.circuit_state(now=t) == "closed"
    endpoint.note_failure(now=t)
    assert endpoint.circuit_state(now=t) == "closed"  # below threshold
    endpoint.note_failure(now=t)
    assert endpoint.circuit_state(now=t) == "open"
    assert endpoint.stats()["circuit_opens"] == 1
    assert endpoint.circuit_state(now=t + 0.149) == "open"
    assert not endpoint.claim_half_open_probe(now=t + 0.149)  # window not elapsed yet
    t += 0.15
    assert endpoint.circuit_state(now=t) == "half-open"
    assert endpoint.claim_half_open_probe(now=t)  # exactly one claimant...
    assert not endpoint.claim_half_open_probe(now=t)  # ...window re-armed
    assert endpoint.circuit_state(now=t) == "open"
    endpoint.note_failure(now=t + 0.01)  # the re-probe failed: open again, counted once
    assert endpoint.circuit_state(now=t + 0.15) == "open"
    assert endpoint.stats()["circuit_opens"] == 1
    t += 0.2
    assert endpoint.circuit_state(now=t) == "half-open"
    assert endpoint.claim_half_open_probe(now=t)
    endpoint.note_success()  # the re-probe succeeded: fully closed
    assert endpoint.circuit_state(now=t) == "closed"
    assert endpoint.stats()["circuit"] == "closed"


def test_circuit_parks_dead_replica_after_threshold(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, 1, replicas=REPLICAS)
    store = RemoteMasterStore(
        cluster.urls, retries=0, backoff=0.01, circuit_threshold=2, circuit_reset=60.0
    )
    try:
        rule, values = _probe_requests(world, n=1)[0]
        cluster.stop(0, 0)
        for _ in range(6):
            store.probe(rule, values)
        dead, alive = store.stats()["per_shard"][0]["replicas"]
        assert dead["circuit"] == "open"
        assert alive["circuit"] == "closed" and alive["probes"] == 6
        # after circuit_threshold failures the dead replica is parked —
        # later probes stop re-dialing it, so failovers stay bounded
        assert dead["failovers"] == 2
    finally:
        store.close()
        cluster.close()


def test_all_replicas_dead_is_loud_and_names_every_url(world):
    master, ruleset, _ = world
    cluster = ShardCluster.in_process(ruleset, master, 1, replicas=REPLICAS)
    urls = list(cluster.urls[0])
    store = RemoteMasterStore(cluster.urls, retries=0, backoff=0.01)
    try:
        rule, values = _probe_requests(world, n=1)[0]
        cluster.stop(0, 0)
        cluster.stop(0, 1)
        with pytest.raises(MasterDataError, match="no reachable replica") as excinfo:
            store.probe(rule, values)
        for url in urls:
            assert url in str(excinfo.value), f"error does not name {url}"
    finally:
        store.close()
        cluster.close()


def test_stale_replica_rejected_at_handshake(world, cluster):
    """A replica serving *yesterday's* master must be refused loudly at
    construction — failover would otherwise consult it silently."""
    master, ruleset, _ = world
    stale_master = uk.generate_master(40, seed=77)
    stale = ShardCluster.in_process(ruleset, stale_master, SHARDS)
    try:
        urls = [
            [cluster.urls[i], stale.urls[i]] if i == 1 else [cluster.urls[i]]
            for i in range(SHARDS)
        ]
        with pytest.raises(MasterDataError, match="disagree on master content"):
            RemoteMasterStore(urls)
    finally:
        stale.close()


def test_replicated_store_pickles_with_topology(world, replicated):
    store = RemoteMasterStore(replicated.urls)
    try:
        rule, values = _probe_requests(world, n=1)[0]
        expected = store.probe(rule, values)
        clone = pickle.loads(pickle.dumps(store))
        try:
            assert clone.replica_urls == store.replica_urls
            assert clone.probe(rule, values) == expected
        finally:
            clone.close()
    finally:
        store.close()


# ---------------------------------------------------------------------------
# Chaos conformance: kills and rolling restarts under live cleans and sessions
# ---------------------------------------------------------------------------


def _failover_case(seed: int, kind: str):
    """The oracle loop probes one key per round trip; the rule-only
    clean (trusted ``zip``) prefetches, and its tiny wire chunks and
    cache put the disruption between prefetch chunks and windows."""
    if kind == "oracle":
        return generate_case(seed, scenario="uk"), {}
    case = dataclasses.replace(
        generate_case(seed, scenario="uk", with_truth=False), validated=("zip",)
    )
    return case, {"max_batch": 2, "cache_size": 16}


DISRUPTIONS = {
    "replica-kill": lambda c: c.stop(1, 0),
    "rolling-restart": lambda c: c.rolling_restart(pause=0.02),
}


def _run_failover(tmp_path, seed, kind, disruption, path="batch"):
    case, sizes = _failover_case(seed, kind)
    with case_cluster(case, tmp_path, shards=SHARDS, replicas=REPLICAS) as cluster:
        return run_failover_conformance(
            case,
            cluster,
            disrupt=DISRUPTIONS[disruption],
            path=path,
            **sizes,
        )


def test_failover_conformance_replica_killed_mid_run(tmp_path):
    """A replica dying while the entry service has 8 sessions probing:
    zero wrong answers, bit-identical to the single backend's serial
    monitor run."""
    outcome = _run_failover(tmp_path, 2303, "oracle", "replica-kill", path="service")
    assert outcome.fixed_rows


def test_failover_conformance_rolling_restart_under_live_traffic(tmp_path):
    """Every member bounced one at a time while the entry service
    serves concurrent sessions — the zero-downtime deployment shape —
    with bit-identical output."""
    _run_failover(tmp_path, 2404, "oracle", "rolling-restart", path="service")


@pytest.mark.parametrize("kind", ["oracle", "rule-only"])
@pytest.mark.parametrize(
    "disruption, seed", [("replica-kill", 2303), ("rolling-restart", 2404)]
)
def test_failover_conformance_serial_and_prefetched(tmp_path, disruption, seed, kind):
    """The same disruptions under a serial batch clean, which must show
    a retry or failover, with the oracle loop and with a prefetched
    rule-only clean, where they land between prefetch chunks and
    windows."""
    outcome = _run_failover(tmp_path, seed, kind, disruption)
    assert outcome.fixed_rows
