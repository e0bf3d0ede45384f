"""One probe cache, only where a probe is expensive.

An in-process store (single, sqlite) answers repeats from its
own memo or index, so batch and service probe it directly; only an
``io_bound`` (remote) store gets the
:class:`~repro.batch.cache.CachingMasterDataManager` over the one
:class:`~repro.batch.cache.LRUMemo`. These tests pin that routing, that
it changes no fix or audit event, that the LRU's counters stay exact
under threads, that ``cache_size`` is validated even where no cache is
built, and that the probe-cache snapshot is durable.

The reference cluster is in-process threads by default; the CI
``remote-store`` leg sets ``CERFIX_REMOTE_PROCESSES=1`` to run it as
``cerfix shard-server`` subprocesses.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro import CerFix
from repro.batch.cache import (
    CachingMasterDataManager,
    LRUMemo,
    load_probe_cache,
    save_probe_cache,
)
from repro.master.conformance import (
    PathOutcome,
    assert_parity,
    case_cluster,
    generate_case,
    normalize_report,
    run_service_path,
    store_factories,
)
from repro.master.manager import MasterMatch
from repro.scenarios import uk_customers as uk

REMOTE_PROCESSES = os.environ.get("CERFIX_REMOTE_PROCESSES", "") == "1"
IN_PROCESS = ("single", "sqlite")


@pytest.fixture(scope="module")
def case():
    return generate_case(1701, scenario="uk", n=30)


@pytest.fixture(scope="module")
def cluster(case, tmp_path_factory):
    with case_cluster(
        case, tmp_path_factory.mktemp("probe-cache"), shards=2, processes=REMOTE_PROCESSES
    ) as running:
        yield running


@pytest.fixture()
def cached_matches(monkeypatch):
    """How many times any ``CachingMasterDataManager.match`` ran."""
    calls = [0]
    original = CachingMasterDataManager.match

    def spy(self, rule, values, **kwargs):
        calls[0] += 1
        return original(self, rule, values, **kwargs)

    monkeypatch.setattr(CachingMasterDataManager, "match", spy)
    return calls


def _remote_reference(case, cluster, tmp_path, run, **kwargs):
    """``run`` over the remote store: the cached path every in-process
    backend must match bit for bit."""
    factories = store_factories(case, tmp_path, remote_urls=list(cluster.urls))
    store = factories["remote"]()
    try:
        return run(case, store, **kwargs)
    finally:
        store.close()


def _batch_with_lookups(case, store, *, workers):
    """The batch path's outcome plus its report's probe-cache lookups.
    Process workers count their lookups and ship them back, so the
    number holds at ``workers > 1``, where a spy in this process would
    see nothing."""
    engine = CerFix(case.ruleset, store)
    result = engine.clean_relation(
        case.dirty, case.truth, workers=workers, validated=case.validated
    )
    outcome = PathOutcome(
        fixed_rows=result.relation.tuples(),
        audit_events=[e.to_json() for e in engine.audit],
        regions=[],
        report=normalize_report(result.report.to_json()),
    )
    return outcome, result.report.cache.probes


@pytest.mark.parametrize("workers", [1, 2])
def test_in_process_batch_probes_bypass_the_cache(case, cluster, tmp_path, workers):
    reference, lookups = _remote_reference(
        case, cluster, tmp_path, _batch_with_lookups, workers=workers
    )
    assert lookups > 0  # the remote reference did go through the cache
    factories = store_factories(case, tmp_path)
    for backend in IN_PROCESS:
        outcome, lookups = _batch_with_lookups(case, factories[backend](), workers=workers)
        assert lookups == 0, f"{backend} batch probed through the cache"
        assert_parity({"remote": reference, backend: outcome})


def test_in_process_service_sessions_bypass_the_cache(case, cluster, cached_matches, tmp_path):
    reference = _remote_reference(case, cluster, tmp_path, run_service_path)
    assert cached_matches[0] > 0
    factories = store_factories(case, tmp_path)
    for backend in IN_PROCESS:
        cached_matches[0] = 0
        outcome = run_service_path(case, factories[backend]())
        assert cached_matches[0] == 0, f"{backend} service probed through the cache"
        assert_parity({"remote": reference, backend: outcome})


def test_in_process_service_builds_no_probe_cache():
    engine = CerFix(uk.paper_ruleset(), uk.paper_master())
    from repro.service.app import AsyncCerFixService

    service = AsyncCerFixService(engine)
    try:
        assert service.cache is None and service.batcher is None
        assert service.manager is engine.master
        probe_cache = service.metrics_json()["probe_cache"]
        assert probe_cache["hits"] + probe_cache["misses"] == 0
    finally:
        service.close()


def test_cache_size_below_one_rejected_without_a_cache():
    """``cache_size`` is validated where it enters, even over a store
    that builds no probe cache."""
    engine = CerFix(uk.paper_ruleset(), uk.paper_master())
    dirty = uk.paper_master()  # never reached: validation comes first
    for bad in (0, -3):
        with pytest.raises(ValueError, match="cache_size must be >= 1"):
            engine.clean_relation(dirty, cache_size=bad)
        with pytest.raises(ValueError, match="cache_size must be >= 1"):
            engine.serve_async(cache_size=bad)


def test_lru_memo_counters_exact_under_threads():
    """8 threads hammer one small LRU: every lookup is counted once,
    every hit a thread saw is a counted hit, and every eviction is
    counted — ``evictions == inserts - resident`` exactly."""
    cache = LRUMemo(64)
    sentinel = object()
    threads_n, ops, keys = 8, 2000, 16
    barrier = threading.Barrier(threads_n)
    seen_hits = [0] * threads_n

    def hammer(t: int) -> None:
        barrier.wait()
        for i in range(ops):
            # Each thread owns its keys, so a put after a miss always
            # inserts; 8 x 16 keys overflow the 64-entry cache.
            key = (t, i % keys)
            if cache.get(key) is None:
                cache.put(key, sentinel)
            else:
                seen_hits[t] += 1

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stats = cache.stats
    assert stats.hits + stats.misses == threads_n * ops  # no lost increments
    assert stats.hits == sum(seen_hits)
    assert stats.evictions == stats.misses - len(cache) > 0
    assert len(cache) == cache.maxsize


def test_save_probe_cache_fsyncs_before_rename(tmp_path, monkeypatch):
    """The snapshot's temp file is synced to disk before it replaces the
    previous snapshot, so a crash cannot leave a torn file in its place."""
    events: list[tuple[str, int]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    cache = LRUMemo(8)
    cache.put(("r1", ("k",)), MasterMatch((0,), ("v",)))
    path = tmp_path / "probes.cache"
    stamp = {"master_digest": "m", "rule_ids": ["r1"]}
    assert save_probe_cache(cache, path, **stamp) == 1
    assert [kind for kind, _ in events] == ["fsync", "replace"]
    assert events[0][1] == events[1][1]  # the synced file is the one renamed
    warm, note = load_probe_cache(path, **stamp)
    assert note.startswith("warm start") and warm.snapshot() == cache.snapshot()
