"""First-round probe prefetch in the batch pipeline over remote shards.

With a trusted seed (``validated=...``) and an io-bound store, the
shard executor predicts each group's first-round probes and warms the
probe cache with one ``probe_many`` per window
(:meth:`repro.batch.cache.CachingMasterDataManager.prefetch`); later
chase rounds fall back to single probes. These tests pin that the path
runs, that it changes round trips and never output — bit-identical to
the ``single`` backend across workers, tiny windows, wire chunks, the
single-probe fallback and the paged DB path — and that local stores
never take it.

The cluster is in-process threads by default; the CI ``remote-store``
leg sets ``CERFIX_REMOTE_PROCESSES=1`` to run the same tests against
``cerfix shard-server`` subprocesses.
"""

from __future__ import annotations

import math
import os

import pytest

from repro import CerFix
from repro.batch.cache import CachingMasterDataManager
from repro.dirty import DirtyTable
from repro.master.conformance import (
    DifferentialCase,
    assert_parity,
    case_cluster,
    run_batch_path,
)
from repro.master.remote import RemoteMasterStore
from repro.master.store import SingleRelationStore
from repro.relational.relation import Relation
from repro.scenarios import uk_customers as uk

REMOTE_PROCESSES = os.environ.get("CERFIX_REMOTE_PROCESSES", "") == "1"
SHARDS = 2
SEED = ("zip",)


def _case(n: int, *, truth: bool, extended: bool = False):
    # One master for every case: the module's cluster serves it.
    master = uk.generate_master(150, seed=61)
    workload = uk.generate_workload(master, n, rate=0.25, seed=62)
    return DifferentialCase(
        name=f"prefetch-{n}{'-oracle' if truth else ''}{'-ext' if extended else ''}",
        ruleset=uk.paper_ruleset(extended=extended),
        master=master,
        dirty=workload.dirty,
        truth=workload.clean if truth else None,
        validated=SEED,
    )


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    # The extended rule set is a superset of the paper's (same ids, same
    # rules), so one cluster answers every case in this module.
    case = _case(1, truth=False, extended=True)
    with case_cluster(
        case, tmp_path_factory.mktemp("prefetch"), shards=SHARDS, processes=REMOTE_PROCESSES
    ) as running:
        yield running


@pytest.fixture()
def prefetches(monkeypatch):
    """Every prefetch call's probe count, in call order — in this
    process only: a process worker prefetches out of the spy's sight,
    so ``workers=2`` runs assert parity alone."""
    seen: list[int] = []
    original = CachingMasterDataManager.prefetch

    def spy(self, requests, **kwargs):
        sent = original(self, requests, **kwargs)
        seen.append(sent)
        return sent

    monkeypatch.setattr(CachingMasterDataManager, "prefetch", spy)
    return seen


def _single(case: DifferentialCase) -> SingleRelationStore:
    return SingleRelationStore(Relation(case.master.schema, case.master.tuples()))


def _totals(store: RemoteMasterStore) -> tuple[int, int]:
    per_shard = store.stats()["per_shard"]
    return sum(s["probes"] for s in per_shard), sum(s["round_trips"] for s in per_shard)


def _assert_remote_matches_single(case, cluster, *, workers, max_batch=512, cache_size=4096):
    reference = run_batch_path(case, _single(case), workers=workers, cache_size=cache_size)
    store = RemoteMasterStore(cluster.urls, max_batch=max_batch)
    try:
        remote = run_batch_path(case, store, workers=workers, cache_size=cache_size)
    finally:
        store.close()
    assert_parity({"single": reference, "remote": remote})
    assert any(e["source"] == "rule" for e in reference.audit_events)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("truth", [False, True], ids=["rule-only", "seeded-oracle"])
def test_prefetched_clean_bit_identical_to_single(cluster, prefetches, truth, workers):
    case = _case(60, truth=truth)
    _assert_remote_matches_single(case, cluster, workers=workers)
    if workers == 1:
        assert sum(prefetches) > 0, "the remote clean never prefetched"


@pytest.mark.parametrize("workers", [1, 2])
def test_many_windows_and_tiny_wire_chunks_bit_identical(cluster, prefetches, workers):
    """A 16-entry cache holds windows of two groups (4 zip-only rules,
    8 keys at most); each process worker has a cache of its own.
    ``max_batch=2`` splits each prefetch into many wire chunks."""
    case = _case(60, truth=False, extended=True)
    _assert_remote_matches_single(case, cluster, workers=workers, max_batch=2, cache_size=16)
    if workers == 1:
        assert len(prefetches) >= 10, f"only {len(prefetches)} prefetch windows"
        assert max(prefetches) <= 16 // 2, "a window overran half the cache"


def test_later_rounds_fall_back_to_single_probes(cluster, prefetches, monkeypatch):
    """ϕ10 fixes AC from the zip, which makes ϕ9 (reads AC) applicable
    only after the first prefetch was sent: its probes go out singly."""
    singles: list[str] = []
    original = RemoteMasterStore.probe

    def spy(self, rule, values, **kwargs):
        singles.append(rule.rule_id)
        return original(self, rule, values, **kwargs)

    monkeypatch.setattr(RemoteMasterStore, "probe", spy)
    case = _case(60, truth=False, extended=True)
    _assert_remote_matches_single(case, cluster, workers=1)
    assert sum(prefetches) > 0
    assert "phi9" in singles
    assert "phi10" not in singles, "a first-round probe missed the prefetch"


def test_paged_clean_table_over_remote_equals_in_memory(cluster, prefetches, tmp_path):
    case = _case(60, truth=False)
    expected = CerFix(case.ruleset, _single(case)).clean_relation(
        case.dirty, validated=SEED
    )
    db = tmp_path / "dirty.db"
    DirtyTable.create(db, case.dirty)
    engine = CerFix(case.ruleset, case.master, store="remote", store_urls=list(cluster.urls))
    try:
        result = engine.clean_table(db, page_rows=16, validated=SEED)
    finally:
        engine.master.store.close()
    assert result.pages == 4
    assert len(prefetches) >= result.pages, "not every page prefetched"
    table = DirtyTable(db)
    conn = table.backend.connect(readonly=True)
    try:
        assert table.read_relation(conn).raw_tuples() == expected.relation.raw_tuples()
    finally:
        conn.close()
    assert result.changed_cells == expected.report.changed_cells > 0


def test_round_trips_bounded_and_misses_equal_store_probes(cluster):
    """Stats only, no timing: a 600-row rule-only clean crosses the
    network at most once per 32 probes, and the cache reports one miss
    for every probe the store answered — prefetched keys included."""
    case = _case(600, truth=False)
    engine = CerFix(case.ruleset, case.master, store="remote", store_urls=list(cluster.urls))
    store = engine.master.store
    try:
        probes_before, trips_before = _totals(store)
        result = engine.clean_relation(case.dirty, validated=SEED)
        probes_after, trips_after = _totals(store)
    finally:
        store.close()
    probes = probes_after - probes_before
    trips = trips_after - trips_before
    assert probes > 100
    assert trips <= math.ceil(probes / 32), f"{trips} round trips for {probes} probes"
    assert result.report.cache.misses == probes


def test_local_store_batch_clean_never_calls_probe_many(prefetches, monkeypatch):
    calls: list[int] = []
    original = SingleRelationStore.probe_many

    def spy(self, requests, **kwargs):
        calls.append(len(requests))
        return original(self, requests, **kwargs)

    monkeypatch.setattr(SingleRelationStore, "probe_many", spy)
    for truth in (False, True):
        case = _case(60, truth=truth)
        run_batch_path(case, _single(case))
    assert calls == [] and prefetches == []
