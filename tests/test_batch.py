"""The batch pipeline: planner, probe cache, and parallel determinism.

The load-bearing properties, per ISSUE 2's acceptance criteria:

- thread and process execution at 1/2/4 workers is *byte-identical*
  to the serial path (uk_customers and hospital scenarios);
- the planner collapses duplicate repair signatures and each group is
  resolved exactly once;
- probe-cache hit counters are exact on relations with duplicated
  tuples.

Only a remote store's probes go through the probe cache, so the cache
tests run over a 2-shard cluster: in-process shard servers by default,
``cerfix shard-server`` subprocesses when ``CERFIX_REMOTE_PROCESSES=1``
(the CI ``remote-store`` leg).
"""

from __future__ import annotations

import contextlib
import os
import pickle

import pytest

from repro import CerFix
from repro.batch import BatchCleaner, LRUMemo, build_plan
from repro.batch.cache import CachingMasterDataManager
from repro.errors import CerFixError
from repro.master.conformance import DifferentialCase, case_cluster
from repro.monitor.suggest import SuggestionStrategy
from repro.relational.relation import Relation
from repro.scenarios import hospital, uk_customers as uk


# ---------------------------------------------------------------------------
# Shared workloads (small but dirty enough to exercise every layer)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uk_batch():
    master = uk.generate_master(20, seed=31)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=32)
    return master, wl


@pytest.fixture(scope="module")
def hospital_batch():
    master = hospital.generate_master(15, seed=33)
    wl = hospital.generate_workload(master, 30, rate=0.2, seed=34)
    return master, wl


def _clean(master, wl, ruleset, **kwargs):
    engine = CerFix(ruleset, master)
    return engine.clean_relation(wl.dirty, wl.clean, **kwargs)


REMOTE_PROCESSES = os.environ.get("CERFIX_REMOTE_PROCESSES", "") == "1"


@contextlib.contextmanager
def _serve(master, tmp_path, name):
    """A 2-shard cluster serving ``master`` under the paper's rules."""
    case = DifferentialCase(
        name, uk.paper_ruleset(), master, Relation(uk.INPUT_SCHEMA, []), None
    )
    with case_cluster(case, tmp_path, shards=2, processes=REMOTE_PROCESSES) as cluster:
        yield cluster


@pytest.fixture(scope="module")
def uk_cluster(uk_batch, tmp_path_factory):
    with _serve(uk_batch[0], tmp_path_factory.mktemp("uk-batch"), "uk-batch") as cluster:
        yield cluster


@contextlib.contextmanager
def _remote_cleaner(cluster, **kwargs):
    cleaner = BatchCleaner(
        uk.paper_ruleset(), None, store="remote", store_urls=list(cluster.urls), **kwargs
    )
    try:
        yield cleaner
    finally:
        cleaner.master.store.close()


def _remote_clean(cluster, wl, **kwargs):
    with _remote_cleaner(cluster) as cleaner:
        return cleaner.clean(wl.dirty, wl.clean, **kwargs)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def test_plan_groups_duplicates(uk_batch):
    master, wl = uk_batch
    doubled = Relation(wl.dirty.schema, wl.dirty.tuples() + wl.dirty.tuples())
    truth2 = Relation(wl.clean.schema, wl.clean.tuples() + wl.clean.tuples())
    plan = build_plan(doubled, truth2, shards=4)
    assert plan.total_tuples == 2 * len(wl.dirty)
    assert plan.n_groups <= len(wl.dirty)
    assert plan.duplicates_collapsed >= len(wl.dirty)
    # every row lands in exactly one group
    members = sorted(m for g in plan.groups for m in g.members)
    assert members == list(range(len(doubled)))
    # shards partition the groups
    sharded = sorted(g.representative for s in plan.shards for g in s.groups)
    assert sharded == sorted(g.representative for g in plan.groups)


def test_plan_dedupe_off_keeps_every_row(uk_batch):
    _, wl = uk_batch
    plan = build_plan(wl.dirty, wl.clean, dedupe=False)
    assert plan.n_groups == len(wl.dirty)
    assert plan.duplicates_collapsed == 0


def test_plan_fingerprint_sensitivity(uk_batch):
    _, wl = uk_batch
    base = build_plan(wl.dirty, wl.clean, shards=4)
    assert base.fingerprint == build_plan(wl.dirty, wl.clean, shards=4).fingerprint
    assert base.fingerprint != build_plan(wl.dirty, wl.clean, shards=2).fingerprint
    assert base.fingerprint != build_plan(wl.dirty, shards=4).fingerprint
    assert base.fingerprint != build_plan(
        wl.dirty, wl.clean, shards=4, context=("other-engine",)
    ).fingerprint


def test_plan_rejects_bad_inputs(uk_batch):
    _, wl = uk_batch
    with pytest.raises(CerFixError):
        build_plan(wl.dirty, wl.clean, shards=0)
    short = Relation(wl.clean.schema, wl.clean.tuples()[:-1])
    with pytest.raises(CerFixError):
        build_plan(wl.dirty, short)


# ---------------------------------------------------------------------------
# Parallel determinism (the acceptance criterion)
# ---------------------------------------------------------------------------


#: The executor path each worker count runs, as the report names it.
WORKER_PATHS = {1: "serial", 2: "process", 4: "process"}
WORKER_IDS = [f"{w}-{path}" for w, path in WORKER_PATHS.items()]


@pytest.mark.parametrize("workers", WORKER_PATHS, ids=WORKER_IDS)
def test_uk_parallel_identical_to_serial(uk_batch, workers):
    master, wl = uk_batch
    serial = _clean(master, wl, uk.paper_ruleset(), workers=1)
    parallel = _clean(master, wl, uk.paper_ruleset(), workers=workers)
    assert parallel.report.backend == WORKER_PATHS[workers]
    assert parallel.relation.tuples() == serial.relation.tuples()
    assert parallel.relation.schema.names == serial.relation.schema.names
    # the work accounting is scheduling-independent too
    assert parallel.report.completed == serial.report.completed
    assert parallel.report.user_cells == serial.report.user_cells
    assert parallel.report.rule_cells == serial.report.rule_cells


@pytest.mark.parametrize("workers", WORKER_PATHS, ids=WORKER_IDS)
def test_hospital_parallel_identical_to_serial(hospital_batch, workers):
    master, wl = hospital_batch
    serial = _clean(master, wl, hospital.hospital_ruleset(), workers=1)
    parallel = _clean(master, wl, hospital.hospital_ruleset(), workers=workers)
    assert parallel.report.backend == WORKER_PATHS[workers]
    assert parallel.relation.tuples() == serial.relation.tuples()
    assert parallel.report.completed == serial.report.completed


def test_oracle_batch_reaches_truth(uk_batch):
    """With an oracle user, a completed batch equals the ground truth."""
    master, wl = uk_batch
    result = _clean(master, wl, uk.paper_ruleset(), workers=1)
    assert result.report.completed == result.report.tuples
    assert result.relation.tuples() == wl.clean.tuples()


@pytest.mark.parametrize("store", ["sqlite", "remote"])
def test_oracle_batch_completes_every_row_on_other_stores(uk_batch, uk_cluster, store, tmp_path):
    """The sqlite store (under process workers) and the remote store
    reach the same certain fix for every row as the single store."""
    master, wl = uk_batch
    if store == "sqlite":
        engine = CerFix(uk.paper_ruleset(), master, store="sqlite", store_path=tmp_path / "m.db")
        result = engine.clean_relation(wl.dirty, wl.clean, workers=2)
    else:
        result = _remote_clean(uk_cluster, wl)
    assert result.report.completed == result.report.tuples == len(wl.dirty)
    assert result.relation.tuples() == wl.clean.tuples()


def test_sharding_never_changes_output(uk_batch):
    master, wl = uk_batch
    rows = _clean(master, wl, uk.paper_ruleset(), workers=1, shards=1).relation.tuples()
    for shards in (3, 7, 16):
        assert (
            _clean(master, wl, uk.paper_ruleset(), workers=1, shards=shards)
            .relation.tuples()
            == rows
        )


# ---------------------------------------------------------------------------
# Probe cache
# ---------------------------------------------------------------------------


def test_probe_cache_lru_eviction():
    cache = LRUMemo(maxsize=2)
    from repro.master.manager import MasterMatch

    m = MasterMatch(positions=(0,), values=("x",))
    cache.put(("a",), m)
    cache.put(("b",), m)
    assert cache.get(("a",)) is m  # refreshes 'a'
    cache.put(("c",), m)  # evicts 'b' (least recent)
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is m
    assert cache.get(("c",)) is m
    assert cache.evictions == 1
    assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions) == (3, 1, 1)


def test_caching_manager_matches_base(paper_ruleset, paper_manager):
    """A cached probe returns exactly what the base manager computes."""
    manager = CachingMasterDataManager(paper_manager.relation, LRUMemo(64))
    values = uk.fig3_truth()
    for rule in paper_ruleset:
        if rule.is_constant:
            continue
        base = paper_manager.match(rule, values)
        assert manager.match(rule, values) == base  # miss path
        assert manager.match(rule, values) == base  # hit path
    stats = manager.cache.stats
    assert stats.hits == stats.misses  # every probe repeated once


def test_cache_counters_exact_on_duplicated_relation(tmp_path):
    """Duplicating a 1-tuple relation 3x adds no probe work at all: the
    chase-transcript memo resolves tuples 2 and 3 without ever reaching
    the probe cache (dedupe=False makes each its own group, so this is
    the memo, not the planner), and what the first tuple probed is
    exactly what the run probed. Over a remote store: the only one
    with a probe cache."""
    dirty1 = Relation(uk.INPUT_SCHEMA, [uk.fig3_tuple()])
    truth1 = Relation(uk.INPUT_SCHEMA, [uk.fig3_truth()])
    dirty3 = Relation(uk.INPUT_SCHEMA, dirty1.tuples() * 3)
    truth3 = Relation(uk.INPUT_SCHEMA, truth1.tuples() * 3)

    def run(cluster, dirty, truth):
        with _remote_cleaner(cluster) as cleaner:
            result = cleaner.clean(dirty, truth, workers=1, dedupe=False)
        return result, result.report.cache.hits, result.report.cache.misses

    with _serve(uk.paper_master(), tmp_path, "paper") as cluster:
        result1, hits1, misses1 = run(cluster, dirty1, truth1)
        result3, hits3, misses3 = run(cluster, dirty3, truth3)
    probes1 = hits1 + misses1
    assert misses1 > 0 and probes1 > 0
    assert misses3 == misses1  # nothing new to learn
    assert hits3 == hits1  # ...and nothing re-probed: transcripts replayed
    assert result3.relation.tuples() == result1.relation.tuples() * 3


@pytest.mark.parametrize("workers", (1, 2), ids=("1-serial", "2-process"))
def test_tiny_cache_reports_evictions(uk_batch, uk_cluster, workers):
    """A 1-entry probe cache over a remote store must thrash — and the
    report must say so, on the serial path's one cache and from the
    per-process caches alike."""
    _, wl = uk_batch
    with _remote_cleaner(uk_cluster, cache_size=1) as cleaner:
        result = cleaner.clean(wl.dirty, wl.clean, workers=workers)
    assert result.report.cache.evictions > 0


def test_duplicate_signatures_mean_cache_hits_and_dedup(uk_batch, uk_cluster):
    _, wl = uk_batch
    doubled = Relation(wl.dirty.schema, wl.dirty.tuples() + wl.dirty.tuples())
    truth2 = Relation(wl.clean.schema, wl.clean.tuples() + wl.clean.tuples())
    with _remote_cleaner(uk_cluster) as cleaner:
        result = cleaner.clean(doubled, truth2)
    assert result.report.duplicates_collapsed >= len(wl.dirty)
    assert result.report.cache.hit_rate > 0
    assert "hit rate" in result.report.describe()
    assert result.report.dedup_ratio >= 2.0


# ---------------------------------------------------------------------------
# Pickling (what the pipeline ships to its process workers)
# ---------------------------------------------------------------------------


def test_relation_pickles_without_indexes(paper_ruleset, paper_master):
    """``Relation.__reduce__`` ships schema + raw tuples only; indexes
    are derived caches that rebuild lazily on the other side."""
    relation = Relation(paper_master.schema, paper_master.tuples())
    index = relation.index_on(("zip",))
    assert len(index) == len(relation)
    clone = pickle.loads(pickle.dumps(relation))
    assert clone._indexes == {}  # nothing shipped
    assert clone.tuples() == relation.tuples()
    assert clone.schema.names == relation.schema.names
    # lazy rebuild yields the same lookups as the original
    key = (paper_master.tuples()[0][relation.schema.position("zip")],)
    assert [r.values for r in clone.lookup(("zip",), key)] == [
        r.values for r in relation.lookup(("zip",), key)
    ]


def test_relation_pickle_roundtrip_preserves_mutability(paper_master):
    clone = pickle.loads(pickle.dumps(paper_master))
    pos = clone.append(clone.tuples()[0])
    assert pos == len(paper_master)  # the original is untouched
    clone.update_cell(0, clone.schema.names[0], "patched")
    assert clone.tuples()[0][0] == "patched"


# ---------------------------------------------------------------------------
# Rule-only (no-truth) mode and report accounting
# ---------------------------------------------------------------------------


def test_rule_only_mode_repairs_from_trusted_columns():
    master = uk.paper_master()
    dirty = Relation(
        uk.INPUT_SCHEMA,
        [
            {**uk.fig3_tuple(), "zip": "DH1 3LE"},  # trusted zip, dirty street/city
        ],
    )
    engine = CerFix(uk.paper_ruleset(), master)
    result = engine.clean_relation(dirty, validated=("zip",))
    fixed = result.relation.row(0).to_dict()
    assert fixed["str"] == "20 Baker St"  # phi2 from the validated zip
    assert fixed["city"] == "Dur"  # phi3
    assert fixed["FN"] == "M."  # untouched: no rule reaches it without truth
    assert result.report.rule_cells >= 2
    assert result.report.completed == 0  # not a certain fix — that's the point


def test_rule_only_mode_unknown_validated_attr_rejected(uk_batch):
    master, wl = uk_batch
    engine = CerFix(uk.paper_ruleset(), master)
    with pytest.raises(CerFixError):
        engine.clean_relation(wl.dirty, validated=("nope",))


def test_report_shape_and_json(uk_batch):
    master, wl = uk_batch
    result = _clean(master, wl, uk.paper_ruleset(), workers=2, shards=4)
    report = result.report
    assert report.tuples == len(wl.dirty)
    assert report.groups + report.duplicates_collapsed == report.tuples
    assert len(report.shards) == report.executed_shards == 4
    assert sum(s.tuples for s in report.shards) == report.tuples
    assert 0.0 < report.auto_share < 1.0
    assert report.user_share + report.auto_share == pytest.approx(1.0)
    payload = report.to_json()
    assert payload["tuples"] == report.tuples
    assert payload["cache"]["hits"] == report.cache.hits
    assert len(payload["shards"]) == 4
    assert "throughput" in payload
    text = report.describe()
    assert "duplicates collapsed" in text
    assert "cache:" not in text  # an in-process store's probes skip the cache


def test_schema_mismatch_rejected(uk_batch):
    master, _ = uk_batch
    engine = CerFix(uk.paper_ruleset(), master)
    wrong = Relation(uk.MASTER_SCHEMA, master.tuples())
    with pytest.raises(CerFixError):
        engine.clean_relation(wrong)


# ---------------------------------------------------------------------------
# Projection dedup: rule-relevant signatures (ISSUE 4 satellite)
# ---------------------------------------------------------------------------


def test_transcript_projection_covers_rule_and_region_attrs():
    from repro.batch.planner import transcript_projection
    from repro.core.region import RankedRegion, Region
    from repro.core.certainty import CertaintyMode

    ruleset = hospital.hospital_ruleset()
    projection = transcript_projection(ruleset)
    for rule in ruleset:
        assert set(rule.reads) <= projection
        assert rule.target in projection
    # the hospital payload columns are exactly what no rule mentions
    assert set(hospital.INPUT_SCHEMA.names) - projection == {"score", "sample"}
    region = RankedRegion(Region(("score", "zip")), CertaintyMode.ANCHORED, coverage=1.0)
    assert "score" in transcript_projection(ruleset, regions=(region,))
    # A semantic suggestion under SCENARIO mode filters the scenario by
    # every validated value, payload columns included.
    assert transcript_projection(
        ruleset, mode=CertaintyMode.SCENARIO, strategy=SuggestionStrategy.SEMANTIC
    ) == frozenset(hospital.INPUT_SCHEMA.names)
    assert transcript_projection(
        ruleset, mode=CertaintyMode.ANCHORED, strategy=SuggestionStrategy.SEMANTIC
    ) == projection
    # uk: only 'item' (a mandatory payload column — user-validated, never
    # read or written by a rule) falls outside the projection
    uk_proj = transcript_projection(uk.paper_ruleset())
    assert set(uk.INPUT_SCHEMA.names) - uk_proj == {"item"}


def _payload_duplicated_workload(hospital_batch):
    """Every row duplicated with only the payload columns corrupted —
    collapsible under projection, never under whole-row signatures."""
    master, wl = hospital_batch
    dirty_rows, truth_rows = [], []
    for i, (d, t) in enumerate(zip(wl.dirty.rows(), wl.clean.rows())):
        dirty_rows.append(d.to_dict())
        truth_rows.append(t.to_dict())
        dup = d.to_dict()
        dup["score"] = f"garbled-{i}"
        dup["sample"] = "???"
        dirty_rows.append(dup)
        truth_rows.append(t.to_dict())
    return (
        master,
        Relation(hospital.INPUT_SCHEMA, dirty_rows),
        Relation(hospital.INPUT_SCHEMA, truth_rows),
    )


def test_projected_dedup_strictly_beats_whole_row_on_hospital(hospital_batch):
    from repro.batch.planner import transcript_projection

    _, dirty, truth = _payload_duplicated_workload(hospital_batch)
    projection = transcript_projection(hospital.hospital_ruleset())
    whole = build_plan(dirty, truth)
    projected = build_plan(dirty, truth, projection=projection)
    assert projected.n_groups < whole.n_groups  # strictly more dedup
    assert projected.n_groups <= len(dirty) // 2
    assert projected.fingerprint != whole.fingerprint  # journals cannot mix
    # every row still belongs to exactly one group
    members = sorted(m for g in projected.groups for m in g.members)
    assert members == list(range(len(dirty)))


def test_projected_dedup_output_is_bit_identical_to_no_dedupe(hospital_batch):
    master, dirty, truth = _payload_duplicated_workload(hospital_batch)
    ruleset = hospital.hospital_ruleset()

    plain_engine = CerFix(ruleset, master)
    plain = plain_engine.clean_relation(dirty, truth, dedupe=False)
    deduped_engine = CerFix(ruleset, master)
    deduped = deduped_engine.clean_relation(dirty, truth, dedupe=True)

    # the dedup actually collapsed payload-only duplicates...
    assert deduped.report.groups <= len(dirty) // 2
    # ...yet rows, per-tuple audit trails (member-specific old values
    # included) and the changed-cell accounting are identical
    assert deduped.relation.tuples() == plain.relation.tuples()

    def per_tuple(audit):
        out = {}
        for e in audit:
            j = e.to_json()
            j.pop("seq")
            out.setdefault(j["tuple_id"], []).append(j)
        return out

    assert per_tuple(deduped_engine.audit) == per_tuple(plain_engine.audit)
    assert deduped.report.changed_cells == plain.report.changed_cells
    assert deduped.report.completed == plain.report.completed
    assert deduped.report.user_cells == plain.report.user_cells


def test_projected_dedup_rule_only_keeps_member_payload(hospital_batch):
    """Without ground truth, an untouched payload cell keeps *its own*
    dirty value — not the group representative's."""
    master, dirty, _ = _payload_duplicated_workload(hospital_batch)
    ruleset = hospital.hospital_ruleset()
    engine = CerFix(ruleset, master)
    result = engine.clean_relation(dirty, None, validated=("provider_id",), dedupe=True)
    assert result.report.groups < len(dirty)
    names = hospital.INPUT_SCHEMA.names
    score_at = names.index("score")
    sample_at = names.index("sample")
    for i, row in enumerate(result.relation.tuples()):
        assert row[score_at] == dirty.raw_tuples()[i][score_at]
        assert row[sample_at] == dirty.raw_tuples()[i][sample_at]


# ---------------------------------------------------------------------------
# Cross-run probe-cache persistence
# ---------------------------------------------------------------------------


def test_probe_cache_persists_across_runs(uk_batch, uk_cluster, tmp_path):
    _, wl = uk_batch
    path = tmp_path / "probes.cache"
    r1 = _remote_clean(uk_cluster, wl, cache_path=path)
    assert r1.report.persistence.startswith("cold start")
    assert "; saved" in r1.report.persistence
    assert path.exists()
    r2 = _remote_clean(uk_cluster, wl, cache_path=path)
    assert r2.report.persistence.startswith("warm start")
    # every probe the first run paid for is answered from the snapshot
    assert r2.report.cache.misses == 0
    assert r2.report.cache.hits > 0
    assert r2.relation.tuples() == r1.relation.tuples()


def test_probe_cache_snapshot_rejected_when_master_changes(uk_batch, uk_cluster, tmp_path):
    _, wl = uk_batch
    path = tmp_path / "probes.cache"
    _remote_clean(uk_cluster, wl, cache_path=path)
    other_master = uk.generate_master(20, seed=99)
    with _serve(other_master, tmp_path, "other") as other:
        result = _remote_clean(other, wl, cache_path=path)
        assert "master data changed" in result.report.persistence
        # ...and the stale snapshot is replaced by one stamped for the new master
        r2 = _remote_clean(other, wl, cache_path=path)
    assert r2.report.persistence.startswith("warm start")


def test_probe_cache_corrupt_snapshot_degrades_to_cold_start(uk_batch, uk_cluster, tmp_path):
    _, wl = uk_batch
    path = tmp_path / "probes.cache"
    path.write_bytes(b"not a pickle")
    result = _remote_clean(uk_cluster, wl, cache_path=path)
    assert "cold start" in result.report.persistence
    assert result.report.tuples == len(wl.dirty)


def test_probe_cache_persistence_skipped_on_process_backend(uk_batch, uk_cluster, tmp_path):
    _, wl = uk_batch
    path = tmp_path / "probes.cache"
    result = _remote_clean(uk_cluster, wl, cache_path=path, workers=2)
    assert result.report.persistence.startswith("skipped")
    assert not path.exists()


def test_probe_cache_persistence_skipped_on_in_process_store(uk_batch, tmp_path):
    """An in-process store has no probe cache, so there is no snapshot."""
    master, wl = uk_batch
    path = tmp_path / "probes.cache"
    result = _clean(master, wl, uk.paper_ruleset(), cache_path=path)
    assert result.report.persistence.startswith("skipped (in-process store")
    assert not path.exists()
    assert result.report.cache.probes == 0


def test_probe_cache_preload_respects_maxsize():
    from repro.master.manager import MasterMatch

    cache = LRUMemo(maxsize=2)
    entries = [((f"r{i}", (i,)), MasterMatch((), ())) for i in range(5)]
    assert cache.preload(entries) == 2
    assert cache.evictions == 0  # preload overflow is not a runtime eviction
    assert cache.get(("r4", (4,))) is not None
    assert cache.get(("r0", (0,))) is None


# ---------------------------------------------------------------------------
# Report: a tuple with conflicts is not a certain fix
# ---------------------------------------------------------------------------


def test_completed_counts_only_conflict_free_tuples():
    from repro.core.chase import chase
    from repro.master.conformance import generate_case

    case = generate_case(4, scenario="uk", with_truth=False, rate=0.4)
    names = case.ruleset.input_schema.names
    engine = CerFix(case.ruleset, case.master)
    report = engine.clean_relation(case.dirty, validated=names).report
    certain = sum(
        chase(row.to_dict(), names, case.ruleset, engine.master).is_complete
        for row in case.dirty.rows()
    )
    assert report.conflicts == 78
    assert report.completed == certain < report.tuples == 40
    assert report.incomplete == 40 - certain


def test_stream_completed_counts_only_conflict_free_tuples():
    from repro.monitor.stream import StreamReport, TupleOutcome

    report = StreamReport([
        TupleOutcome("a", True, 1, 2, 7, 3, 0),
        TupleOutcome("b", True, 1, 2, 7, 3, 2),
        TupleOutcome("c", False, 2, 3, 1, 1, 0),
    ])
    assert report.completed == 1
