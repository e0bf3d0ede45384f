"""DB-native dirty-relation cleaning: pages, archive, dry-run, undo, resume."""

from __future__ import annotations

import json
import os
import shutil
import sqlite3

import pytest

from repro import CerFix
from repro.dirty import (
    ChangeArchive,
    DirtyTable,
    list_runs,
    resolve_page_rows,
    undo_run,
)
import repro.batch.executor as executor_mod
import repro.batch.pipeline as pipeline_mod
import repro.dirty.table as table_mod
from repro.dirty.archive import CHECKPOINTS_TABLE
from repro.dirty.backend import SqliteBackend
from repro.errors import DirtyDataError
from repro.master.conformance import generate_case
from repro.scenarios import uk_customers as uk


@pytest.fixture(scope="module")
def case():
    # Rule-only repair case with a non-trivial number of certain fixes.
    return generate_case(3, scenario="uk", n=60, rate=0.35, with_truth=False)


@pytest.fixture()
def db(case, tmp_path):
    path = tmp_path / "dirty.db"
    DirtyTable.create(path, case.dirty)
    return path


def _engine(case):
    return CerFix(case.ruleset, case.master)


def _table_rows(path, table="dirty"):
    t = DirtyTable(path, table)
    conn = t.backend.connect(readonly=True)
    try:
        return t.read_relation(conn).raw_tuples()
    finally:
        conn.close()


def _digest(path, table="dirty"):
    t = DirtyTable(path, table)
    conn = t.backend.connect(readonly=True)
    try:
        return t.digest(conn)
    finally:
        conn.close()


def _checkpoint_rows(path, run_id):
    """``(page, parsed line)`` of a run's rows in the checkpoints table."""
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute(
            f"SELECT page, line FROM {CHECKPOINTS_TABLE} WHERE run_id = ? "
            f"ORDER BY page, line_no",
            (run_id,),
        ).fetchall()
    finally:
        conn.close()
    return [(page, json.loads(line)) for page, line in rows]


# -- the table itself --------------------------------------------------------


def test_create_and_read_roundtrip(case, db):
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_pages_stream_fixed_size_in_key_order(case, db):
    t = DirtyTable(db)
    conn = t.backend.connect(readonly=True)
    try:
        pages = list(t.pages(conn, 16))
        assert [p.index for p in pages] == [0, 1, 2, 3]
        assert [len(p) for p in pages] == [16, 16, 16, 12]
        keys = [k for p in pages for k in p.keys]
        assert keys == sorted(keys)
        rows = [r for p in pages for r in p.relation.raw_tuples()]
        assert rows == case.dirty.raw_tuples()
        # skip_pages seeks straight to the boundary
        tail = list(t.pages(conn, 16, skip_pages=3))
        assert [p.index for p in tail] == [3]
        assert tail[0].relation.raw_tuples() == pages[3].relation.raw_tuples()
    finally:
        conn.close()


def test_digest_tracks_content_and_row_binding(case, db, tmp_path):
    before = _digest(db)
    assert before == _digest(db)  # deterministic
    conn = sqlite3.connect(db)
    conn.execute("UPDATE dirty SET zip = 'XX9 9XX' WHERE rowid = 1")
    conn.commit()
    conn.close()
    assert _digest(db) != before


def test_digest_matches_reference_hex(case, db, tmp_path, monkeypatch):
    """The digest anchors undo of runs already on record, so its value
    is pinned: these hexes are what the Relation-building digest gave
    (one scan page, then 7-row scan pages across the boundaries)."""
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema

    fixture_hex = "8b2f52b6e3f26600e6dbd410fe616c4780d1d2df8abc892cd385379b5c0c6aaa"
    assert _digest(db) == fixture_hex
    mixed = Relation(Schema("mixed", ["a", "b", "c"]), [
        ("x", 1, 2.5), (None, -3, 0.1), ("quote's \"é\"", 10**12, None),
        ("", 0, 1e-300),
    ])
    DirtyTable.create(tmp_path / "mixed.db", mixed, table="mixed")
    mixed_hex = "0607504bfe2ed4f52e6d3b0382cbcd71bfad215025a7abbc3aec70677dab21bc"
    assert _digest(tmp_path / "mixed.db", "mixed") == mixed_hex
    monkeypatch.setattr(table_mod, "_SCAN_ROWS", 7)
    assert _digest(db) == fixture_hex
    assert _digest(tmp_path / "mixed.db", "mixed") == mixed_hex


def test_rejects_lossy_cell_values(tmp_path):
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema

    rel = Relation(Schema("t", ["a"]), [(True,)])
    with pytest.raises(DirtyDataError, match="round-trip"):
        DirtyTable.create(tmp_path / "x.db", rel)


def test_page_rows_resolution(monkeypatch):
    monkeypatch.delenv("CERFIX_PAGE_ROWS", raising=False)
    assert resolve_page_rows(None) == 4096
    assert resolve_page_rows(7) == 7
    monkeypatch.setenv("CERFIX_PAGE_ROWS", "64")
    assert resolve_page_rows(None) == 64
    assert resolve_page_rows(7) == 7  # explicit argument wins
    monkeypatch.setenv("CERFIX_PAGE_ROWS", "zero")
    with pytest.raises(DirtyDataError):
        resolve_page_rows(None)
    with pytest.raises(DirtyDataError):
        resolve_page_rows(0)


# -- paged cleaning ----------------------------------------------------------


def test_paged_clean_bit_identical_to_memory(case, db):
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    result = _engine(case).clean_table(
        db, page_rows=16, validated=case.validated
    )
    assert result.pages == 4
    assert result.changed_cells == expected.report.changed_cells > 0
    assert _table_rows(db) == expected.relation.raw_tuples()


@pytest.mark.parametrize("seed", [1, 5, 11])
def test_conformance_parity_across_page_sizes(seed, tmp_path):
    case = generate_case(seed, scenario="uk", n=40, rate=0.3, with_truth=False)
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    for page_rows in (7, 64):
        path = tmp_path / f"d{page_rows}.db"
        DirtyTable.create(path, case.dirty)
        result = _engine(case).clean_table(
            path, page_rows=page_rows, validated=case.validated, workers=2
        )
        assert _table_rows(path) == expected.relation.raw_tuples()
        assert result.changed_cells == expected.report.changed_cells


def test_paged_process_clean_starts_one_pool_per_run(case, db, monkeypatch):
    pools = []

    def counting_pool(ctx, workers):
        pools.append(executor_mod.worker_pool(ctx, workers))
        return pools[-1]

    monkeypatch.setattr(pipeline_mod, "worker_pool", counting_pool)
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    result = _engine(case).clean_table(db, page_rows=16, validated=case.validated, workers=2)
    assert result.pages == 4
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert len(pools) == 1
    with pytest.raises(RuntimeError):  # shut down when the run ended
        pools[0].submit(int)


def test_larger_than_page_budget_cleans_end_to_end(tmp_path):
    # Many more rows than one page holds: the in-memory budget is the
    # page, and the table streams through it.
    master = uk.generate_master(40, seed=8)
    wl = uk.generate_workload(master, 300, rate=0.3, seed=8)
    path = tmp_path / "big.db"
    DirtyTable.create(path, wl.dirty)
    engine = CerFix(uk.paper_ruleset(), master)
    expected = CerFix(uk.paper_ruleset(), master).clean_relation(
        wl.dirty, validated=("zip",)
    )
    result = engine.clean_table(path, page_rows=32, validated=("zip",))
    assert result.pages == 10
    assert result.rows == 300
    assert _table_rows(path) == expected.relation.raw_tuples()


def test_env_page_size_drives_paging(case, db, monkeypatch):
    monkeypatch.setenv("CERFIX_PAGE_ROWS", "16")
    result = _engine(case).clean_table(db, validated=case.validated)
    assert result.page_rows == 16
    assert result.pages == 4


def test_audit_ids_follow_row_keys(case, db):
    engine = _engine(case)
    engine.clean_table(db, page_rows=16, validated=case.validated)
    tids = {e.tuple_id for e in engine.audit}
    assert tids and all(t.startswith("r") for t in tids)


def test_schema_mismatch_refused(case, tmp_path):
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema

    path = tmp_path / "odd.db"
    DirtyTable.create(path, Relation(Schema("t", ["a", "b"]), [("x", "y")]))
    with pytest.raises(DirtyDataError, match="input schema"):
        _engine(case).clean_table(path)


def test_missing_table_refused(case, tmp_path):
    path = tmp_path / "empty.db"
    sqlite3.connect(path).close()
    with pytest.raises(DirtyDataError, match="no table"):
        _engine(case).clean_table(path)


# -- archive + undo ----------------------------------------------------------


def test_archive_records_reversible_provenance(case, db):
    engine = _engine(case)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    t = DirtyTable(db)
    conn = t.backend.connect(readonly=True)
    try:
        changes = ChangeArchive(t).changes(conn, result.run_id)
    finally:
        conn.close()
    assert len(changes) == result.changed_cells
    assert [c.seq for c in changes] == list(range(len(changes)))
    by_key = {(c.row_key, c.column): c for c in changes}
    dirty_rows = {
        key: row
        for key, row in zip(range(1, len(case.dirty) + 1), case.dirty.raw_tuples())
    }
    names = case.dirty.schema.names
    for (row_key, column), c in by_key.items():
        assert c.old == dirty_rows[row_key][names.index(column)]
        assert c.old != c.new
        # The final event per cell is a rule fix or its normalization.
        assert c.source in ("rule", "normalize")
        if c.source == "rule":
            assert c.rule_id


def test_undo_restores_exact_pre_run_table(case, db):
    engine = _engine(case)
    pre_digest = _digest(db)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    assert _digest(db) != pre_digest
    record = engine.undo(db, result.run_id)
    assert record.status == "undone"
    assert _digest(db) == pre_digest
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_undo_is_noop_when_reapplied(case, db):
    engine = _engine(case)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    engine.undo(db, result.run_id)
    rows = _table_rows(db)
    again = engine.undo(db, result.run_id)
    assert again.status == "undone"
    assert _table_rows(db) == rows


def test_undo_refuses_after_external_mutation(case, db):
    engine = _engine(case)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    conn = sqlite3.connect(db)
    conn.execute("UPDATE dirty SET FN = 'Zed' WHERE rowid = 3")
    conn.commit()
    conn.close()
    mutated = _table_rows(db)
    with pytest.raises(DirtyDataError, match="modified after the run"):
        engine.undo(db, result.run_id)
    assert _table_rows(db) == mutated  # refusal left the table alone


def test_undo_unknown_run_refused(case, db):
    engine = _engine(case)
    engine.clean_table(db, page_rows=16, validated=case.validated)
    with pytest.raises(DirtyDataError, match="unknown run"):
        engine.undo(db, "run-nope")


def test_run_records_listable(case, db):
    engine = _engine(case)
    r1 = engine.clean_table(db, page_rows=16, validated=case.validated)
    runs = list_runs(DirtyTable(db))
    assert [r.run_id for r in runs] == [r1.run_id]
    assert runs[0].status == "committed"
    assert runs[0].pages_done == runs[0].pages_total == 4
    assert runs[0].changed_cells == r1.changed_cells


# -- dry run -----------------------------------------------------------------


def test_dry_run_commits_nothing(case, db):
    before = db.read_bytes()
    engine = _engine(case)
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    result = engine.clean_table(
        db, page_rows=16, validated=case.validated, dry_run=True
    )
    assert result.dry_run and result.run_id is None
    assert result.changed_cells == expected.report.changed_cells
    assert len(result.changes) == result.changed_cells
    assert db.read_bytes() == before  # bit-identical file
    assert list_runs(DirtyTable(db)) == []


def test_dry_run_rejects_resume(case, db):
    with pytest.raises(DirtyDataError, match="dry_run with resume"):
        _engine(case).clean_table(db, dry_run=True, resume="run-x")


def test_dry_run_over_persisted_journal_is_read_only(case, db):
    # Writable connections keep a zeroed rollback journal beside the file.
    assert (db.parent / "dirty.db-journal").exists()
    before = db.read_bytes()
    result = _engine(case).clean_table(
        db, page_rows=16, validated=case.validated, dry_run=True
    )
    assert result.changed_cells > 0
    assert db.read_bytes() == before
    conn = DirtyTable(db).backend.connect(readonly=True)
    try:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            conn.execute("UPDATE dirty SET zip = 'X'")
    finally:
        conn.close()
    assert db.read_bytes() == before


# -- commits that free no disk blocks ----------------------------------------


def test_writable_connections_persist_journal(case, db, monkeypatch):
    real = SqliteBackend.connect
    modes = []

    def recording(self, *, readonly=False):
        conn = real(self, readonly=readonly)
        modes.append((readonly, conn.execute("PRAGMA journal_mode").fetchone()[0]))
        return conn

    monkeypatch.setattr(SqliteBackend, "connect", recording)
    engine = _engine(case)
    DirtyTable.create(db, case.dirty)
    run = engine.clean_table(db, page_rows=16, validated=case.validated)
    engine.undo(db, run.run_id)
    list_runs(DirtyTable(db))
    writable = [mode for readonly, mode in modes if not readonly]
    assert len(writable) >= 3  # create, clean, undo
    assert set(writable) == {"persist"}
    assert (db.parent / "dirty.db-journal").exists()


def test_wal_database_stays_in_wal(case, db):
    conn = sqlite3.connect(db)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.close()
    conn = DirtyTable(db).backend.connect()
    try:
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
    finally:
        conn.close()


def test_committing_clean_frees_no_disk_blocks(case, db, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in ((os, "unlink"), (os, "rmdir"), (os, "replace"),
                        (shutil, "rmtree")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    result = _engine(case).clean_table(
        db, page_rows=16, validated=case.validated, shards=4
    )
    assert result.pages >= 2 and result.changed_cells > 0
    assert calls == []


def test_clean_undo_cycles_reuse_free_pages(case, db):
    """Deleted checkpoint rows become free pages that later pages and runs
    reuse. The file still grows by the archive rows each run keeps (undo
    marks a run undone, it does not erase its record), so what must not
    grow is the free-page count."""
    engine = _engine(case)
    free = []
    for _ in range(3):
        run = engine.clean_table(db, page_rows=30, validated=case.validated)
        engine.undo(db, run.run_id)
        assert _checkpoint_rows(db, run.run_id) == []
        conn = sqlite3.connect(db)
        try:
            free.append(conn.execute("PRAGMA freelist_count").fetchone()[0])
        finally:
            conn.close()
    assert free[0] > 0  # the checkpoints of the first run, freed
    # Free pages do not accumulate: the file grew by no more than the
    # in-use pages the two later archives added.
    assert free[2] <= free[0]
    assert _table_rows(db) == case.dirty.raw_tuples()


# -- crash, resume, checkpoints ----------------------------------------------


def _crash_after_pages(monkeypatch, n_pages):
    real = pipeline_mod.BatchCleaner.clean
    calls = {"n": 0}

    def crashing(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > n_pages:
            raise RuntimeError("simulated crash")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod.BatchCleaner, "clean", crashing)
    return real


def test_interrupted_run_resumes_between_pages(case, db, tmp_path, monkeypatch):
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    real = _crash_after_pages(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="simulated crash"):
        _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    monkeypatch.setattr(pipeline_mod.BatchCleaner, "clean", real)

    (run,) = list_runs(DirtyTable(db))
    assert run.status == "running"
    assert run.pages_done == 2

    result = _engine(case).clean_table(
        db, page_rows=16, validated=case.validated, resume=run.run_id
    )
    assert result.resumed_pages == 2
    assert result.run_id == run.run_id
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert result.changed_cells == expected.report.changed_cells
    (run,) = list_runs(DirtyTable(db))
    assert run.status == "committed"


def test_mid_page_resume_replays_journaled_shards(case, db, monkeypatch):
    """The in-flight page resumes from its shard checkpoint journal."""
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)

    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-page crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)

    (run,) = list_runs(DirtyTable(db))
    assert run.status == "running" and run.pages_done == 0
    # The crashed page left its header and two shard checkpoints behind.
    rows = _checkpoint_rows(db, run.run_id)
    assert [page for page, _ in rows] == [0, 0, 0]
    assert [line["kind"] for _, line in rows] == ["header", "shard", "shard"]
    assert not (db.parent / "dirty.db.clean-journal").exists()

    executed = {"shards": 0}

    def counting(shard, ctx, base, cache, *memos):
        executed["shards"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", counting)
    result = _engine(case).clean_table(
        db, page_rows=30, validated=case.validated, shards=4, resume=run.run_id
    )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    # Page 0 replays only its 2 unfinished shards; page 1 runs all 4.
    assert executed["shards"] == 6
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert result.changed_cells == expected.report.changed_cells


def test_page_commit_rollback_keeps_checkpoints(case, db, monkeypatch):
    """Checkpoints vanish with their page's commit, never before it."""
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    real_record = ChangeArchive.record_page

    def failing(self, *args, **kwargs):
        real_record(self, *args, **kwargs)  # drops the checkpoints, then...
        raise RuntimeError("simulated crash inside the page transaction")

    monkeypatch.setattr(ChangeArchive, "record_page", failing)
    with pytest.raises(RuntimeError, match="inside the page transaction"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    monkeypatch.setattr(ChangeArchive, "record_page", real_record)

    (run,) = list_runs(DirtyTable(db))
    assert run.pages_done == 0 and run.changed_cells == 0
    assert _table_rows(db) == case.dirty.raw_tuples()  # cell writes rolled back
    rows = _checkpoint_rows(db, run.run_id)
    assert [line["kind"] for _, line in rows] == ["header"] + ["shard"] * 4

    real = executor_mod._run_shard
    executed = {"shards": 0}

    def counting(shard, ctx, base, cache, *memos):
        executed["shards"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", counting)
    result = _engine(case).clean_table(
        db, page_rows=30, validated=case.validated, shards=4, resume=run.run_id
    )
    # Page 0 re-executes none of its 4 checkpointed shards; page 1 runs 4.
    assert executed["shards"] == 4
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert result.changed_cells == expected.report.changed_cells
    assert _checkpoint_rows(db, run.run_id) == []


def test_crashed_run_without_checkpoints_reruns_its_page(case, db, monkeypatch):
    """A crashed run from a version that journaled to files has no
    checkpoint rows: its in-flight page re-runs from scratch."""
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-page crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    (run,) = list_runs(DirtyTable(db))
    conn = sqlite3.connect(db)
    conn.execute(f"DROP TABLE {CHECKPOINTS_TABLE}")
    conn.commit()
    conn.close()

    executed = {"shards": 0}

    def counting(shard, ctx, base, cache, *memos):
        executed["shards"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", counting)
    result = _engine(case).clean_table(
        db, page_rows=30, validated=case.validated, shards=4, resume=run.run_id
    )
    assert executed["shards"] == 8
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert result.changed_cells == expected.report.changed_cells


def test_resume_validates_run_and_configuration(case, db, monkeypatch):
    real = _crash_after_pages(monkeypatch, 1)
    with pytest.raises(RuntimeError):
        _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    monkeypatch.setattr(pipeline_mod.BatchCleaner, "clean", real)
    (run,) = list_runs(DirtyTable(db))

    with pytest.raises(DirtyDataError, match="page_rows"):
        _engine(case).clean_table(
            db, page_rows=8, validated=case.validated, resume=run.run_id
        )
    with pytest.raises(DirtyDataError, match="configuration changed"):
        _engine(case).clean_table(db, page_rows=16, resume=run.run_id)

    result = _engine(case).clean_table(
        db, page_rows=16, validated=case.validated, resume=run.run_id
    )
    assert result.resumed_pages == 1
    with pytest.raises(DirtyDataError, match="not resumable"):
        _engine(case).clean_table(
            db, page_rows=16, validated=case.validated, resume=run.run_id
        )


def test_crashed_run_can_be_undone(case, db, monkeypatch):
    real = _crash_after_pages(monkeypatch, 2)
    with pytest.raises(RuntimeError):
        _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    monkeypatch.setattr(pipeline_mod.BatchCleaner, "clean", real)
    (run,) = list_runs(DirtyTable(db))
    record = undo_run(DirtyTable(db), run.run_id)
    assert record.status == "undone"
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_undo_of_crashed_run_drops_its_checkpoints(case, db, monkeypatch):
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 5:  # page 0's four shards, then one of page 1's
            raise RuntimeError("simulated mid-page crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    (run,) = list_runs(DirtyTable(db))
    assert run.pages_done == 1
    assert [page for page, _ in _checkpoint_rows(db, run.run_id)] == [1, 1]
    undo_run(DirtyTable(db), run.run_id)
    assert _checkpoint_rows(db, run.run_id) == []
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_journals_removed_after_successful_run(case, db):
    result = _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    assert result.run_id and result.pages >= 2
    assert _checkpoint_rows(db, result.run_id) == []
    assert not (db.parent / "dirty.db.clean-journal").exists()


# -- CLI ---------------------------------------------------------------------


def test_cli_clean_db_dry_run_and_undo(case, db, tmp_path, capsys):
    from repro.explorer.cli import main
    from repro.relational.csvio import write_csv

    master_csv = tmp_path / "master.csv"
    write_csv(case.master, master_csv)
    rules = tmp_path / "rules.txt"
    rules.write_text("\n".join(r.render() for r in case.ruleset) + "\n")
    base = [
        "clean",
        "--rules", str(rules),
        "--master", str(master_csv),
        "--input", str(tmp_path / "unused.csv"),
    ]
    # --input and --db are mutually exclusive
    assert main(base + ["--db", str(db)]) == 2
    capsys.readouterr()

    common = [
        "clean",
        "--scenario", "uk",
        "--master", str(master_csv),
        "--mode", "anchored",
        "--db", str(db),
        "--page-rows", "16",
        "--validated", ",".join(case.validated),
    ]
    assert main(common + ["--journal", str(tmp_path / "j.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "--journal applies to --input" in err
    assert "keeps its checkpoints in the database" in err
    assert not (tmp_path / "j.jsonl").exists()

    assert main(common + ["--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "dry run" in out and "nothing was committed" in out
    assert _table_rows(db) == case.dirty.raw_tuples()

    assert main(common) == 0
    out = capsys.readouterr().out
    assert "cells changed" in out and "cerfix undo" in out
    run_id = out.split("cerfix undo --db")[1].split("`")[0].split()[-1]

    assert main(["undo", "--db", str(db), "--list"]) == 0
    assert run_id in capsys.readouterr().out

    assert main(["undo", "--db", str(db), run_id]) == 0
    assert "digest-verified" in capsys.readouterr().out
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_instance_dirty_section_roundtrip(case, tmp_path):
    import json

    from repro.config import InstanceConfig
    from repro.errors import ValidationError

    doc = {
        "name": "x",
        "input_schema": {"name": "t", "attributes": [{"name": "a"}]},
        "master_schema": {"name": "m", "attributes": [{"name": "a"}]},
        "dirty": {"db": "dirty.db", "table": "rows", "page_rows": 64},
    }
    config = InstanceConfig.from_json(doc)
    assert config.dirty == {"db": "dirty.db", "table": "rows", "page_rows": 64}
    assert InstanceConfig.from_json(config.to_json()).dirty == config.dirty

    for bad in (
        {"db": ""},
        {"table": "t"},  # db missing
        {"db": "d", "page_rows": 0},
        {"db": "d", "nope": 1},
    ):
        doc["dirty"] = bad
        with pytest.raises(ValidationError):
            InstanceConfig.from_json(json.loads(json.dumps(doc)))


# -- telemetry ---------------------------------------------------------------


def test_spans_nest_clean_run_page_shard(case, db, tmp_path):
    import json

    from repro.obs import trace as tracing

    span_file = tmp_path / "spans.jsonl"
    tracing.configure(str(span_file), 1.0)
    try:
        _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    finally:
        tracing.disable()
    spans = [json.loads(line) for line in span_file.read_text().splitlines()]
    by_id = {s["span"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"clean-run", "page", "shard"} <= names
    roots = [s for s in spans if s["name"] == "clean-run"]
    assert len(roots) == 1
    pages = [s for s in spans if s["name"] == "page"]
    assert len(pages) == 4
    assert all(s["parent"] == roots[0]["span"] for s in pages)
    for s in spans:
        if s["name"] != "shard":
            continue
        parent = by_id[s["parent"]]
        while parent["name"] not in ("page", "clean-run"):
            parent = by_id[parent["parent"]]
        assert parent["name"] == "page"


def test_page_counters_accumulate(case, db):
    from repro.obs.metrics import get_registry

    reg = get_registry()
    before = {
        k: reg.dump()["counters"].get(k, 0)
        for k in ("cerfix.dbclean.runs", "cerfix.dbclean.pages", "cerfix.dbclean.undos")
    }
    engine = _engine(case)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    engine.undo(db, result.run_id)
    counters = reg.dump()["counters"]
    assert counters["cerfix.dbclean.runs"] == before["cerfix.dbclean.runs"] + 1
    assert counters["cerfix.dbclean.pages"] == before["cerfix.dbclean.pages"] + 4
    assert counters["cerfix.dbclean.undos"] == before["cerfix.dbclean.undos"] + 1
