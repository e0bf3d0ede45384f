"""DB-native dirty-relation cleaning: pages, archive, dry-run, undo, resume."""

from __future__ import annotations

import gc
import os
import shutil
import sqlite3
import threading
import tracemalloc

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
from repro.batch.journal import CheckpointJournal
from repro.dirty.archive import CHECKPOINTS_TABLE
from repro.dirty.backend import SqliteBackend
from repro.dirty.cleaner import DbCleaner
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


def _archive_rows(path, run_id):
    """A run's archive rows, as ``(seq, row_key, column, old, new,
    rule_id, source)``."""
    t = DirtyTable(path)
    conn = t.backend.connect(readonly=True)
    try:
        changes = ChangeArchive(t).changes(conn, run_id)
    finally:
        conn.close()
    return [
        (c.seq, c.row_key, c.column, c.old, c.new, c.rule_id, c.source)
        for c in changes
    ]


def _outcome(path, run_id):
    """What a finished run leaves: the table, its archive rows and the
    run record's ``(pages_done, changed_cells, status)``."""
    (record,) = [r for r in list_runs(DirtyTable(path)) if r.run_id == run_id]
    return (
        _table_rows(path),
        _archive_rows(path, run_id),
        (record.pages_done, record.changed_cells, record.status),
    )


def _tables(path):
    conn = sqlite3.connect(path)
    try:
        return {r[0] for r in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        conn.close()


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

    # sqlite would store True as 1 and NaN as NULL.
    for value in (True, float("nan")):
        rel = Relation(Schema("t", ["a"]), [(value,)])
        with pytest.raises(DirtyDataError, match="round-trip"):
            DirtyTable.create(tmp_path / "x.db", rel)


def test_cell_writes_reject_nan_before_writing(case, db):
    t = DirtyTable(db)
    column = case.dirty.schema.names[0]
    conn = t.backend.connect()
    try:
        with pytest.raises(DirtyDataError, match="round-trip"):
            t.apply_cell_writes(conn, [(1, column, "x"), (2, column, float("nan"))])
    finally:
        conn.close()
    assert _table_rows(db) == case.dirty.raw_tuples()


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
        # Forked while the run pauses the collector: a worker re-enables it.
        collecting.append(pools[-1].submit(gc.isenabled))
        return pools[-1]

    collecting = []
    monkeypatch.setattr(pipeline_mod, "worker_pool", counting_pool)
    expected = _engine(case).clean_relation(case.dirty, validated=case.validated)
    result = _engine(case).clean_table(db, page_rows=16, validated=case.validated, workers=2)
    assert result.pages == 4
    assert _table_rows(db) == expected.relation.raw_tuples()
    assert len(pools) == 1
    assert collecting[0].result() is True
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
    """Archive rows name the table's row keys, and each names the cell
    its fix landed in. A DB run's provenance is its archive alone."""
    engine = _engine(case)
    result = engine.clean_table(db, page_rows=16, validated=case.validated)
    assert len(engine.audit) == 0
    conn = sqlite3.connect(db)
    try:
        cells = {
            (row[0], name): value
            for row in conn.execute("SELECT rowid, * FROM dirty")
            for name, value in zip(case.dirty.schema.names, row[1:])
        }
    finally:
        conn.close()
    rows = _archive_rows(db, result.run_id)
    assert len(rows) == result.changed_cells > 0
    for _, row_key, column, _, new, _, _ in rows:
        assert cells[(row_key, column)] == new


def test_db_cleaner_refuses_an_audit_log(case, db):
    from repro.audit.log import AuditLog
    from repro.batch.pipeline import BatchCleaner
    from repro.dirty import DbCleaner

    batch = BatchCleaner(case.ruleset, case.master, audit=AuditLog())
    with pytest.raises(DirtyDataError, match="archive"):
        DbCleaner(batch, DirtyTable(db))


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
    """Later runs reuse whatever pages earlier ones freed. The file still
    grows by the archive rows each run keeps (undo marks a run undone, it
    does not erase its record), so what must not grow is the free-page
    count."""
    engine = _engine(case)
    free = []
    for _ in range(3):
        run = engine.clean_table(db, page_rows=30, validated=case.validated)
        engine.undo(db, run.run_id)
        conn = sqlite3.connect(db)
        try:
            free.append(conn.execute("PRAGMA freelist_count").fetchone()[0])
        finally:
            conn.close()
    # Free pages do not accumulate: the file grew by no more than the
    # in-use pages the two later archives added.
    assert free[2] <= free[0]
    assert _table_rows(db) == case.dirty.raw_tuples()


# -- crash and resume by page -----------------------------------------------
# A crash at any point leaves whole pages committed or none of a page. A
# resumed run re-runs the page that was in flight from scratch and must
# end exactly as an uninterrupted run: table, archive rows and run record.


def _uninterrupted(case, tmp_path, **kwargs):
    path = tmp_path / "uninterrupted.db"
    DirtyTable.create(path, case.dirty)
    result = _engine(case).clean_table(path, validated=case.validated, **kwargs)
    return _outcome(path, result.run_id)


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


def _crash_in_shard(monkeypatch, n_shards):
    """Crash the shard run after ``n_shards`` shards have finished."""
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= n_shards:
            raise RuntimeError("simulated mid-page crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    return real


def _resume_counting_shards(case, db, run_id, monkeypatch, **kwargs):
    """Resume ``run_id`` with the real shard run; returns the result and
    how many shards ran. The resume opens no checkpoint journal."""
    real = executor_mod._run_shard
    executed = {"shards": 0}

    def counting(shard, ctx, base, cache, *memos):
        executed["shards"] += 1
        return real(shard, ctx, base, cache, *memos)

    def no_journal(self, fingerprint):
        raise AssertionError("a paged clean opened a checkpoint journal")

    monkeypatch.setattr(executor_mod, "_run_shard", counting)
    monkeypatch.setattr(CheckpointJournal, "open", no_journal)
    result = _engine(case).clean_table(
        db, validated=case.validated, resume=run_id, **kwargs
    )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    return result, executed["shards"]


def test_interrupted_run_resumes_between_pages(case, db, tmp_path, monkeypatch):
    expected = _uninterrupted(case, tmp_path, page_rows=16)
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
    assert _outcome(db, run.run_id) == expected
    assert result.changed_cells == expected[2][1]


def test_mid_page_crash_reruns_its_page(case, db, tmp_path, monkeypatch):
    """A crash in a shard of page 1 loses that page's finished shards:
    the resumed run re-runs page 1 whole, and nothing of page 0."""
    expected = _uninterrupted(case, tmp_path, page_rows=30, shards=4)
    real = _crash_in_shard(monkeypatch, 6)  # page 0's four, two of page 1's
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    assert gc.isenabled()  # the crash ended the run's collector pause
    monkeypatch.setattr(executor_mod, "_run_shard", real)

    (run,) = list_runs(DirtyTable(db))
    assert (run.status, run.pages_done) == ("running", 1)
    result, shards = _resume_counting_shards(
        case, db, run.run_id, monkeypatch, page_rows=30, shards=4
    )
    assert (result.resumed_pages, shards) == (1, 4)
    assert _outcome(db, run.run_id) == expected
    assert gc.isenabled()


def test_page_commit_rollback_reruns_its_page(case, db, tmp_path, monkeypatch):
    """A crash after the page's archive rows are written but before its
    commit rolls the whole page back; the resumed run re-runs it."""
    expected = _uninterrupted(case, tmp_path, page_rows=30, shards=4)
    real_record = ChangeArchive.record_page

    def failing(self, *args, **kwargs):
        real_record(self, *args, **kwargs)
        raise RuntimeError("simulated crash inside the page transaction")

    monkeypatch.setattr(ChangeArchive, "record_page", failing)
    with pytest.raises(RuntimeError, match="inside the page transaction"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    monkeypatch.setattr(ChangeArchive, "record_page", real_record)

    (run,) = list_runs(DirtyTable(db))
    assert (run.pages_done, run.changed_cells) == (0, 0)
    assert _table_rows(db) == case.dirty.raw_tuples()  # cell writes rolled back
    assert _archive_rows(db, run.run_id) == []
    result, shards = _resume_counting_shards(
        case, db, run.run_id, monkeypatch, page_rows=30, shards=4
    )
    # Page 0 re-runs its 4 shards, page 1 runs its 4 for the first time.
    assert (result.resumed_pages, shards) == (0, 8)
    assert _outcome(db, run.run_id) == expected


def test_crashed_run_without_checkpoints_reruns_its_page(case, db, tmp_path, monkeypatch):
    """A crashed run re-runs its in-flight page without checkpoints,
    also where an older version left shard checkpoint rows for it: they
    are never read, and the resumed run drops their table."""
    expected = _uninterrupted(case, tmp_path, page_rows=30, shards=4)
    real = _crash_in_shard(monkeypatch, 6)
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    (run,) = list_runs(DirtyTable(db))
    conn = sqlite3.connect(db)
    conn.execute(
        f"CREATE TABLE {CHECKPOINTS_TABLE} (run_id TEXT NOT NULL, "
        "page INTEGER NOT NULL, line_no INTEGER NOT NULL, line TEXT NOT NULL, "
        "PRIMARY KEY (run_id, page, line_no))"
    )
    conn.executemany(
        f"INSERT INTO {CHECKPOINTS_TABLE} VALUES (?, 1, ?, ?)",
        [(run.run_id, 0, '{"kind": "header", "fingerprint": "x"}'),
         (run.run_id, 1, "not a journal line")],
    )
    conn.commit()
    conn.close()

    result, shards = _resume_counting_shards(
        case, db, run.run_id, monkeypatch, page_rows=30, shards=4
    )
    assert (result.resumed_pages, shards) == (1, 4)
    assert _outcome(db, run.run_id) == expected
    assert CHECKPOINTS_TABLE not in _tables(db)


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


def test_undo_of_mid_page_crash_restores_the_table(case, db, tmp_path, monkeypatch):
    """Undo of a run that crashed inside page 1 unwinds page 0 only; a
    fresh run afterwards ends as an uninterrupted one."""
    expected = _uninterrupted(case, tmp_path, page_rows=30, shards=4)
    real = _crash_in_shard(monkeypatch, 5)  # page 0's four, one of page 1's
    with pytest.raises(RuntimeError, match="simulated mid-page crash"):
        _engine(case).clean_table(
            db, page_rows=30, validated=case.validated, shards=4
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    (run,) = list_runs(DirtyTable(db))
    assert run.pages_done == 1
    page_0 = _archive_rows(db, run.run_id)
    assert page_0 == expected[1][: len(page_0)] and page_0

    undo_run(DirtyTable(db), run.run_id)
    assert _table_rows(db) == case.dirty.raw_tuples()
    result = _engine(case).clean_table(
        db, page_rows=30, validated=case.validated, shards=4
    )
    assert _outcome(db, result.run_id) == expected


def test_journals_removed_after_successful_run(case, db):
    """A committing run writes only the table and the two archive
    tables, and drops a checkpoints table an older version left."""
    conn = sqlite3.connect(db)
    conn.execute(f"CREATE TABLE {CHECKPOINTS_TABLE} (line TEXT)")
    conn.commit()
    conn.close()
    result = _engine(case).clean_table(db, page_rows=16, validated=case.validated)
    assert result.run_id and result.pages >= 2
    assert _tables(db) == {"dirty", "cerfix_clean_runs", "cerfix_clean_changes"}
    assert sorted(p.name for p in db.parent.iterdir()) == ["dirty.db", "dirty.db-journal"]


# -- bounded memory ----------------------------------------------------------


def test_paged_clean_memory_does_not_grow_with_the_table(tmp_path):
    """At a fixed page size, the traced peak of a rule-only clean over 4×
    the rows stays within 1.2× of the peak over 1×. Both tables are at
    least one digest scan batch long, so that fixed cost is in both."""
    master = uk.generate_master(40, seed=8)
    peaks = []
    for rows in (2048, 4 * 2048):
        wl = uk.generate_workload(master, rows, rate=0.3, seed=8)
        path = tmp_path / f"rows{rows}.db"
        DirtyTable.create(path, wl.dirty)
        engine = CerFix(uk.paper_ruleset(), master)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = engine.clean_table(path, page_rows=512, validated=("zip",))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert result.pages == rows // 512 and result.changed_cells > 0
    assert peaks[1] <= 1.2 * peaks[0], peaks


# -- the collector pause -----------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("page_rows", [1, 64, 4096])
def test_db_runs_leave_no_cyclic_garbage(case, db, page_rows, workers):
    """The premise of the pause: a dry run, a clean and an undo leave
    nothing for the cyclic collector, neither to the young-generation
    passes at page boundaries nor to a full collection afterwards."""
    found = []

    def count(phase, info):
        if phase == "stop":
            found.append(info["collected"])

    engine = _engine(case)
    runs = []
    calls = (
        lambda: engine.clean_table(
            db, page_rows=page_rows, validated=case.validated, workers=workers, dry_run=True
        ),
        lambda: runs.append(
            engine.clean_table(db, page_rows=page_rows, validated=case.validated, workers=workers)
        ),
        lambda: engine.undo(db, runs[0].run_id),
    )
    gc.callbacks.append(count)
    try:
        for call in calls:
            gc.collect()
            found.clear()
            call()
            assert gc.isenabled()
            assert gc.collect() == 0
            assert sum(found) == 0, found
    finally:
        gc.callbacks.remove(count)
    assert _table_rows(db) == case.dirty.raw_tuples()


def test_runs_keep_a_callers_disabled_collector(case, db):
    engine = _engine(case)
    gc.disable()
    try:
        engine.clean_table(db, page_rows=16, validated=case.validated, dry_run=True)
        assert not gc.isenabled()
        run = engine.clean_table(db, page_rows=16, validated=case.validated)
        assert not gc.isenabled()
        engine.undo(db, run.run_id)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_overlapping_runs_reenable_the_collector_once_both_end(case, tmp_path, monkeypatch):
    """Run A pauses the collector and blocks in its first page; run B,
    in another thread, starts and ends inside A. The collector stays
    paused until A, the run that found it enabled, ends."""
    paths = {}
    for name in ("a", "b"):
        paths[name] = tmp_path / f"{name}.db"
        DirtyTable.create(paths[name], case.dirty)
    a_inside, release_a = threading.Event(), threading.Event()
    real = DbCleaner._clean_page
    paused = []

    def clean_page(self, page, **kwargs):
        paused.append(not gc.isenabled())
        if not a_inside.is_set():  # run A's first page
            a_inside.set()
            assert release_a.wait(timeout=60)
        return real(self, page, **kwargs)

    monkeypatch.setattr(DbCleaner, "_clean_page", clean_page)
    errors = []

    def run(name):
        try:
            _engine(case).clean_table(paths[name], page_rows=16, validated=case.validated)
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    a = threading.Thread(target=run, args=("a",))
    a.start()
    try:
        assert a_inside.wait(timeout=60)
        b = threading.Thread(target=run, args=("b",))
        b.start()
        b.join(timeout=60)
        assert not b.is_alive()
        assert not gc.isenabled()  # B ended; A still holds the pause
    finally:
        release_a.set()
        a.join(timeout=60)
    assert not a.is_alive() and not errors, errors
    assert gc.isenabled()
    assert all(paused) and len(paused) == 8
    assert _table_rows(paths["a"]) == _table_rows(paths["b"])


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


def _cli_db_clean(case, db, tmp_path):
    from repro.relational.csvio import write_csv

    master_csv = tmp_path / "master.csv"
    write_csv(case.master, master_csv)
    return [
        "clean",
        "--scenario", "uk",
        "--master", str(master_csv),
        "--mode", "anchored",
        "--db", str(db),
        "--page-rows", "16",
        "--validated", ",".join(case.validated),
    ]


def test_cli_db_clean_refuses_journal(case, db, tmp_path, capsys):
    from repro.explorer.cli import main

    args = _cli_db_clean(case, db, tmp_path)
    assert main(args + ["--journal", str(tmp_path / "j.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "--journal applies to --input" in err
    assert "resumes by page" in err and "--resume" in err
    assert not (tmp_path / "j.jsonl").exists()
    assert list_runs(DirtyTable(db)) == []


def test_cli_db_clean_refuses_log(case, db, tmp_path, capsys):
    from repro.explorer.cli import main

    args = _cli_db_clean(case, db, tmp_path)
    assert main(args + ["--log", str(tmp_path / "audit.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "--log applies to --input" in err
    assert "cerfix_clean_changes" in err
    assert not (tmp_path / "audit.jsonl").exists()
    assert list_runs(DirtyTable(db)) == []


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
