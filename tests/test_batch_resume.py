"""Checkpoint journal: crash-safe resume of interrupted batch runs."""

from __future__ import annotations

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro import CerFix
from repro.batch import CheckpointJournal
import repro.batch.executor as executor_mod
from repro.dirty import DirtyTable
from repro.dirty.cleaner import list_runs
from repro.master.conformance import generate_case, normalize_report
from repro.scenarios import uk_customers as uk


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(20, seed=41)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=42)
    return master, wl


def _engine(master):
    return CerFix(uk.paper_ruleset(), master)


def test_resume_after_simulated_crash(workload, tmp_path, monkeypatch):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    expected = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4
    )

    # Crash the worker after two shards have been journaled.
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-run crash")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-run crash"):
        _engine(master).clean_relation(
            wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)

    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert lines[0]["kind"] == "header"
    assert sum(1 for l in lines if l["kind"] == "shard") == 2

    resumed = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.relation.tuples() == expected.relation.tuples()
    assert resumed.report.resumed_shards == 2
    assert resumed.report.executed_shards == 2
    # resumed shards keep their recorded accounting
    assert resumed.report.completed == expected.report.completed
    assert resumed.report.user_cells == expected.report.user_cells


def test_complete_journal_skips_all_work(workload, tmp_path, monkeypatch):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    first = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )

    def exploding(*args, **kwargs):
        raise AssertionError("no shard should execute on a complete journal")

    monkeypatch.setattr(executor_mod, "_run_shard", exploding)
    second = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert second.relation.tuples() == first.relation.tuples()
    assert second.report.resumed_shards == 4
    assert second.report.executed_shards == 0


def test_stale_journal_is_discarded(workload, tmp_path):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    # A different workload fingerprints differently: full rerun, no leakage.
    other = uk.generate_workload(master, 40, rate=0.25, seed=99)
    fresh = _engine(master).clean_relation(
        other.dirty, other.clean, workers=1, shards=4
    )
    resumed = _engine(master).clean_relation(
        other.dirty, other.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.relation.tuples() == fresh.relation.tuples()
    assert resumed.report.resumed_shards == 0


def test_journal_discarded_when_master_content_changes(workload, tmp_path):
    """Same master cardinality, different content -> different fingerprint.
    A checkpoint computed against old master data must never be resumed."""
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    altered = uk.generate_master(20, seed=77)  # same row count, other people
    assert len(altered) == len(master)
    resumed = CerFix(uk.paper_ruleset(), altered).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.report.resumed_shards == 0


def test_torn_tail_line_is_dropped(workload, tmp_path):
    master, wl = workload
    journal = tmp_path / "journal.jsonl"
    _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    text = journal.read_text()
    journal.write_text(text + '{"kind": "shard", "shard_id": 99, "trunc')  # torn write
    resumed = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )
    assert resumed.report.resumed_shards == 4


def test_journal_roundtrip_preserves_shard_results(workload, tmp_path):
    master, wl = workload
    journal_path = tmp_path / "journal.jsonl"
    result = _engine(master).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=2, journal_path=journal_path
    )
    # Re-derive the fingerprint the pipeline used and load what it wrote.
    lines = [json.loads(l) for l in journal_path.read_text().splitlines()]
    fingerprint = lines[0]["fingerprint"]
    done = CheckpointJournal(journal_path).load(fingerprint)
    assert sorted(done) == [0, 1]
    assert all(r.resumed for r in done.values())
    assert sum(r.tuples for r in done.values()) == result.report.tuples


def test_record_before_open_raises(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    from repro.batch.executor import ShardResult

    with pytest.raises(RuntimeError):
        journal.record(ShardResult(shard_id=0, outcomes=()))


# -- journals written by 1.14 --------------------------------------------------
# 1.15 keys batch groups on the values a repair validates, so plan
# fingerprints changed. ``tests/data`` holds checkpoints a 1.14 run left
# behind when it crashed: a ``clean_relation(journal_path=...)`` file
# after 2 of 4 shards, and a paged ``clean_table`` (30-row pages, 4
# shards) with page 0 committed and 2 shard checkpoints of page 1. A
# checkpoint is either resumed or discarded as stale; the output must
# match a fresh run either way.

DATA = Path(__file__).parent / "data"


def test_file_journal_from_1_14(tmp_path):
    case = generate_case(5, scenario="uk", n=40)
    journal = tmp_path / "clean.journal"
    shutil.copyfile(DATA / "clean-1.14.journal", journal)
    fresh = CerFix(case.ruleset, case.master).clean_relation(case.dirty, case.truth, shards=4)
    engine = CerFix(case.ruleset, case.master)
    result = engine.clean_relation(case.dirty, case.truth, shards=4, journal_path=journal)
    assert result.relation.raw_tuples() == fresh.relation.raw_tuples()
    assert normalize_report(result.report.to_json()) == normalize_report(fresh.report.to_json())
    assert result.report.resumed_shards == 0  # stale: a 1.14 plan fingerprint
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [line["kind"] for line in lines] == ["header"] + ["shard"] * len(result.report.shards)


def test_crashed_paged_run_from_1_14(tmp_path, monkeypatch):
    case = generate_case(3, scenario="uk", n=60, rate=0.35, with_truth=False)
    fresh = CerFix(case.ruleset, case.master).clean_relation(case.dirty, validated=case.validated)
    db = tmp_path / "dirty.db"
    conn = sqlite3.connect(db)
    conn.executescript((DATA / "crashed-run-1.14.sql").read_text())
    conn.close()
    (run,) = list_runs(DirtyTable(db))
    assert (run.status, run.pages_done) == ("running", 1)

    real = executor_mod._run_shard
    executed = []
    monkeypatch.setattr(
        executor_mod, "_run_shard",
        lambda shard, *args: executed.append(shard) or real(shard, *args),
    )
    result = CerFix(case.ruleset, case.master).clean_table(
        db, page_rows=30, validated=case.validated, shards=4, resume=run.run_id
    )
    # Page 0 stays committed; page 1's 2 checkpoints are stale, so all 4
    # of its shards rerun.
    assert result.resumed_pages == 1
    assert len(executed) == 4
    table = DirtyTable(db)
    conn = table.backend.connect(readonly=True)
    try:
        assert table.read_relation(conn).raw_tuples() == fresh.relation.raw_tuples()
    finally:
        conn.close()
    assert result.changed_cells == fresh.report.changed_cells
