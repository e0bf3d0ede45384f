"""Group-level audit provenance equals a member-by-member replay.

The batch pipeline records each group's transcript once
(:meth:`AuditLog.record_group`) and the log expands it per tuple only
when read. :func:`eager_replay` below is the reference: one
:meth:`AuditLog.record` per (member, event), in member order, with the
transcript replayed over each member's own input row. The ``shadow``
fixture runs it beside the real rebind on the same shard results,
inside the same span, so the two logs must agree event for event — seq,
tuple id, attr, old/new, source, rule, master positions, round and
trace/span ids — and on the repaired rows and the changed-cell count.

CI runs this file in the ``store-parity`` leg with 4 process workers
(``CERFIX_PARITY_WORKERS``).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import threading

import pytest

from repro import CerFix
from repro.audit.log import AuditLog
from repro.batch.pipeline import BatchCleaner
from repro.dirty import ChangeArchive, DirtyTable
from repro.master.conformance import generate_case
from repro.monitor.user import OracleUser
from repro.obs import trace
from repro.relational.relation import Relation

PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "2"))


def eager_replay(audit, schema, dirty, truth, results, tuple_ids, shared):
    """The reference: every (member, event) recorded one by one, each
    member's transcript replayed over its own input row. Returns the
    repaired relation and the changed-cell count."""
    names = schema.names
    rows = [None] * len(dirty)
    changed = 0
    for result in results:
        for outcome in result.outcomes:
            for member in outcome.members:
                tid = tuple_ids[member] if tuple_ids is not None else f"t{member}"
                state = dirty.row(member).to_dict()
                for e in outcome.audit_events:
                    old, new = state[e["attr"]], e["new"]
                    if e["source"] == "user" and e["attr"] not in shared:
                        new = truth.row(member)[e["attr"]] if truth is not None else old
                    state[e["attr"]] = new
                    if old != new:
                        changed += 1
                    audit.record(
                        tid,
                        e["attr"],
                        old,
                        new,
                        e["source"],
                        rule_id=e["rule_id"],
                        master_positions=tuple(e["master_positions"]),
                        round_no=e["round_no"],
                        trace_id=e.get("trace_id"),
                        span_id=e.get("span_id"),
                    )
                rows[member] = tuple(state[n] for n in names)
    return Relation(schema, rows), changed


@dataclasses.dataclass
class Shadow:
    log: AuditLog
    changed: int = 0
    groups_with_overrides: int = 0


@pytest.fixture()
def shadow(monkeypatch):
    """Run :func:`eager_replay` into ``shadow.log`` beside every real rebind."""
    ref = Shadow(AuditLog())
    grouped = BatchCleaner._rebind

    def both(self, dirty, truth, results, tuple_ids, shared):
        got, changed = grouped(self, dirty, truth, results, tuple_ids, shared)
        want, want_changed = eager_replay(
            ref.log, self.ruleset.input_schema, dirty, truth, results, tuple_ids, shared
        )
        assert got.raw_tuples() == want.raw_tuples()
        assert changed == want_changed
        ref.changed += want_changed
        ref.groups_with_overrides += sum(
            1
            for r in results
            for o in r.outcomes
            if len(o.members) > 1
            and any(e["attr"] not in shared for e in o.audit_events)
        )
        return got, changed

    monkeypatch.setattr(BatchCleaner, "_rebind", both)
    return ref


@pytest.fixture()
def traced(tmp_path):
    trace.configure(tmp_path / "spans.jsonl")
    try:
        yield
    finally:
        trace.disable()


def assert_same_log(log: AuditLog, ref: AuditLog) -> None:
    assert len(log) == len(ref) > 0
    assert list(log) == list(ref)
    assert [e.seq for e in log] == list(range(len(ref)))
    assert log.tuple_ids() == ref.tuple_ids()
    for tid in ref.tuple_ids():
        assert log.by_tuple(tid) == ref.by_tuple(tid)
    assert log.by_attr("FN") == ref.by_attr("FN")
    assert log.stats() == ref.stats()


def _duplicated(case, payload, copies=3):
    """The case's rows repeated ``copies`` times; later copies vary the
    ``payload`` columns, so duplicates still share one group but each
    member keeps its own input values there."""
    names = case.dirty.schema.names
    rows = [
        tuple(f"{v}~{k}" if k and n in payload else v for n, v in zip(names, row))
        for k in range(copies)
        for row in case.dirty.raw_tuples()
    ]
    truth = None
    if case.truth is not None:
        truth = Relation(case.truth.schema, case.truth.raw_tuples() * copies)
    return dataclasses.replace(
        case, dirty=Relation(case.dirty.schema, rows), truth=truth
    )


@pytest.fixture(scope="module")
def uk_case():
    return _duplicated(generate_case(5, scenario="uk", n=30), {"item"})


@pytest.fixture(scope="module")
def hospital_case():
    return _duplicated(
        generate_case(6, scenario="hospital", n=30, with_truth=False),
        {"score", "sample"},
    )


def _clean(case, engine=None, **kwargs):
    engine = engine or CerFix(case.ruleset, case.master)
    result = engine.clean_relation(
        case.dirty, case.truth, validated=case.validated, **kwargs
    )
    return engine, result


# -- in-memory batch cleans --------------------------------------------------


def test_uk_with_truth_overrides_payload_old_values(uk_case, shadow):
    engine, result = _clean(uk_case, workers=2)
    assert_same_log(engine.audit, shadow.log)
    assert result.report.changed_cells == shadow.changed
    # The payload column really was validated on multi-member groups,
    # with each member's own input value as ``old``.
    assert shadow.groups_with_overrides > 0
    olds = {e.old for e in engine.audit.by_attr("item")}
    assert any(str(v).endswith("~2") for v in olds)


def test_hospital_rule_only(hospital_case, shadow):
    engine, result = _clean(hospital_case)
    assert_same_log(engine.audit, shadow.log)
    assert result.report.changed_cells == shadow.changed
    assert result.report.groups < len(hospital_case.dirty)


def test_traced_clean_keeps_worker_span_ids(uk_case, shadow, traced):
    engine, _ = _clean(uk_case)
    assert_same_log(engine.audit, shadow.log)
    assert all(e.span_id is not None for e in engine.audit)


def _all_resumed(result) -> bool:
    return all(s.resumed for s in result.report.shards)


def _strip_seq(events):
    return [dataclasses.replace(e, seq=0) for e in events]


def test_journal_resume(uk_case, shadow, tmp_path):
    """Outcomes reloaded from the journal replay exactly as fresh ones."""
    journal = tmp_path / "clean.journal"
    engine, _ = _clean(uk_case, journal_path=journal)
    fresh = len(engine.audit)
    _, result = _clean(uk_case, engine=engine, journal_path=journal)
    assert _all_resumed(result)
    assert_same_log(engine.audit, shadow.log)
    events = engine.audit.events
    assert _strip_seq(events[fresh:]) == _strip_seq(events[:fresh])


def test_unstamped_events_take_the_replay_span(uk_case, shadow, tmp_path):
    """Shards journaled untraced carry no ids; resumed under tracing,
    their events are stamped with the span active at replay."""
    journal = tmp_path / "clean.journal"
    engine, _ = _clean(uk_case, journal_path=journal)
    fresh = len(engine.audit)
    trace.configure(tmp_path / "spans.jsonl")
    try:
        _, result = _clean(uk_case, engine=engine, journal_path=journal)
    finally:
        trace.disable()
    assert _all_resumed(result)
    assert_same_log(engine.audit, shadow.log)
    stamps = {(e.trace_id, e.span_id) for e in engine.audit.events[fresh:]}
    assert len(stamps) == 1 and None not in stamps.pop()


def test_process_backend(uk_case, shadow):
    engine, result = _clean(uk_case, workers=PARITY_WORKERS)
    assert result.report.backend == "process"
    assert_same_log(engine.audit, shadow.log)


def test_save_load_round_trips(uk_case, shadow, traced, tmp_path):
    engine, _ = _clean(uk_case)
    path = tmp_path / "audit.jsonl"
    engine.audit.to_jsonl(path)
    shadow.log.to_jsonl(tmp_path / "ref.jsonl")
    assert path.read_text() == (tmp_path / "ref.jsonl").read_text()
    for back in (AuditLog.from_jsonl(path), pickle.loads(pickle.dumps(engine.audit))):
        assert_same_log(back, shadow.log)
        # Appends after a load continue the sequence.
        assert back.record("x", "FN", "a", "b", "user").seq == len(shadow.log)


def test_monitor_record_between_batch_cleans(uk_case, shadow):
    """Single events and group records share one counter and one
    per-tuple index: a session on ``t0`` lands between two cleans that
    both replay onto ``t0``."""
    engine, _ = _clean(uk_case)
    before = len(engine.audit)
    row = uk_case.dirty.row(0).to_dict()
    engine.fix(row, OracleUser(uk_case.truth.row(0).to_dict()), tuple_id="t0")
    after = len(engine.audit)
    assert after > before
    for e in engine.audit.events[before:]:
        shadow.log.record(
            e.tuple_id, e.attr, e.old, e.new, e.source, rule_id=e.rule_id,
            master_positions=e.master_positions, round_no=e.round_no,
            trace_id=e.trace_id, span_id=e.span_id,
        )
    _clean(uk_case, engine=engine)
    assert_same_log(engine.audit, shadow.log)
    # t0's trace: first clean, the session, second clean, in seq order.
    seqs = [e.seq for e in engine.audit.by_tuple("t0")]
    assert seqs == sorted(seqs)
    assert seqs[0] < before and seqs[-1] >= after
    assert set(range(before, after)) <= set(seqs)


def test_concurrent_record_and_record_group_share_one_counter():
    """Single events and group records appended from many threads at
    once: no sequence number is lost or handed out twice."""
    log = AuditLog()
    transcript = (
        {"attr": "FN", "old": "a", "new": "b", "source": "rule", "rule_id": "r",
         "master_positions": (0,), "round_no": 1},
        {"attr": "LN", "old": "c", "new": "c", "source": "user", "rule_id": None,
         "master_positions": (), "round_no": 1},
    )

    def single(k):
        for i in range(2000):
            log.record(f"s{k}-{i % 7}", "FN", i, i + 1, "user")

    def grouped(k):
        for i in range(1000):
            log.record_group(transcript, [f"g{k}-{i % 5}", f"g{k}-{i % 3}x"], {})

    threads = [threading.Thread(target=f, args=(k,)) for k in range(4) for f in (single, grouped)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    events = log.events
    assert len(log) == len(events) == 4 * (2000 + 1000 * 2 * 2)
    assert [e.seq for e in events] == list(range(len(events)))
    for tid in log.tuple_ids():
        seqs = [e.seq for e in log.by_tuple(tid)]
        assert seqs == sorted(seqs) and all(events[q].tuple_id == tid for q in seqs)


# -- paged DB cleans: archive provenance --------------------------------------


def _archive(path, run_id):
    table = DirtyTable(path)
    conn = table.backend.connect(readonly=True)
    try:
        return ChangeArchive(table).changes(conn, run_id)
    finally:
        conn.close()


@pytest.mark.parametrize("page_rows", [1, 64, 4096])
def test_db_archive_matches_eager_provenance(
    hospital_case, page_rows, shadow, tmp_path, monkeypatch
):
    def run(path):
        DirtyTable.create(path, hospital_case.dirty)
        engine = CerFix(hospital_case.ruleset, hospital_case.master)
        trace.configure(tmp_path / f"{path.stem}.spans.jsonl")
        try:
            result = engine.clean_table(
                path, page_rows=page_rows, validated=hospital_case.validated
            )
        finally:
            trace.disable()
        return engine, result, _archive(path, result.run_id)

    # The eager replay alone, into the engine's own log.
    with monkeypatch.context() as m:
        m.setattr(
            BatchCleaner,
            "_rebind",
            lambda self, dirty, truth, results, tuple_ids, shared: eager_replay(
                self.audit, self.ruleset.input_schema, dirty, truth, results,
                tuple_ids, shared,
            ),
        )
        _, parent, parent_rows = run(tmp_path / "parent.db")
    engine, result, rows = run(tmp_path / "change.db")  # group records, shadowed

    assert_same_log(engine.audit, shadow.log)
    assert result.changed_cells == parent.changed_cells == len(rows) > 0
    last = {(e.tuple_id, e.attr): e for e in shadow.log}
    for row, was in zip(rows, parent_rows):
        e = last.get((f"r{row.row_key}", row.column))
        want = (e.rule_id, e.source, e.span_id is not None) if e else (None, None, False)
        assert (row.rule_id, row.source, row.span_id is not None) == want
        assert (row.seq, row.row_key, row.column, row.old, row.new) == (
            was.seq, was.row_key, was.column, was.old, was.new
        )
        assert (row.rule_id, row.source, row.span_id is not None) == (
            was.rule_id, was.source, was.span_id is not None
        )
    assert any(row.span_id is not None for row in rows)
