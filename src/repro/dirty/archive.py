"""Reversible change archive: every cell a clean run touches, on record.

Two tables ride in the same database file as the dirty table itself:

``cerfix_clean_runs``
    One row per clean run — status (``running`` → ``committed`` →
    ``undone``), the run fingerprint (config identity, for resume
    validation), page geometry and progress, and the pre-/post-run
    table digests that anchor undo.

``cerfix_clean_changes``
    One row per changed cell — run id, sequence number, page, row key,
    column, old and new value (JSON-encoded so ``int``/``float``/
    ``str``/``None`` survive verbatim), the rule that forced the fix
    and the trace/span the change was made under. This is a DB run's
    whole provenance record.

Versions before 1.20 kept a third, ``cerfix_clean_checkpoints``, with
the in-flight page's shard checkpoints. Its rows are never read: the
next committing run drops the table.

Undo replays a run's changes backwards inside one transaction and
refuses to run at all if the table moved on since the run committed
(current digest ≠ recorded post-digest) — restoring old values onto a
table someone else edited would corrupt it, not repair it. The restore
only commits after the rebuilt table digest-matches the recorded
pre-run digest, so "undone" means *exactly* the table you started with.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.dirty.backend import executemany
from repro.dirty.table import DirtyTable
from repro.errors import DirtyDataError

RUNS_TABLE = "cerfix_clean_runs"
CHANGES_TABLE = "cerfix_clean_changes"
#: Shard checkpoints of versions before 1.20, dropped unread.
CHECKPOINTS_TABLE = "cerfix_clean_checkpoints"

#: Run lifecycle states. ``running`` additionally means "crashed" when
#: observed outside a live run — such runs may be undone (only their
#: committed pages have changes on record) but never resumed as if done.
RUN_STATUSES = ("running", "committed", "undone")


@dataclass(frozen=True)
class RunRecord:
    """One clean run as recorded in ``cerfix_clean_runs``."""

    run_id: str
    table_name: str
    status: str
    fingerprint: str
    page_rows: int
    pages_total: int
    pages_done: int
    row_count: int
    pre_digest: str
    post_digest: str | None
    started_at: float
    finished_at: float | None
    changed_cells: int


@dataclass(frozen=True)
class CellChange:
    """One reversible cell change as recorded in ``cerfix_clean_changes``."""

    seq: int
    page: int
    row_key: int
    column: str
    old: Any
    new: Any
    rule_id: str | None
    source: str | None
    trace_id: str | None
    span_id: str | None


def new_run_id() -> str:
    """Sortable-by-start-time, collision-proof run identifier."""
    return f"run-{time.strftime('%Y%m%dT%H%M%S')}-{os.urandom(4).hex()}"


def encode_value(value: Any) -> str:
    return json.dumps(value)


def decode_value(text: str) -> Any:
    return json.loads(text)


class ChangeArchive:
    """The run + change tables of one dirty database.

    Every method takes the caller's connection so archive writes land in
    the same transaction as the dirty-table writes they describe — the
    invariant undo depends on is that a change row exists iff its fix
    was applied.
    """

    def __init__(self, table: DirtyTable):
        self.table = table
        self.backend = table.backend

    # -- schema ------------------------------------------------------------

    def ensure(self, conn) -> None:
        q = self.backend.quote
        conn.execute(
            f"CREATE TABLE IF NOT EXISTS {q(RUNS_TABLE)} ("
            "run_id TEXT PRIMARY KEY, table_name TEXT NOT NULL, "
            "status TEXT NOT NULL, fingerprint TEXT NOT NULL, "
            "page_rows INTEGER NOT NULL, pages_total INTEGER NOT NULL, "
            "pages_done INTEGER NOT NULL, row_count INTEGER NOT NULL, "
            "pre_digest TEXT NOT NULL, post_digest TEXT, "
            "started_at REAL NOT NULL, finished_at REAL, "
            "changed_cells INTEGER NOT NULL)"
        )
        conn.execute(
            f"CREATE TABLE IF NOT EXISTS {q(CHANGES_TABLE)} ("
            "run_id TEXT NOT NULL, seq INTEGER NOT NULL, "
            "page INTEGER NOT NULL, row_key INTEGER NOT NULL, "
            "column_name TEXT NOT NULL, old_value TEXT NOT NULL, "
            "new_value TEXT NOT NULL, rule_id TEXT, source TEXT, "
            "trace_id TEXT, span_id TEXT, "
            "PRIMARY KEY (run_id, seq))"
        )
        conn.execute(f"DROP TABLE IF EXISTS {q(CHECKPOINTS_TABLE)}")

    # -- run lifecycle -----------------------------------------------------

    def begin_run(self, conn, record: RunRecord) -> None:
        q = self.backend.quote
        conn.execute(
            f"INSERT INTO {q(RUNS_TABLE)} VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record.run_id,
                record.table_name,
                record.status,
                record.fingerprint,
                record.page_rows,
                record.pages_total,
                record.pages_done,
                record.row_count,
                record.pre_digest,
                record.post_digest,
                record.started_at,
                record.finished_at,
                record.changed_cells,
            ),
        )

    def record_page(
        self, conn, run_id: str, changes: Iterable[CellChange], pages_done: int
    ) -> int:
        """Archive one page's changes and bump progress; returns cells
        added."""
        q = self.backend.quote
        rows = [
            (
                run_id,
                c.seq,
                c.page,
                c.row_key,
                c.column,
                encode_value(c.old),
                encode_value(c.new),
                c.rule_id,
                c.source,
                c.trace_id,
                c.span_id,
            )
            for c in changes
        ]
        executemany(
            conn,
            f"INSERT INTO {q(CHANGES_TABLE)} VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        conn.execute(
            f"UPDATE {q(RUNS_TABLE)} SET pages_done = ?, "
            f"changed_cells = changed_cells + ? WHERE run_id = ?",
            (pages_done, len(rows), run_id),
        )
        return len(rows)

    def finish_run(self, conn, run_id: str, post_digest: str) -> None:
        q = self.backend.quote
        conn.execute(
            f"UPDATE {q(RUNS_TABLE)} SET status = 'committed', "
            f"post_digest = ?, finished_at = ? WHERE run_id = ?",
            (post_digest, time.time(), run_id),
        )

    # -- lookups -----------------------------------------------------------

    def _row_to_record(self, row) -> RunRecord:
        return RunRecord(
            run_id=row[0],
            table_name=row[1],
            status=row[2],
            fingerprint=row[3],
            page_rows=int(row[4]),
            pages_total=int(row[5]),
            pages_done=int(row[6]),
            row_count=int(row[7]),
            pre_digest=row[8],
            post_digest=row[9],
            started_at=float(row[10]),
            finished_at=None if row[11] is None else float(row[11]),
            changed_cells=int(row[12]),
        )

    def get_run(self, conn, run_id: str) -> RunRecord:
        q = self.backend.quote
        if not self.backend.table_columns(conn, RUNS_TABLE):
            raise DirtyDataError(
                f"no clean runs recorded in {self.backend.describe()}"
            )
        row = conn.execute(
            f"SELECT * FROM {q(RUNS_TABLE)} WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise DirtyDataError(
                f"unknown run {run_id!r} in {self.backend.describe()}"
            )
        return self._row_to_record(row)

    def list_runs(self, conn) -> list[RunRecord]:
        q = self.backend.quote
        if not self.backend.table_columns(conn, RUNS_TABLE):
            return []
        rows = conn.execute(
            f"SELECT * FROM {q(RUNS_TABLE)} ORDER BY started_at, run_id"
        ).fetchall()
        return [self._row_to_record(r) for r in rows]

    def changes(self, conn, run_id: str, *, reverse: bool = False) -> list[CellChange]:
        q = self.backend.quote
        order = "DESC" if reverse else "ASC"
        rows = conn.execute(
            f"SELECT seq, page, row_key, column_name, old_value, new_value, "
            f"rule_id, source, trace_id, span_id FROM {q(CHANGES_TABLE)} "
            f"WHERE run_id = ? ORDER BY seq {order}",
            (run_id,),
        ).fetchall()
        return [
            CellChange(
                seq=int(r[0]),
                page=int(r[1]),
                row_key=int(r[2]),
                column=r[3],
                old=decode_value(r[4]),
                new=decode_value(r[5]),
                rule_id=r[6],
                source=r[7],
                trace_id=r[8],
                span_id=r[9],
            )
            for r in rows
        ]

    # -- undo --------------------------------------------------------------

    def undo(self, conn, run_id: str) -> RunRecord:
        """Restore the exact pre-run table, digest-verified both ways.

        A ``committed`` run only unwinds if the table still matches its
        recorded post-run digest; a ``running`` (crashed) run skips that
        check — there is no post-digest, and unwinding its committed
        pages is exactly the recovery it needs. Re-undoing an ``undone``
        run is a no-op.
        """
        record = self.get_run(conn, run_id)
        if record.status == "undone":
            return record
        if record.status == "committed":
            current = self.table.digest(conn)
            if current != record.post_digest:
                raise DirtyDataError(
                    f"refusing to undo {run_id}: table {record.table_name!r} was "
                    f"modified after the run (digest {current[:12]}… != recorded "
                    f"{str(record.post_digest)[:12]}…); undo would corrupt it"
                )
        changes = self.changes(conn, run_id, reverse=True)
        q = self.backend.quote
        conn.execute("BEGIN")
        try:
            self.table.apply_cell_writes(
                conn, [(c.row_key, c.column, c.old) for c in changes]
            )
            restored = self.table.digest(conn)
            if restored != record.pre_digest:
                raise DirtyDataError(
                    f"undo of {run_id} did not reproduce the pre-run table "
                    f"(digest {restored[:12]}… != recorded "
                    f"{record.pre_digest[:12]}…); rolling back"
                )
            conn.execute(
                f"UPDATE {q(RUNS_TABLE)} SET status = 'undone', finished_at = ? "
                f"WHERE run_id = ?",
                (time.time(), run_id),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return replace(record, status="undone")

