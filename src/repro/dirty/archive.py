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

Run records since 1.23 carry v2 digests (:mod:`repro.dirty.table`);
while ``running``, ``pre_digest`` holds the partial pre- and post-run
sums of the committed pages (``rowsum-v2-partial:<pre>:<post>``), so a
resumed run continues them. Records of 1.14–1.22 carry v1 digests and
keep their scans. Any other digest is refused with ``DirtyDataError``.

Undo replays a run's changes backwards inside one transaction and
refuses to run at all if the table moved on since the run committed
(current digest ≠ recorded post-digest; one scan, of the committed
pages for a crashed v2 run) — restoring old values onto a table someone
else edited would corrupt it, not repair it. The restore only commits
after the rebuilt table digest-matches the recorded pre-run digest (v2:
derived from keyed reads of the changed rows), so "undone" means
*exactly* the table you started with.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from typing import Any, Iterable

from repro.dirty.backend import executemany
from repro.dirty.table import ROWSUM_MOD, ROWSUM_TAG, DirtyTable, rowsum_digest
from repro.errors import DirtyDataError

RUNS_TABLE = "cerfix_clean_runs"
CHANGES_TABLE = "cerfix_clean_changes"
#: Shard checkpoints of versions before 1.20, dropped unread.
CHECKPOINTS_TABLE = "cerfix_clean_checkpoints"

#: Run lifecycle states. ``running`` additionally means "crashed" when
#: observed outside a live run — such runs may be undone (only their
#: committed pages have changes on record) but never resumed as if done.
RUN_STATUSES = ("running", "committed", "undone")

#: Tag of a running v2 run's two partial sums.
PARTIAL_TAG = "rowsum-v2-partial:"
_HEX64 = re.compile(r"[0-9a-f]{64}")


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


def partial_digest(pre: int, post: int) -> str:
    """A running v2 run's partial pre- and post-run sums, as recorded."""
    return f"{PARTIAL_TAG}{pre % ROWSUM_MOD:064x}:{post % ROWSUM_MOD:064x}"


def run_sums(record: "RunRecord") -> tuple[int, int] | None:
    """A running or committed run's v2 ``(pre, post)`` sums (partial while
    running), or ``None`` for a v1 record; refuses any other digest."""
    running = record.status == "running"
    tags, sums = set(), []
    for text in (record.pre_digest,) if running else (record.pre_digest, record.post_digest):
        parts = str(text).split(":")
        tag, fields = (parts[0] + ":", parts[1:]) if len(parts) > 1 else ("", parts)
        if tag not in ("", ROWSUM_TAG, PARTIAL_TAG):
            raise DirtyDataError(f"run {record.run_id} has a digest with unknown tag {tag[:-1]!r}")
        if len(fields) != (2 if tag == PARTIAL_TAG else 1) or not all(map(_HEX64.fullmatch, fields)):
            raise DirtyDataError(f"run {record.run_id} has a malformed digest {text!r}")
        tags.add(tag)
        sums += (int(f, 16) for f in fields)
    if tags == {""}:
        return None
    if tags == {PARTIAL_TAG if running else ROWSUM_TAG}:
        return sums[0], sums[1]
    raise DirtyDataError(
        f"run {record.run_id} is {record.status} but records digests tagged {sorted(tags)}"
    )


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
        self, conn, run_id: str, changes: Iterable[CellChange], pages_done: int,
        pre_digest: str | None = None,
    ) -> int:
        """Archive one page's changes and bump progress (and the partial
        digest sums, if given); returns cells added."""
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
            f"changed_cells = changed_cells + ?, "
            f"pre_digest = COALESCE(?, pre_digest) WHERE run_id = ?",
            (pages_done, len(rows), pre_digest, run_id),
        )
        return len(rows)

    def finish_run(self, conn, run_id: str, pre_digest: str, post_digest: str) -> None:
        q = self.backend.quote
        conn.execute(
            f"UPDATE {q(RUNS_TABLE)} SET status = 'committed', pre_digest = ?, "
            f"post_digest = ?, finished_at = ? WHERE run_id = ?",
            (pre_digest, post_digest, time.time(), run_id),
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
        recorded post-run digest. A ``running`` (crashed) v2 run checks
        the pages it committed against its partial post-run sum; a
        crashed v1 run skips that check, as it has no post-digest.
        Unwinding the committed pages is exactly the recovery a crashed
        run needs. Re-undoing an ``undone`` run is a no-op.
        """
        record = self.get_run(conn, run_id)
        if record.status == "undone":
            return record
        sums, crashed = run_sums(record), record.status == "running"
        if sums is not None:
            prefix = record.pages_done * record.page_rows if crashed else None
            current = self.table.digest(conn, version=2, limit=prefix)
            recorded = rowsum_digest(sums[1])
        else:  # v1: a scan, none for a crashed run (it has no post-digest)
            current = None if crashed else self.table.digest(conn)
            recorded = None if crashed else record.post_digest
        if current != recorded:
            raise DirtyDataError(
                f"refusing to undo {run_id}: table {record.table_name!r} was "
                f"modified after the run (digest {current[-64:][:12]}… != "
                f"recorded {recorded[-64:][:12]}…); undo would corrupt it"
            )
        changes = self.changes(conn, run_id, reverse=True)
        keys = sorted({c.row_key for c in changes})
        q = self.backend.quote
        conn.execute("BEGIN")
        try:
            before = 0 if sums is None else self.table.row_sum(conn, keys)
            self.table.apply_cell_writes(
                conn, [(c.row_key, c.column, c.old) for c in changes]
            )
            if sums is None:
                restored, expected = self.table.digest(conn), record.pre_digest
            else:
                restored = rowsum_digest(sums[1] - before + self.table.row_sum(conn, keys))
                expected = rowsum_digest(sums[0])
            if restored != expected:
                raise DirtyDataError(
                    f"undo of {run_id} did not reproduce the pre-run table "
                    f"(digest {restored[-64:][:12]}… != recorded "
                    f"{expected[-64:][:12]}…); rolling back"
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

