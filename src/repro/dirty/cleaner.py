"""The paged DB cleaner: certain fixes over a table that outgrows RAM.

:class:`DbCleaner` streams the dirty table through the existing batch
pipeline one fixed-size page at a time, so peak memory is bounded by
``page_rows`` regardless of table size. Each page runs through
:meth:`~repro.batch.pipeline.BatchCleaner.clean` (dedup, sharding and
probe caching apply within the page), then the page's cell fixes, their
reversible archive rows and the run's progress counter commit in
**one** database transaction — the run record in ``cerfix_clean_runs``
is therefore always consistent with the table: a crash at any instant
leaves either a fully-committed page or none of it, and
:func:`undo_run` can unwind exactly what was applied.

Recovery works at page granularity. Resuming a crashed run
(``resume=<run-id>``) skips the pages its run record's ``pages_done``
counts as committed and re-runs the page that was in flight from
scratch, so no resume redoes more than one page. The page commit is the
only durable write of a run: nothing is checkpointed inside a page.
Databases from versions that did keep shard checkpoints in a
``cerfix_clean_checkpoints`` table resume the same way; those rows are
never read, and the next committing run drops the table.

A DB run's provenance is its archive: each ``cerfix_clean_changes`` row
carries the rule, source and span of the event that wrote the cell, and
the engine's in-memory audit log records nothing for it. Archive row
keys are the table's ``rowid``s.

A committing run reads each row once: its page reads add the rows to
the v2 pre- and post-run digest sums (:mod:`repro.dirty.table`), and a
keyed re-read after the page's writes swaps in the changed rows as the
table holds them (type affinity included). Both sums commit with the
page; a resumed run continues them, or scans as then for a v1 run.

:meth:`DbCleaner.clean` (dry or committing) and
:func:`undo_run` pause automatic cyclic collection process-wide
(``gc.disable()``). A run leaves no reference cycles, so the collector's
passes found nothing, yet a warm engine paid for ~160 young passes and a
full pass over the master's indexes and probe memo per 6,144-row clean.
Other threads' cycles wait for the run to end. The collector is
re-enabled on exit only if the run found it enabled, so a caller's
``gc.disable()`` holds. Each page ends with ``gc.collect(0)``: cycles a
later change might leave are freed page by page, and memory stays
bounded by ``page_rows``. Process workers re-enable collection at start.

Nothing on the committing path frees disk blocks: sqlite keeps its
rollback journal (``PERSIST``, see :mod:`repro.dirty.backend`). On a
filesystem mounted with ``discard``, every unlink costs a synchronous
TRIM.

Because fixes are *certain* (scheduling-independent, as the batch
pipeline guarantees), the paged path produces bit-identical output to
the in-memory path; the conformance tests assert it.
"""

from __future__ import annotations

import gc
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256

from repro.batch.pipeline import BatchCleaner
from repro.dirty.archive import (
    CellChange, ChangeArchive, RunRecord, new_run_id, partial_digest, run_sums,
)
from repro.dirty.table import DEFAULT_PAGE_ROWS, DirtyTable, Page, columns_term, rowsum_digest
from repro.errors import DirtyDataError
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.relational.schema import Schema

#: Environment override for the page size — CI forces a tiny value so
#: multi-page streaming and resume exercise on small fixtures.
PAGE_ROWS_ENV = "CERFIX_PAGE_ROWS"


def resolve_page_rows(page_rows: int | None) -> int:
    """Explicit argument → ``CERFIX_PAGE_ROWS`` → default."""
    if page_rows is None:
        raw = os.environ.get(PAGE_ROWS_ENV, "").strip()
        if raw:
            try:
                page_rows = int(raw)
            except ValueError:
                raise DirtyDataError(
                    f"{PAGE_ROWS_ENV}={raw!r} is not an integer"
                ) from None
        else:
            page_rows = DEFAULT_PAGE_ROWS
    if page_rows < 1:
        raise DirtyDataError(f"page size must be >= 1, got {page_rows}")
    return page_rows


@contextmanager
def _collector_paused():
    """Pause automatic cyclic collection; re-enable it on exit only if it
    was enabled on entry (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class DbCleanResult:
    """Outcome of one paged clean (or dry run) over a database table."""

    run_id: str | None
    table: str
    db: str
    rows: int
    pages: int
    page_rows: int
    changed_cells: int
    dry_run: bool
    resumed_pages: int
    elapsed_seconds: float
    #: Per-cell changes, populated on dry runs only — committed runs
    #: keep them in the database archive, which scales; a report does not.
    changes: list[CellChange] = field(default_factory=list)

    def describe(self) -> str:
        what = "dry run" if self.dry_run else f"run {self.run_id}"
        line = (
            f"{what}: {self.rows} rows in {self.pages} pages "
            f"(page_rows={self.page_rows}), {self.changed_cells} cells "
            f"{'would change' if self.dry_run else 'changed'} "
            f"in {self.elapsed_seconds:.2f}s"
        )
        if self.resumed_pages:
            line += f"; resumed past {self.resumed_pages} committed pages"
        return line


class DbCleaner:
    """Paged cleaning of one :class:`~repro.dirty.table.DirtyTable`.

    ``batch`` keeps no audit log: the archive is a DB run's provenance.
    """

    def __init__(
        self,
        batch: BatchCleaner,
        table: DirtyTable,
        *,
        page_rows: int | None = None,
    ):
        if batch.audit is not None:
            raise DirtyDataError(
                "a paged clean records provenance in its archive; "
                "build its BatchCleaner without an audit log"
            )
        self.batch = batch
        self.table = table
        self.archive = ChangeArchive(table)
        self.page_rows = resolve_page_rows(page_rows)

    # -- public ------------------------------------------------------------

    @_collector_paused()
    def clean(
        self,
        *,
        workers: int = 1,
        shards: int | None = None,
        dedupe: bool = True,
        validated: tuple[str, ...] = (),
        max_rounds: int | None = None,
        dry_run: bool = False,
        resume: str | None = None,
    ) -> DbCleanResult:
        """Clean the table in pages; commit fixes + archive, or report only.

        ``dry_run=True`` opens the database **read-only** (any write
        would raise), records nothing, and returns every would-be change
        in the result. ``resume`` continues an interrupted run by id.
        """
        if dry_run and resume is not None:
            raise DirtyDataError("cannot combine dry_run with resume")
        start = time.perf_counter()
        conn = self.table.backend.connect(readonly=dry_run)
        try:
            schema = self._page_schema(conn)
            row_count = self.table.count(conn)
            pages_total = math.ceil(row_count / self.page_rows)
            with trace.span(
                "clean-run",
                db=self.table.backend.describe(),
                table=self.table.table,
                rows=row_count,
                pages=pages_total,
                page_rows=self.page_rows,
                dry_run=dry_run,
            ), self.batch.reusing_workers():
                if dry_run:
                    return self._dry_run(
                        conn,
                        schema,
                        row_count,
                        pages_total,
                        start,
                        workers=workers,
                        shards=shards,
                        dedupe=dedupe,
                        validated=validated,
                        max_rounds=max_rounds,
                    )
                return self._commit_run(
                    conn,
                    schema,
                    row_count,
                    pages_total,
                    start,
                    workers=workers,
                    shards=shards,
                    dedupe=dedupe,
                    validated=validated,
                    max_rounds=max_rounds,
                    resume=resume,
                )
        finally:
            conn.close()

    # -- the two run shapes ------------------------------------------------

    def _dry_run(
        self,
        conn,
        schema: Schema,
        row_count: int,
        pages_total: int,
        start: float,
        *,
        workers: int,
        shards: int | None,
        dedupe: bool,
        validated: tuple[str, ...],
        max_rounds: int | None,
    ) -> DbCleanResult:
        changes: list[CellChange] = []
        pages_seen = 0
        for page in self.table.pages(conn, self.page_rows, schema=schema):
            page_changes = self._clean_page(
                page,
                seq_start=len(changes),
                workers=workers,
                shards=shards,
                dedupe=dedupe,
                validated=validated,
                max_rounds=max_rounds,
            )
            changes.extend(page_changes)
            pages_seen += 1
            gc.collect(0)
        reg = get_registry()
        reg.inc("cerfix.dbclean.dry_runs")
        reg.inc("cerfix.dbclean.pages", pages_seen)
        reg.inc("cerfix.dbclean.rows", row_count)
        return DbCleanResult(
            run_id=None,
            table=self.table.table,
            db=self.table.backend.describe(),
            rows=row_count,
            pages=pages_seen,
            page_rows=self.page_rows,
            changed_cells=len(changes),
            dry_run=True,
            resumed_pages=0,
            elapsed_seconds=time.perf_counter() - start,
            changes=changes,
        )

    def _commit_run(
        self,
        conn,
        schema: Schema,
        row_count: int,
        pages_total: int,
        start: float,
        *,
        workers: int,
        shards: int | None,
        dedupe: bool,
        validated: tuple[str, ...],
        max_rounds: int | None,
        resume: str | None,
    ) -> DbCleanResult:
        self.archive.ensure(conn)
        fingerprint = self._fingerprint(validated, max_rounds, row_count)
        if resume is not None:
            record = self._resumable(conn, resume, fingerprint, row_count)
            run_id = record.run_id
            skip = record.pages_done
            seq = changed = record.changed_cells
            sums = run_sums(record)  # None: a v1 run, digested by scans
        else:
            run_id = new_run_id()
            sums = (columns_term(self.table.columns(conn)),) * 2
            self.archive.begin_run(
                conn,
                RunRecord(
                    run_id=run_id,
                    table_name=self.table.table,
                    status="running",
                    fingerprint=fingerprint,
                    page_rows=self.page_rows,
                    pages_total=pages_total,
                    pages_done=0,
                    row_count=row_count,
                    pre_digest=partial_digest(*sums),
                    post_digest=None,
                    started_at=time.time(),
                    finished_at=None,
                    changed_cells=0,
                ),
            )
            skip = seq = changed = 0
        pages_run = rows_run = cells_run = 0
        for page in self.table.pages(
            conn, self.page_rows, schema=schema, skip_pages=skip,
            hashed=sums is not None,
        ):
            page_changes = self._clean_page(
                page,
                seq_start=seq,
                workers=workers,
                shards=shards,
                dedupe=dedupe,
                validated=validated,
                max_rounds=max_rounds,
            )
            conn.execute("BEGIN")
            try:
                self.table.apply_cell_writes(
                    conn, [(c.row_key, c.column, c.new) for c in page_changes]
                )
                page_sums = None
                if sums is not None:  # swap in the changed rows as written
                    keys = sorted({c.row_key for c in page_changes})
                    read, old = sum(page.hashes.values()), sum(map(page.hashes.__getitem__, keys))
                    new = self.table.row_sum(conn, keys)
                    page_sums = (sums[0] + read, sums[1] + read - old + new)
                self.archive.record_page(
                    conn, run_id, page_changes, pages_done=page.index + 1,
                    pre_digest=None if page_sums is None else partial_digest(*page_sums),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            sums = page_sums
            seq += len(page_changes)
            changed += len(page_changes)
            pages_run += 1
            rows_run += len(page)
            cells_run += len(page_changes)
            gc.collect(0)
        if sums is None:  # a resumed v1 run
            digests = (record.pre_digest, self.table.digest(conn))
        else:
            digests = tuple(map(rowsum_digest, sums))
        self.archive.finish_run(conn, run_id, *digests)
        reg = get_registry()
        reg.inc("cerfix.dbclean.runs")
        reg.inc("cerfix.dbclean.pages", pages_run)
        reg.inc("cerfix.dbclean.rows", rows_run)
        reg.inc("cerfix.dbclean.changed_cells", cells_run)
        return DbCleanResult(
            run_id=run_id,
            table=self.table.table,
            db=self.table.backend.describe(),
            rows=row_count,
            pages=skip + pages_run,
            page_rows=self.page_rows,
            changed_cells=changed,
            dry_run=False,
            resumed_pages=skip,
            elapsed_seconds=time.perf_counter() - start,
        )

    # -- per-page ----------------------------------------------------------

    def _clean_page(
        self,
        page: Page,
        *,
        seq_start: int,
        workers: int,
        shards: int | None,
        dedupe: bool,
        validated: tuple[str, ...],
        max_rounds: int | None,
    ) -> list[CellChange]:
        """Run one page through the batch pipeline; one archive change
        per cell the rebind changed.

        The rebind reports the changed cells in row then column order,
        each with the rule, source and span of the event that wrote it:
        the archive row's provenance, with no audit log kept.
        """
        with trace.span("page", page=page.index, rows=len(page)):
            result = self.batch.clean(
                page.relation,
                None,
                workers=workers,
                shards=shards,
                dedupe=dedupe,
                validated=validated,
                max_rounds=max_rounds,
                root_span=False,
            )
        # A change is (row, column, old, new, rule_id, source, trace_id,
        # span_id): CellChange's fields from ``column`` on.
        return [
            CellChange(seq_start + i, page.index, page.keys[c[0]], *c[1:])
            for i, c in enumerate(result.changes)
        ]

    # -- run identity and resume -------------------------------------------

    def _page_schema(self, conn) -> Schema:
        """The table read in input-schema column order (validated)."""
        want = self.batch.ruleset.input_schema.names
        got = self.table.columns(conn)
        if set(got) != set(want):
            raise DirtyDataError(
                f"table {self.table.table!r} does not match the input schema: "
                f"missing {sorted(set(want) - set(got))}, "
                f"unexpected {sorted(set(got) - set(want))}"
            )
        return Schema(self.table.table, want)

    def _fingerprint(
        self, validated: tuple[str, ...], max_rounds: int | None, row_count: int
    ) -> str:
        """Identity a resume must match: engine configuration (rules,
        master content, mode, strategy, ...) plus the page geometry the
        committed-pages offset depends on."""
        context = self.batch._context_key(validated, max_rounds, include_master=True)
        raw = repr((context, self.table.table, self.page_rows, row_count))
        return sha256(raw.encode("utf-8")).hexdigest()

    def _resumable(
        self, conn, run_id: str, fingerprint: str, row_count: int
    ) -> RunRecord:
        record = self.archive.get_run(conn, run_id)
        if record.status != "running":
            raise DirtyDataError(
                f"run {run_id} is {record.status}, not resumable (only an "
                f"interrupted 'running' run can resume)"
            )
        if record.page_rows != self.page_rows:
            raise DirtyDataError(
                f"refusing to resume {run_id}: it ran with page_rows="
                f"{record.page_rows}, this run has {self.page_rows}"
            )
        if record.fingerprint != fingerprint or record.row_count != row_count:
            raise DirtyDataError(
                f"refusing to resume {run_id}: the table or the engine "
                f"configuration changed since the run started"
            )
        return record


@_collector_paused()
def undo_run(table: DirtyTable, run_id: str) -> RunRecord:
    """Restore the exact pre-run table for ``run_id``, digest-verified."""
    archive = ChangeArchive(table)
    conn = table.backend.connect()
    try:
        with trace.span(
            "undo-run", db=table.backend.describe(), run_id=run_id
        ):
            record = archive.undo(conn, run_id)
    finally:
        conn.close()
    get_registry().inc("cerfix.dbclean.undos")
    return record


def list_runs(table: DirtyTable) -> list[RunRecord]:
    """All recorded clean runs of this database, oldest first."""
    archive = ChangeArchive(table)
    conn = table.backend.connect(readonly=True)
    try:
        return archive.list_runs(conn)
    finally:
        conn.close()
