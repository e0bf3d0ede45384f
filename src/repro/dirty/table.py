"""The dirty relation as a database table, streamed in pages.

A :class:`DirtyTable` wraps one table behind the DB-API seam
(:mod:`repro.dirty.backend`) and serves it to the batch pipeline as a
sequence of fixed-size :class:`Page` s — each a bounded
:class:`~repro.relational.relation.Relation` plus the stable row keys
its rows were read under. Reads use keyset pagination on the integer
row key (``WHERE rowid > last ORDER BY rowid LIMIT n``), so streaming a
table never materialises more than one page and never degrades into
O(n²) OFFSET scans; row keys are how every later write (fix commits,
undo restores) addresses its cells, and they are UPDATE-stable by
construction.

The table digest is the identity undo verifies against: it pins both
content *and* row-key binding, so a table that was mutated, even back
to equal-looking values under different keys, cannot silently pass.
v1 (untagged; run records of 1.14–1.22) is SHA-256 over the column
names and every ``(row key, row)`` in key order. v2 (``rowsum-v2:``)
is the sum mod 2^256 of SHA-256 over the column names and over each
``repr((row key, *row))`` in declaration order: it does not depend on
read order, so a committing run adds up the rows its pages fetch and
swaps a changed row's term for a keyed re-read (:meth:`row_sum`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from operator import methodcaller
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.dirty.backend import DbBackend, executemany, require_db_scalar, resolve_backend
from repro.errors import DirtyDataError
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Page size used when neither the caller nor ``CERFIX_PAGE_ROWS`` says
#: otherwise — small enough to bound memory, large enough for the batch
#: planner's dedup to bite within a page.
DEFAULT_PAGE_ROWS = 4096

#: Page size for internal full-table sweeps (digest, whole-table reads).
_SCAN_ROWS = 2048

#: Tag of a v2 digest (an untagged digest is v1), and its modulus.
ROWSUM_TAG, ROWSUM_MOD = "rowsum-v2:", 1 << 256
_as_int = partial(int.from_bytes, byteorder="big")
_digest_bytes = methodcaller("digest")


def row_hashes(rows: Iterable[tuple]) -> Iterator[int]:
    """Per fetched ``(row key, *row)`` tuple, SHA-256 of its ``repr`` as an
    integer: the v2 digest's terms, in one chain of C-level maps."""
    return map(_as_int, map(_digest_bytes, map(
        hashlib.sha256, map(str.encode, map(repr, rows))
    )))


def columns_term(cols: Sequence[str]) -> int:
    """The v2 digest's column-names term (a row term's ``repr`` starts
    with an integer key, so the two cannot coincide)."""
    return _as_int(hashlib.sha256(repr(tuple(cols)).encode("utf-8")).digest())


def rowsum_digest(total: int) -> str:
    """A v2 sum, reduced mod 2^256, as its tagged hex string."""
    return f"{ROWSUM_TAG}{total % ROWSUM_MOD:064x}"


@dataclass(frozen=True)
class Page:
    """One fixed-size slice of the dirty table (``hashes``: each row key's
    v2 digest term, if read with ``hashed=True``)."""

    index: int
    keys: tuple[int, ...]
    relation: Relation
    hashes: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.keys)


class DirtyTable:
    """One database table of dirty tuples, read and written in pages.

    ``DirtyTable(db, table)`` attaches to an existing table (``db`` is a
    path — sqlite — or any :class:`~repro.dirty.backend.DbBackend`);
    :meth:`create` materialises a relation as a fresh table. All reads
    stream; only :meth:`read_relation` (tests, small tables) loads the
    whole table.
    """

    def __init__(self, db: str | Path | DbBackend, table: str = "dirty"):
        self.backend = resolve_backend(db)
        self.table = table

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        db: str | Path | DbBackend,
        relation: Relation,
        table: str = "dirty",
    ) -> "DirtyTable":
        """Write ``relation`` as a fresh table (replacing any old one)."""
        self = cls(db, table)
        q = self.backend.quote
        cols = ", ".join(q(n) for n in relation.schema.names)
        marks = ", ".join("?" for _ in relation.schema.names)
        rows = relation.raw_tuples()
        for pos, row in enumerate(rows):
            for v in row:
                require_db_scalar(v, f"dirty row {pos}")
        conn = self.backend.connect()
        try:
            conn.execute("BEGIN")
            conn.execute(f"DROP TABLE IF EXISTS {q(table)}")
            conn.execute(f"CREATE TABLE {q(table)} ({cols})")
            executemany(
                conn, f"INSERT INTO {q(table)} ({cols}) VALUES ({marks})", rows
            )
            conn.execute("COMMIT")
        finally:
            conn.close()
        return self

    # -- shape -------------------------------------------------------------

    def columns(self, conn) -> list[str]:
        cols = self.backend.table_columns(conn, self.table)
        if not cols:
            raise DirtyDataError(
                f"no table {self.table!r} in {self.backend.describe()}"
            )
        return cols

    def schema(self, conn) -> Schema:
        """The table's columns as a relation schema (named after the table)."""
        return Schema(self.table, self.columns(conn))

    def count(self, conn) -> int:
        q = self.backend.quote
        (n,) = conn.execute(f"SELECT COUNT(*) FROM {q(self.table)}").fetchone()
        return int(n)

    # -- paged reads -------------------------------------------------------

    def pages(
        self,
        conn,
        page_rows: int,
        *,
        schema: Schema | None = None,
        skip_pages: int = 0,
        hashed: bool = False,
    ) -> Iterator[Page]:
        """Stream the table as fixed-size pages, in row-key order.

        ``skip_pages`` seeks past already-committed pages on resume with
        one boundary lookup instead of re-reading them (page boundaries
        are stable across a run: fixes UPDATE in place, never insert or
        delete, so row ``k * page_rows`` stays page ``k``'s first row).
        ``hashed=True`` also gives each page its rows' v2 digest terms,
        hashed as fetched, so such pages ignore ``schema`` and hold the
        columns in declaration order.
        """
        if page_rows < 1:
            raise DirtyDataError(f"page_rows must be >= 1, got {page_rows}")
        q = self.backend.quote
        key = self.backend.row_key
        if schema is None or hashed:
            schema = Schema(self.table, self.columns(conn))
        cols = schema.names
        last = None
        if skip_pages:
            row = conn.execute(
                f"SELECT {key} FROM {q(self.table)} ORDER BY {key} "
                f"LIMIT 1 OFFSET ?",
                (skip_pages * page_rows - 1,),
            ).fetchone()
            if row is None:
                return
            last = row[0]
        for index, rows in enumerate(
            self._keyset(conn, cols, page_rows, last), start=skip_pages
        ):
            keys = tuple(r[0] for r in rows)
            relation = Relation(schema, [tuple(r[1:]) for r in rows])
            yield Page(index, keys, relation, dict(zip(keys, row_hashes(rows))) if hashed else None)

    def _keyset(
        self, conn, cols: Sequence[str], page_rows: int, last: Any = None
    ) -> Iterator[list[tuple]]:
        """Raw ``(row key, *cols)`` rows after key ``last``, in key order,
        ``page_rows`` per fetch."""
        q = self.backend.quote
        key = self.backend.row_key
        select = ", ".join(q(c) for c in cols)
        while True:
            where = "" if last is None else f"WHERE {key} > ?"
            params: tuple = (page_rows,) if last is None else (last, page_rows)
            rows = conn.execute(
                f"SELECT {key}, {select} FROM {q(self.table)} {where} "
                f"ORDER BY {key} LIMIT ?",
                params,
            ).fetchall()
            if not rows:
                return
            yield rows
            if len(rows) < page_rows:
                return
            last = rows[-1][0]
            del rows  # fetch the next batch without holding this one

    def read_relation(self, conn, schema: Schema | None = None) -> Relation:
        """The whole table as one relation (tests and small tables only)."""
        cols = schema.names if schema is not None else self.columns(conn)
        schema = schema if schema is not None else Schema(self.table, cols)
        out = Relation(schema)
        for page in self.pages(conn, _SCAN_ROWS, schema=schema):
            out.extend(page.relation.raw_tuples())
        return out

    # -- identity ----------------------------------------------------------

    def digest(self, conn, *, version: int = 1, limit: int | None = None) -> str:
        """The v1 or v2 table digest by one scan (v2: of the first ``limit``
        rows in key order, all if ``None``).

        Hashes the fetched rows directly — no :class:`Relation` is
        built, since interning every cell buys nothing for a hash."""
        cols = self.columns(conn)
        if version == 2:
            fetched = chain.from_iterable(self._keyset(conn, cols, _SCAN_ROWS))
            return rowsum_digest(columns_term(cols) + sum(row_hashes(islice(fetched, limit))))
        sha = hashlib.sha256()
        sha.update(repr(tuple(cols)).encode("utf-8"))
        for rows in self._keyset(conn, cols, _SCAN_ROWS):
            sha.update("".join(repr((r[0], r[1:])) for r in rows).encode("utf-8"))
            del rows  # one scan batch in memory at a time, not two
        return sha.hexdigest()

    def row_sum(self, conn, keys: Sequence[int]) -> int:
        """The sum of the v2 terms of the rows under ``keys``, read by key.
        A key with no row adds nothing."""
        q = self.backend.quote
        key = self.backend.row_key
        cols = ", ".join(map(q, self.columns(conn)))
        select = f"SELECT {key}, {cols} FROM {q(self.table)}"
        total = 0
        for at in range(0, len(keys), 900):  # under any sqlite's bound on ? marks
            chunk = keys[at : at + 900]
            marks = ", ".join("?" * len(chunk))
            rows = conn.execute(f"{select} WHERE {key} IN ({marks})", chunk).fetchall()
            total += sum(row_hashes(rows))
        return total

    # -- writes ------------------------------------------------------------

    def apply_cell_writes(
        self, conn, writes: Sequence[tuple[int, str, Any]]
    ) -> None:
        """Apply ``(row key, column, value)`` cell writes, one
        ``executemany`` per column. A column's writes keep their order, so
        a cell written twice ends at its last value.

        Runs inside the caller's transaction — the cleaner brackets a
        page's fixes with its archive rows, undo brackets a whole run —
        so a crash can never leave half a batch applied.
        """
        q = self.backend.quote
        key = self.backend.row_key
        by_column: dict[str, list[tuple]] = {}
        for row_key, column, value in writes:
            require_db_scalar(value, f"row {row_key}.{column}")
            by_column.setdefault(column, []).append((value, row_key))
        for column, params in by_column.items():
            executemany(conn, f"UPDATE {q(self.table)} SET {q(column)} = ? WHERE {key} = ?", params)

    def __repr__(self) -> str:
        return f"DirtyTable({self.backend.describe()!r}, table={self.table!r})"
