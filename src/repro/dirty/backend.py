"""The DB-API seam under the dirty-relation subsystem.

The paged cleaner (:mod:`repro.dirty.cleaner`) never speaks SQL
dialects directly: everything it needs from a database is pinned down
here as a tiny backend interface — open a (possibly read-only) DB-API
connection, quote an identifier, list a table's columns, and name the
integer row-key expression pages stream by. SQLite is the first
implementation; a postgres/mysql backend slots in by subclassing
:class:`DbBackend` (qmark→format paramstyle translation and a
``bigserial``/``AUTO_INCREMENT`` key column instead of ``rowid``)
without touching the paging, archive or undo logic above it.

SQLite's writable connections run the rollback journal in ``PERSIST``
mode. The default ``DELETE`` mode creates and unlinks ``<db>-journal``
on every commit, and on a filesystem mounted with ``discard`` each
unlink that frees blocks costs a synchronous TRIM — tens of
milliseconds, far more than the commit's own fsyncs. ``PERSIST`` keeps
the file and zeroes its header at commit instead, so a committing clean
frees no disk blocks. ``synchronous`` stays ``FULL``: durability and
atomicity are those of the default mode. Read-only connections are left
alone, and a database already in ``WAL`` mode stays in it (WAL is a
persistent file-format change, a read-only open of a WAL database needs
its ``-shm`` file, and the last close deletes the ``-wal`` file).
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Sequence

from repro.errors import DirtyDataError


def require_db_scalar(value: Any, context: str) -> None:
    """Reject cell values that do not round-trip a SQL column losslessly.

    Stricter than the master snapshot's JSON gate: SQL columns store
    booleans as integers, so ``True`` would come back as ``1`` — a
    silent type change the bit-identical guarantee cannot absorb. A NaN
    float is stored as NULL and would come back as ``None``.
    """
    if value is None or type(value) in (str, int) or (type(value) is float and value == value):
        return
    raise DirtyDataError(
        f"cannot store cell value {value!r} ({context}): only str/int/None and "
        f"non-NaN floats round-trip a database column losslessly"
    )


class DbBackend:
    """Abstract database backend: the operations paging and undo need."""

    name = "abstract"

    #: SQL expression selecting the stable integer row key. Updates and
    #: archive rows address cells by it, so it must never change under
    #: UPDATE (sqlite's ``rowid`` has exactly that property).
    row_key = "rowid"

    def connect(self, *, readonly: bool = False):
        """A DB-API connection; ``readonly`` must make every write fail."""
        raise NotImplementedError

    def quote(self, ident: str) -> str:
        """Quote one identifier for this dialect."""
        return '"' + ident.replace('"', '""') + '"'

    def table_columns(self, conn, table: str) -> list[str]:
        """Column names of ``table`` in declaration order (empty = no table)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class SqliteBackend(DbBackend):
    """SQLite: the dirty table, change archive and run records share one
    file, so a clean run and its reversibility travel together."""

    name = "sqlite"

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def connect(self, *, readonly: bool = False) -> sqlite3.Connection:
        if readonly:
            if not self.path.exists():
                raise DirtyDataError(f"no dirty database at {self.path}")
            # URI mode=ro: any write attempt raises OperationalError, so a
            # dry run provably cannot alter the file.
            conn = sqlite3.connect(f"file:{self.path}?mode=ro", uri=True)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path)
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
            if mode != "wal":
                conn.execute("PRAGMA journal_mode=PERSIST")
        # Explicit transaction control: the cleaner brackets each page
        # (dirty updates + archive rows + progress) in one transaction.
        conn.isolation_level = None
        return conn

    def table_columns(self, conn, table: str) -> list[str]:
        rows = conn.execute(f"PRAGMA table_info({self.quote(table)})").fetchall()
        return [r[1] for r in rows]

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def __repr__(self) -> str:
        return f"SqliteBackend({str(self.path)!r})"


def resolve_backend(db: str | Path | DbBackend) -> DbBackend:
    """A path becomes the sqlite backend; a backend passes through —
    the one place configuration surfaces (CLI ``--db``, the instance
    document's ``dirty`` section) are mapped onto the seam."""
    if isinstance(db, DbBackend):
        return db
    return SqliteBackend(db)


def executemany(conn, sql: str, rows: Sequence[tuple]) -> None:
    """``executemany`` with the empty-batch no-op every dialect wants."""
    if rows:
        conn.executemany(sql, rows)
