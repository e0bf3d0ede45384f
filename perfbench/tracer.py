"""Span wrappers for the traced run.

:func:`install` replaces functions of the program, on the module or
class their callers look them up from, with wrappers that record a
:class:`~measure.Span` (name, start, end, parent, thread) per call into
a :class:`Recorder`; the function it returns puts the originals back.
Spans stay in memory; the run rolls them up per iteration and writes
the last iteration's spans out at the end. The program's own
``repro.obs.trace`` is not used.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

from measure import Span

#: Layer of every span name the wrappers and the workloads record. Bench
#: root spans (``op.*``, ``client.request``) are the unattributed bucket.
LAYER_OF = {
    "batch.planner.plan": "batch.planner",
    "batch.pipeline.clean": "batch.pipeline",
    "dirty.page_clean": "batch.pipeline",
    "batch.executor.run": "batch.executor",
    "batch.shard.run": "batch.shard",
    "monitor.suggest": "monitor",
    "core.chase.chase": "core.chase",
    "core.chase.memoized": "core.chase",
    "core.chase.inner": "core.chase",
    "batch.cache.match": "batch.cache",
    "master.store.probe": "master.store",
    "master.remote.probe": "master.remote",
    "master.remote.probe_many": "master.remote",
    "dirty.clean_table": "dirty",
    "dirty.undo": "dirty",
    "dirty.page_read": "dirty",
    "dirty.digest_read": "dirty",
    "dirty.cell_write": "dirty",
    "dirty.digest": "dirty",
    "dirty.archive_write": "dirty",
    "dirty.archive_read": "dirty",
    "dirty.commit": "dirty",
    "batch.journal.record": "batch.journal",
    "service.handle": "service",
    "service.route": "service",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Recorder:
    """In-memory span sink; records only while :attr:`active`."""

    def __init__(self):
        self.spans: list[Span] = []
        #: span name -> return values of the calls wrapped with capture
        self.results: dict[str, list[Any]] = defaultdict(list)
        self.active = False
        self._local = threading.local()

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (a root of the unattributed bucket)."""
        if not self.active:
            yield
            return
        stack = self.stack()
        s = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                 threading.get_ident())
        stack.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    @contextmanager
    def paused(self):
        """Record nothing inside (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def take(self) -> tuple[list[Span], dict[str, list[Any]]]:
        """Hand over and reset what was recorded so far."""
        spans, results = self.spans, self.results
        self.spans, self.results = [], defaultdict(list)
        return spans, results

    # -- wrapper factories -------------------------------------------------

    def wrap(self, fn: Callable, name: str | Callable, capture: bool = False) -> Callable:
        """A synchronous wrapper; ``name`` may be a function of the call's
        ``(args, kwargs)`` returning the span name."""
        rec = self
        clock = time.perf_counter
        ident = threading.get_ident
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            stack = rec.stack()
            s = Span(name_of(args, kwargs) if name_of else name, clock(), 0.0,
                     stack[-1] if stack else None, ident())
            stack.append(s)
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = clock()
                stack.pop()
                rec.spans.append(s)
            if capture:
                rec.results[s.name].append(result)
            return result

        return wrapper

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine wrapper. Concurrent coroutines interleave on one
        thread, so these spans stay off the thread stack (thread None)."""
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not rec.active:
                return await fn(*args, **kwargs)
            s = Span(name, clock(), 0.0, None, None)
            try:
                return await fn(*args, **kwargs)
            finally:
                s.end = clock()
                rec.spans.append(s)

        return wrapper

    def wrap_pages(self, fn: Callable) -> Callable:
        """``DirtyTable.pages``: one span per step of the iterator, named
        ``dirty.digest_read`` when the digest is the one reading."""
        rec = self
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pages = fn(*args, **kwargs)
            if not rec.active:
                return pages

            def steps():
                while True:
                    stack = rec.stack()
                    parent = stack[-1] if stack else None
                    name = (
                        "dirty.digest_read"
                        if parent is not None and parent.name == "dirty.digest"
                        else "dirty.page_read"
                    )
                    s = Span(name, clock(), 0.0, parent, ident())
                    stack.append(s)
                    try:
                        page = next(pages)
                    except StopIteration:
                        return
                    finally:
                        s.end = clock()
                        stack.pop()
                        rec.spans.append(s)
                    yield page

            return steps()

        return wrapper

    def wrap_connect(self, fn: Callable) -> Callable:
        """``SqliteBackend.connect``: the connection comes back behind a
        proxy that records each ``COMMIT`` statement as ``dirty.commit``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _CommitTimedConnection(fn(*args, **kwargs), rec)

        return wrapper

    # -- output ------------------------------------------------------------

    @staticmethod
    def write(spans: list[Span], path: Path, limit: int) -> int:
        """Write up to ``limit`` spans as JSON lines; returns the count."""
        index = {id(s): i for i, s in enumerate(spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        kept = spans[:limit]
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(kept):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps({
                    "i": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": parent, "thread": s.thread,
                }) + "\n")
        return len(kept)


class _CommitTimedConnection:
    """A DB-API connection proxy timing ``COMMIT`` statements."""

    def __init__(self, conn, recorder: Recorder):
        self._conn = conn
        self._commit = recorder.wrap(conn.execute, "dirty.commit")

    def execute(self, sql, *params):
        if sql == "COMMIT":
            return self._commit(sql, *params)
        return self._conn.execute(sql, *params)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _batch_clean_name(args, kwargs) -> str:
    # The paged cleaner calls BatchCleaner.clean once per page, with
    # root_span=False; every other caller cleans a whole relation.
    return "dirty.page_clean" if kwargs.get("root_span") is False else "batch.pipeline.clean"


def install(rec: Recorder) -> Callable[[], None]:
    """Install every wrapper; returns the function that removes them."""
    # Modules by their full name: package __init__s re-export functions
    # under the same names (repro.core.chase is also a function there).
    cache, executor, journal, pipeline, core_chase, session = (
        importlib.import_module(f"repro.{m}") for m in (
            "batch.cache", "batch.executor", "batch.journal", "batch.pipeline",
            "core.chase", "monitor.session"))
    from repro.dirty.archive import ChangeArchive
    from repro.dirty.backend import SqliteBackend
    from repro.dirty.table import DirtyTable
    from repro.engine import CerFix
    from repro.master.remote import RemoteMasterStore
    from repro.master.store import SingleRelationStore
    from repro.service.app import AsyncCerFixService, RoutingCore

    plan = [
        (pipeline, "build_plan", lambda f: rec.wrap(f, "batch.planner.plan")),
        (pipeline.BatchCleaner, "clean", lambda f: rec.wrap(f, _batch_clean_name, capture=True)),
        (executor.ShardExecutor, "run", lambda f: rec.wrap(f, "batch.executor.run")),
        # Not public, but it is what the executor submits per shard: its
        # span makes worker-thread time outside suggest/chase visible.
        (executor, "_run_shard", lambda f: rec.wrap(f, "batch.shard.run")),
        (session, "compute_suggestion", lambda f: rec.wrap(f, "monitor.suggest")),
        (session, "chase", lambda f: rec.wrap(f, "core.chase.chase")),
        (session, "chase_memoized", lambda f: rec.wrap(f, "core.chase.memoized")),
        (core_chase, "chase", lambda f: rec.wrap(f, "core.chase.inner")),
        (cache.CachingMasterDataManager, "match", lambda f: rec.wrap(f, "batch.cache.match")),
        (SingleRelationStore, "probe", lambda f: rec.wrap(f, "master.store.probe")),
        (RemoteMasterStore, "probe", lambda f: rec.wrap(f, "master.remote.probe")),
        (RemoteMasterStore, "probe_many", lambda f: rec.wrap(f, "master.remote.probe_many")),
        (CerFix, "clean_table", lambda f: rec.wrap(f, "dirty.clean_table")),
        (CerFix, "undo", lambda f: rec.wrap(f, "dirty.undo")),
        (DirtyTable, "pages", rec.wrap_pages),
        (DirtyTable, "apply_cell_writes", lambda f: rec.wrap(f, "dirty.cell_write")),
        (DirtyTable, "digest", lambda f: rec.wrap(f, "dirty.digest")),
        (ChangeArchive, "record_page", lambda f: rec.wrap(f, "dirty.archive_write", capture=True)),
        (ChangeArchive, "changes", lambda f: rec.wrap(f, "dirty.archive_read")),
        (SqliteBackend, "connect", rec.wrap_connect),
        (journal.CheckpointJournal, "record", lambda f: rec.wrap(f, "batch.journal.record")),
        (AsyncCerFixService, "handle", lambda f: rec.wrap_async(f, "service.handle")),
        (RoutingCore, "handle", lambda f: rec.wrap(f, "service.route")),
    ]
    originals = []
    for owner, attr, make in plan:
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return uninstall
