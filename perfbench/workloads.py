"""The four workloads: inputs, reference outputs, set-up and one iteration.

Every workload runs the paper's UK-customers scenario
(``uk.paper_ruleset()``, ``uk.generate_master``, ``uk.generate_workload``
at error rate 0.15). :meth:`prep` runs untimed in a child process: it
writes the generated inputs to CSV or sqlite files and the reference
output to ``ref.json``. The timed process only ever reads those files.
An iteration raises :class:`Mismatch` when an output differs from the
reference.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import shutil
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any
from urllib.parse import urlparse

from repro import CerFix
from repro.audit.log import AuditLog
from repro.dirty import DirtyTable
from repro.master.shardserver import ShardCluster
from repro.obs.metrics import get_registry
from repro.relational.csvio import read_csv, write_csv
from repro.scenarios import uk_customers as uk

from calib import kernel_seconds, reference_seconds
from measure import OpCounter
from tracer import Recorder

ERROR_RATE = 0.15
# One worker: the executor's serial path (plan, shards, suggestion,
# chase, cache) without two interpreter-lock-bound threads handing the
# lock back and forth, which on a shared 2-CPU host measures the
# scheduler (a workers=2 clean was ~1.75x slower there, and noisier).
WORKERS = 1
VALIDATED = ("zip",)


class Mismatch(Exception):
    """An output differs from the reference computed in prep."""


class OpFailed(Exception):
    """A timed operation raised; its rows are already counted as failed."""


@dataclass
class IterResult:
    """What one timed iteration measured."""

    seconds: float  # reference seconds (see calib) of the iteration's operations
    #: rows per reference second, per operation; "clean" is the headline
    rates: dict[str, float]
    #: Σ wall seconds the benchmark clocked on the threads it drives
    #: itself: the operations, or on the entry service each client's
    #: requests (the clients overlap, so this can exceed the wall time)
    clocked_s: float
    latencies_ms: list[float] = field(default_factory=list)
    file_growth_bytes: int = 0


def relation_digest(rows) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(tuple(row)).encode("utf-8"))
    return sha.hexdigest()


def _timed(rec: Recorder, ops: OpCounter, op: str, rows: int, fn, *args, **kwargs):
    """Run one operation under a root span, between two readings of the
    host's speed; returns ``(reference seconds, wall seconds, result)``.
    A raised call counts its rows as failed and raises :class:`OpFailed`."""
    kernel_before = kernel_seconds()
    start = time.perf_counter()
    try:
        with rec.span(f"op.{op}"):
            result = fn(*args, **kwargs)
    except Exception as exc:
        ops.call(rows, raised=True)
        raise OpFailed(f"{op} raised {exc!r}") from exc
    seconds = time.perf_counter() - start
    ops.call(rows, raised=False)
    return reference_seconds(seconds, kernel_before, kernel_seconds()), seconds, result


def _check(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def _write_inputs(work: Path, seed: int, master_size: int, rows: int) -> tuple:
    """Generate, write and read back master, dirty and truth relations —
    references are computed from what the files hold."""
    master = uk.generate_master(master_size, seed=seed)
    wl = uk.generate_workload(master, rows, rate=ERROR_RATE, seed=seed + 1)
    write_csv(master, work / "master.csv")
    write_csv(wl.dirty, work / "dirty.csv")
    write_csv(wl.clean, work / "truth.csv")
    return _read(work, "master"), _read(work, "dirty"), _read(work, "truth")


def _truth_mismatch(dirty, fixed, truth, validated: tuple[str, ...] = ()) -> str | None:
    """Check a reference against the generator's ground truth, so the
    gate does not rest on two paths of one program agreeing.

    With the oracle user (no ``validated``) every row must equal its
    truth row. With rule-only repairs, every cell changed in a row whose
    validated cells are correct must now hold its true value (a wrong
    validated cell licenses a different fix). Returns what differs."""
    names = dirty.schema.names
    trusted = [names.index(a) for a in validated]
    rows = zip(dirty.raw_tuples(), fixed.raw_tuples(), truth.raw_tuples())
    for i, (d_row, f_row, t_row) in enumerate(rows):
        if not validated:
            if f_row != t_row:
                return f"row {i}: fixed {f_row!r}, truth {t_row!r}"
        elif all(d_row[k] == t_row[k] for k in trusted):
            for name, d, f, t in zip(names, d_row, f_row, t_row):
                if d != f and f != t:
                    return f"row {i}.{name}: changed {d!r} to {f!r}, truth {t!r}"
    return None


def _read(work: Path, name: str):
    ruleset = uk.paper_ruleset()
    schema = ruleset.master_schema if name == "master" else ruleset.input_schema
    return read_csv(work / f"{name}.csv", schema)


def _batch_counters() -> dict[str, float]:
    reg = get_registry()
    return {
        "memo_hits": reg.counter_value("cerfix.suggestion_memo.hits"),
        "memo_misses": reg.counter_value("cerfix.suggestion_memo.misses"),
    }


class BatchMemory:
    name = "batch-memory"
    why = ("duplicate-heavy rows from a 40-person master: a few hundred distinct probes fit the "
           "4096-entry probe cache, so planning, suggestion and chase do the work")
    master_size = 40
    rows = 4000

    def prep(self, seed: int, work: Path) -> dict:
        master, dirty, truth = _write_inputs(work, seed, self.master_size, self.rows)
        ref = CerFix(uk.paper_ruleset(), master).clean_relation(dirty, truth, workers=1)
        return {"digest": relation_digest(ref.relation.raw_tuples()),
                "completed": ref.report.completed,
                "truth_mismatch": _truth_mismatch(dirty, ref.relation, truth)}

    def setup(self, work: Path):
        master, dirty, truth = _read(work, "master"), _read(work, "dirty"), _read(work, "truth")
        return SimpleNamespace(engine=CerFix(uk.paper_ruleset(), master), dirty=dirty, truth=truth)

    def teardown(self, h) -> None:
        pass

    def counters(self, h) -> dict[str, float]:
        return _batch_counters()

    def iteration(self, h, ref: dict, ops: OpCounter, rec: Recorder) -> IterResult:
        h.engine.audit = AuditLog()  # each clean starts from an empty audit log
        seconds, wall, result = _timed(rec, ops, "clean", len(h.dirty), h.engine.clean_relation,
                                       h.dirty, h.truth, workers=WORKERS)
        ops.rows_vs_reference(result.report.completed, ref["completed"])
        _check("cleaned relation digest", relation_digest(result.relation.raw_tuples()),
               ref["digest"])
        return IterResult(seconds, {"clean": len(h.dirty) / seconds}, clocked_s=wall)


class DbPaged:
    name = "db-paged"
    why = ("the only writing path: paged sqlite clean over a 4096-row page and a partial one, "
           "dry run and undo; "
           "a 5,000-person master gives more distinct probe keys per page than the probe cache "
           "holds")
    master_size = 5000
    rows = 6144  # a page and a half at the default page size (4096 rows)

    def prep(self, seed: int, work: Path) -> dict:
        master, dirty, truth = _write_inputs(work, seed, self.master_size, self.rows)
        table = DirtyTable.create(work / "template.db", dirty)
        conn = table.backend.connect(readonly=True)
        try:
            pre_digest = table.digest(conn)
        finally:
            conn.close()
        ref = CerFix(uk.paper_ruleset(), master).clean_relation(
            dirty, validated=VALIDATED, workers=1)
        return {"digest": relation_digest(ref.relation.raw_tuples()),
                "changed_cells": ref.report.changed_cells, "pre_digest": pre_digest,
                "truth_mismatch": _truth_mismatch(dirty, ref.relation, truth, VALIDATED)}

    def setup(self, work: Path):
        engine = CerFix(uk.paper_ruleset(), _read(work, "master"))
        return SimpleNamespace(engine=engine, work=work)

    def teardown(self, h) -> None:
        pass

    def counters(self, h) -> dict[str, float]:
        return _batch_counters()

    def iteration(self, h, ref: dict, ops: OpCounter, rec: Recorder) -> IterResult:
        # Every iteration starts from a byte-identical copy of the template.
        db = h.work / "run.db"
        shutil.rmtree(h.work / "run.db.clean-journal", ignore_errors=True)
        shutil.copyfile(h.work / "template.db", db)
        engine, n = h.engine, self.rows

        engine.audit = AuditLog()
        dry_s, dry_wall, dry = _timed(rec, ops, "dry_run", n, engine.clean_table, db,
                                      validated=VALIDATED, workers=WORKERS, dry_run=True)
        engine.audit = AuditLog()
        size_before = db.stat().st_size
        clean_s, clean_wall, run = _timed(rec, ops, "clean", n, engine.clean_table, db,
                                          validated=VALIDATED, workers=WORKERS)
        growth = db.stat().st_size - size_before
        _check("dry-run change count", dry.changed_cells, run.changed_cells)
        _check("changed cells", run.changed_cells, ref["changed_cells"])
        table = DirtyTable(db)
        with rec.paused():
            conn = table.backend.connect(readonly=True)
            try:
                cleaned = relation_digest(table.read_relation(conn).raw_tuples())
            finally:
                conn.close()
        _check("cleaned table digest", cleaned, ref["digest"])

        undo_s, undo_wall, _ = _timed(rec, ops, "undo", n, engine.undo, db, run.run_id)
        with rec.paused():
            conn = table.backend.connect(readonly=True)
            try:
                restored = table.digest(conn)
            finally:
                conn.close()
        _check("table digest after undo", restored, ref["pre_digest"])
        return IterResult(
            dry_s + clean_s + undo_s,
            {"clean": n / clean_s, "dry_run": n / dry_s, "undo": n / undo_s},
            clocked_s=dry_wall + clean_wall + undo_wall,
            file_growth_bytes=growth,
        )


class BatchRemote:
    name = "batch-remote"
    why = ("the only remote path: every probe-cache miss is one loopback round trip to 2 "
           "in-process shard servers over a 2,000-person master")
    master_size = 2000
    rows = 600
    shards = 2

    def prep(self, seed: int, work: Path) -> dict:
        master, dirty, truth = _write_inputs(work, seed, self.master_size, self.rows)
        ref = CerFix(uk.paper_ruleset(), master).clean_relation(
            dirty, validated=VALIDATED, workers=1)
        return {"digest": relation_digest(ref.relation.raw_tuples()),
                "completed": ref.report.completed,
                "truth_mismatch": _truth_mismatch(dirty, ref.relation, truth, VALIDATED)}

    def setup(self, work: Path):
        ruleset = uk.paper_ruleset()
        master, dirty = _read(work, "master"), _read(work, "dirty")
        cluster = ShardCluster.in_process(ruleset, master, self.shards)
        try:
            engine = CerFix(ruleset, master, store="remote", store_urls=list(cluster.urls))
        except BaseException:
            cluster.close()
            raise
        return SimpleNamespace(engine=engine, dirty=dirty, cluster=cluster)

    def teardown(self, h) -> None:
        h.engine.master.store.close()
        h.cluster.close()

    def counters(self, h) -> dict[str, float]:
        per_shard = h.engine.master.store.stats()["per_shard"]
        out = {key: sum(s[key] for s in per_shard)
               for key in ("probes", "round_trips", "retries", "errors", "failovers")}
        out.update(_batch_counters())
        return out

    def iteration(self, h, ref: dict, ops: OpCounter, rec: Recorder) -> IterResult:
        h.engine.audit = AuditLog()
        seconds, wall, result = _timed(rec, ops, "clean", len(h.dirty), h.engine.clean_relation,
                                       h.dirty, validated=VALIDATED, workers=WORKERS)
        ops.rows_vs_reference(result.report.completed, ref["completed"])
        _check("cleaned relation digest", relation_digest(result.relation.raw_tuples()),
               ref["digest"])
        return IterResult(seconds, {"clean": len(h.dirty) / seconds}, clocked_s=wall)


class _Client:
    """One operator: a keep-alive HTTP connection, timing every request
    from encoding its body to decoding the reply."""

    def __init__(self, url: str):
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=30)

    def request(self, method: str, path: str, body: Any) -> tuple[int, Any, float, dict]:
        start = time.perf_counter()
        data = json.dumps(body).encode("utf-8")
        self.conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        raw = response.read()
        payload = json.loads(raw) if raw else None
        seconds = time.perf_counter() - start
        return response.status, payload, seconds, dict(response.getheaders())

    def close(self) -> None:
        self.conn.close()


class EntryService:
    name = "entry-service"
    why = ("operators behind HTTP: a closed loop of 2 keep-alive clients drives monitor sessions "
           "on the async entry service over a 2,000-person master, caches warm")
    master_size = 2000
    rows = 600  # the session pool; the warm-up drives each row once
    clients = 2
    slice_sessions = 200  # sessions per iteration
    max_429_retries = 50

    def prep(self, seed: int, work: Path) -> dict:
        master, dirty, truth = _write_inputs(work, seed, self.master_size, self.rows)
        ref = CerFix(uk.paper_ruleset(), master).clean_relation(dirty, truth, workers=1)
        return {"rows": [[str(v) for v in row] for row in ref.relation.raw_tuples()],
                "truth_mismatch": _truth_mismatch(dirty, ref.relation, truth)}

    def setup(self, work: Path):
        engine = CerFix(uk.paper_ruleset(), _read(work, "master"))
        server = engine.serve_async(port=0)
        try:
            client = _Client(server.url)
            try:
                status, _, _, _ = client.request("GET", "/api/instance", None)
            finally:
                client.close()
            if status != 200:
                raise RuntimeError(f"entry service answered {status} to GET /api/instance")
        except BaseException:
            server.close()
            raise
        return SimpleNamespace(engine=engine, server=server, work=work, pool=None,
                               clients=None, next_row=0, next_id=0)

    def teardown(self, h) -> None:
        if h.pool is not None:
            h.pool.shutdown(wait=True)
        for client in h.clients or ():
            client.close()
        h.server.close()

    def counters(self, h) -> dict[str, float]:
        m = h.server.service.metrics_json()
        return {
            "requests": m["requests"]["total"],
            "rejected": m["requests"]["rejected_429"],
            "cache_hits": m["probe_cache"]["hits"],
            "cache_misses": m["probe_cache"]["misses"],
            "coalesced": m["probes"]["coalesced"],
            "memo_hits": m["suggestion_memo"]["hits"],
            "memo_misses": m["suggestion_memo"]["misses"],
        }

    def warm_up(self, h, ref: dict, rec: Recorder) -> None:
        """Start the clients (reading the session pool is theirs, not
        set-up's), then drive every pool row once, untimed, so caches
        are warm."""
        dirty, truth = _read(h.work, "dirty"), _read(h.work, "truth")
        h.names = dirty.schema.names
        h.rows = [dict(zip(h.names, r)) for r in dirty.raw_tuples()]
        h.truth = [dict(zip(h.names, r)) for r in truth.raw_tuples()]
        h.clients = [_Client(h.server.url) for _ in range(self.clients)]
        h.pool = ThreadPoolExecutor(max_workers=self.clients)
        self._drive(h, list(range(len(h.rows))), ref, OpCounter(), rec)

    def iteration(self, h, ref: dict, ops: OpCounter, rec: Recorder) -> IterResult:
        rows = [(h.next_row + i) % len(h.rows) for i in range(self.slice_sessions)]
        h.next_row = (h.next_row + self.slice_sessions) % len(h.rows)
        kernel_before = kernel_seconds()
        start = time.perf_counter()
        latencies = self._drive(h, rows, ref, ops, rec)
        seconds = reference_seconds(time.perf_counter() - start, kernel_before,
                                    kernel_seconds())
        return IterResult(seconds, {"clean": len(rows) / seconds},
                          clocked_s=sum(latencies) / 1000.0, latencies_ms=latencies)

    def _drive(self, h, rows: list[int], ref: dict, ops: OpCounter, rec: Recorder) -> list[float]:
        queue = deque()
        for index in rows:
            queue.append((index, f"s{h.next_id}"))
            h.next_id += 1
        futures = [h.pool.submit(self._client_loop, client, queue, h, ref, rec)
                   for client in h.clients]
        latencies: list[float] = []
        errors = []
        for future in futures:
            counter, lat, error = future.result()
            ops.merge(counter)
            latencies.extend(lat)
            if error is not None:
                errors.append(error)
        if errors:
            raise errors[0]
        return latencies

    def _client_loop(self, client: _Client, queue: deque, h, ref, rec):
        """Drive sessions until the queue is empty. The first error empties
        the queue (so the other client stops too) and is handed back."""
        ops, latencies = OpCounter(), []
        while True:
            try:
                index, tid = queue.popleft()
            except IndexError:
                return ops, latencies, None
            try:
                state = self._session(client, tid, h.rows[index], h.truth[index], ops,
                                      latencies, rec)
                complete = bool(state and state.get("complete"))
                ops.session(complete)
                if complete:
                    got = [str(state["values"][n]) for n in h.names]
                    _check(f"session {tid} (row {index}) fix", got, ref["rows"][index])
            except Mismatch as exc:
                queue.clear()
                return ops, latencies, exc
            except (OSError, http.client.HTTPException, ValueError) as exc:
                queue.clear()
                ops.call(1, raised=True)
                return ops, latencies, OpFailed(f"session {tid} raised {exc!r}")

    def _session(self, client, tid, values, truth, ops, latencies, rec):
        status, state = self._call(client, "POST", "/api/sessions",
                                   {"tuple_id": tid, "values": values}, ops, latencies, rec)
        if status != 201:
            return None
        while not state["complete"]:
            suggestion = state.get("suggestion")
            if not suggestion:
                return state
            assignments = {a: truth[a] for a in suggestion["attrs"]}
            status, state = self._call(client, "POST", f"/api/sessions/{tid}/validate",
                                       {"assignments": assignments}, ops, latencies, rec)
            if status != 200:
                return None
        return state

    def _call(self, client, method, path, body, ops, latencies, rec):
        """One request; a 429 is a failed operation, retried after the
        server's Retry-After hint (scaled down)."""
        for _ in range(self.max_429_retries):
            with rec.span("client.request"):
                status, payload, seconds, headers = client.request(method, path, body)
            latencies.append(seconds * 1000.0)
            ops.response(status)
            if status != 429:
                return status, payload
            time.sleep(min(1.0, 0.02 * float(headers.get("Retry-After") or 1)))
        return 429, None


WORKLOADS = {w.name: w for w in (BatchMemory(), DbPaged(), BatchRemote(), EntryService())}
