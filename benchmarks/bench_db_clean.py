"""B7 — DB-native cleaning: the paged sqlite path's archive overhead.

The paged backend (:mod:`repro.dirty`) streams a sqlite table through
the batch pipeline in fixed-size pages and commits every cell fix with
a reversible archive row in ``cerfix_clean_changes``. This bench cleans
one rule-only workload through the in-memory path (``clean_relation``)
and the paged path (``clean_table``), with 1 and with 2 workers, then
undoes each paged run, and records the three times in one row per
worker count: the cost of durability is the paged/memory ratio, and
``paged vs 1 worker`` is the paged time over the 1-worker row's. Each
time is the median of ``REPEAT`` runs, with the spread (slowest minus
fastest); the repeats alternate between the two worker counts so drift
in the machine's speed hits both rows. Output is asserted bit-identical
between the paths, with one archive row per changed cell, and every
undo must restore the input table exactly. Paged throughput and dry
runs are perfbench's ``db-paged`` workload. Results land in
``benchmarks/out/b7_db_clean.txt`` and ``BENCH_dbclean.json``.
"""

import gc
import os
import statistics
import time

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table
from repro.dirty import ChangeArchive, DirtyTable
from repro.scenarios import uk_customers as uk

QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

ROWS = 200 if QUICK else 5_000
PAGE_ROWS = 64 if QUICK else 512
MASTER_SIZE = 40
RATE = 0.15
VALIDATED = ("zip",)  # rule-only repairs from one trusted column
WORKER_COUNTS = (1, 2)
REPEAT = 3 if QUICK else 5


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _read(db, run_id):
    """The table's rows and the run's archive row count."""
    table = DirtyTable(db)
    conn = table.backend.connect(readonly=True)
    try:
        rows = table.read_relation(conn).raw_tuples()
        return rows, len(ChangeArchive(table).changes(conn, run_id))
    finally:
        conn.close()


def test_db_clean_archive_overhead(tmp_path):
    master = uk.generate_master(MASTER_SIZE, seed=17)
    wl = uk.generate_workload(master, ROWS, rate=RATE, seed=18)
    times = {
        (w, path): [] for w in WORKER_COUNTS for path in ("memory", "paged", "undo")
    }
    last = {}
    for k in range(REPEAT):
        for workers in WORKER_COUNTS:
            engine = CerFix(uk.paper_ruleset(), master)
            seconds, memory = _timed(lambda: engine.clean_relation(
                wl.dirty, validated=VALIDATED, workers=workers
            ))
            times[(workers, "memory")].append(seconds)

            db = tmp_path / f"dirty-{workers}-{k}.db"
            DirtyTable.create(db, wl.dirty)
            engine = CerFix(uk.paper_ruleset(), master)
            seconds, paged = _timed(lambda: engine.clean_table(
                db, page_rows=PAGE_ROWS, validated=VALIDATED, workers=workers
            ))
            times[(workers, "paged")].append(seconds)
            last[workers] = (_read(db, paged.run_id), memory, paged)

            seconds, _ = _timed(lambda: engine.undo(db, paged.run_id))
            times[(workers, "undo")].append(seconds)
            restored, _ = _read(db, paged.run_id)
            assert restored == wl.dirty.raw_tuples(), (
                f"undo did not restore the input table with {workers} worker(s)"
            )

    result = BenchResult(
        "B7 — DB-native cleaning: paged sqlite path vs in-memory path",
        ("rows", "workers", "page rows", "memory s", "memory spread s", "paged s",
         "paged spread s", "undo s", "undo spread s", "paged/memory",
         "paged vs 1 worker", "changed cells", "archive rows"),
        key=("rows", "workers", "page rows"),
    )
    median = {key: statistics.median(ts) for key, ts in times.items()}
    for workers in WORKER_COUNTS:
        (fixed, archive_rows), memory, paged = last[workers]
        assert fixed == memory.relation.raw_tuples(), (
            f"paged output diverged from the in-memory path with {workers} worker(s)"
        )
        assert paged.changed_cells == memory.report.changed_cells
        assert archive_rows == paged.changed_cells
        spread = {path: max(times[(workers, path)]) - min(times[(workers, path)])
                  for path in ("memory", "paged", "undo")}
        result.add(
            ROWS, workers, PAGE_ROWS,
            round(median[(workers, "memory")], 3), round(spread["memory"], 3),
            round(median[(workers, "paged")], 3), round(spread["paged"], 3),
            round(median[(workers, "undo")], 3), round(spread["undo"], 3),
            round(median[(workers, "paged")] / median[(workers, "memory")], 2),
            round(median[(workers, "paged")] / median[(WORKER_COUNTS[0], "paged")], 2),
            paged.changed_cells, archive_rows,
        )
    result.note("paged: one transaction per page (cell fixes, archive rows, progress)")
    result.note("undo: one transaction restoring each paged run, digest-verified")
    result.note(f"times: median of {REPEAT} runs alternating between worker counts; "
                "spread = slowest - fastest")
    save_table(result, "b7_db_clean.txt")
    save_json(result, "BENCH_dbclean.json")
