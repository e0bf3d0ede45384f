"""B7 — DB-native cleaning: the paged sqlite path's archive overhead.

The paged backend (:mod:`repro.dirty`) streams a sqlite table through
the batch pipeline in fixed-size pages and commits every cell fix with
a reversible archive row in ``cerfix_clean_changes``. This bench cleans
one rule-only workload through the in-memory path (``clean_relation``)
and the paged path (``clean_table``) and records both times in one row:
the cost of durability is their ratio. Output is asserted bit-identical
between the paths, with one archive row per changed cell. Paged
throughput, dry run and undo are perfbench's ``db-paged`` workload.
Results land in ``benchmarks/out/b7_db_clean.txt`` and
``BENCH_dbclean.json``.
"""

import os

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.dirty import ChangeArchive, DirtyTable
from repro.scenarios import uk_customers as uk

QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

ROWS = 200 if QUICK else 5_000
PAGE_ROWS = 64 if QUICK else 512
MASTER_SIZE = 40
RATE = 0.15
VALIDATED = ("zip",)  # rule-only repairs from one trusted column
WORKERS = 2


def test_db_clean_archive_overhead(tmp_path):
    master = uk.generate_master(MASTER_SIZE, seed=17)
    wl = uk.generate_workload(master, ROWS, rate=RATE, seed=18)

    def memory_once():
        engine = CerFix(uk.paper_ruleset(), master)
        return engine.clean_relation(wl.dirty, validated=VALIDATED, workers=WORKERS)

    t_memory, memory = time_call(memory_once, repeat=1)

    db = tmp_path / "dirty.db"
    DirtyTable.create(db, wl.dirty)

    def paged_once():
        engine = CerFix(uk.paper_ruleset(), master)
        return engine.clean_table(
            db, page_rows=PAGE_ROWS, validated=VALIDATED, workers=WORKERS
        )

    t_paged, paged = time_call(paged_once, repeat=1)
    dirty_table = DirtyTable(db)
    conn = dirty_table.backend.connect(readonly=True)
    try:
        fixed = dirty_table.read_relation(conn)
        archive_rows = len(ChangeArchive(dirty_table).changes(conn, paged.run_id))
    finally:
        conn.close()

    result = BenchResult(
        "B7 — DB-native cleaning: paged sqlite path vs in-memory path",
        ("rows", "workers", "page rows", "memory s", "paged s",
         "paged/memory", "changed cells", "archive rows"),
        key=("rows", "workers", "page rows"),
    )
    result.add(ROWS, WORKERS, PAGE_ROWS, round(t_memory, 3), round(t_paged, 3),
               round(t_paged / t_memory, 2), paged.changed_cells, archive_rows)
    result.note("paged: one transaction per page (cell fixes, archive rows, progress)")
    save_table(result, "b7_db_clean.txt")
    save_json(result, "BENCH_dbclean.json")

    assert fixed.raw_tuples() == memory.relation.raw_tuples(), (
        "paged output diverged from the in-memory path"
    )
    assert paged.changed_cells == memory.report.changed_cells
    assert archive_rows == paged.changed_cells
