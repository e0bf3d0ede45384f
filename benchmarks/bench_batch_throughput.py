"""B1 — batch throughput: whole-relation cleaning, size x workers.

The batch pipeline (repro.batch) must beat the pre-existing serial
path — one :class:`StreamProcessor` monitor session per tuple, no
dedup, no caching — on whole-relation workloads. This bench sweeps
relation size x worker count over a generated UK-customers workload
with realistic duplication (a small master population re-entering
transactions), and records, per configuration: wall-clock seconds,
tuples/second, speedup over the stream baseline, the planner's dedup
ratio and the probe-cache hit rate (0% here: an in-process store is
probed directly, and its own memo answers repeated probes).

Where the speedup comes from depends on the host: the planner and the
memos cut *work* (each distinct repair signature is resolved once;
each distinct master probe is answered once), which dominates on
the single-core CI runner; on multi-core hosts the shard executor adds
wall-clock parallelism on top. The JSON snapshot (``BENCH_batch.json``
at the repo root) records the machine so trajectories stay comparable.

B2 (same module) adds the ``--store`` axis: raw master-probe throughput
and whole-relation batch throughput per in-process master-store backend
(single vs sqlite — see :mod:`repro.master.store`; the remote store has
its own bench, ``bench_remote_store.py``), recorded in
``BENCH_master_store.json``. Restrict the sweep with
``pytest benchmarks/bench_batch_throughput.py --store sqlite``.
"""

import os

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, save_table, time_call
from repro.master import make_store
from repro.scenarios import uk_customers as uk

#: The CI bench-smoke leg sets CERFIX_BENCH_QUICK=1: a shrunken sweep
#: that still produces (and schema-validates) every BENCH_*.json dump
#: in seconds instead of minutes. Full sweeps are the default.
QUICK = os.environ.get("CERFIX_BENCH_QUICK", "") == "1"

# The full sweep keeps the quick sweep's 300-row point: the committed
# dump then always shares exact (rows, mode, workers) configurations
# with CI's quick run, which is what the regression guard in
# check_bench_json.py compares against.
SIZES = (300,) if QUICK else (300, 1_000, 5_000)
# (workers, the executor path they select): 1 runs serially, N > 1
# runs N worker processes.
WORKER_SWEEP = (
    ((1, "serial"), (2, "process"))
    if QUICK
    else ((1, "serial"), (2, "process"), (4, "process"))
)
MASTER_SIZE = 40  # small population -> realistic signature duplication
RATE = 0.15

# -- B2: the --store axis (single vs sqlite master stores) -------------------
STORE_SWEEP = ("single", "sqlite")
STORE_MASTER_SIZE = 300 if QUICK else 2_000
STORE_PROBE_ROUNDS = 2 if QUICK else 10  # probe repetitions over clean inputs
STORE_BATCH_ROWS = 200 if QUICK else 2_000


@pytest.fixture(scope="module")
def table():
    result = BenchResult(
        "B1 — batch cleaning throughput: relation size x workers",
        ("rows", "mode", "workers", "seconds", "tuples/s", "speedup",
         "dedup", "cache hit rate"),
    )
    yield result
    result.note("speedup is vs the serial per-tuple stream path on the same rows")
    result.note("acceptance: >= 2x at 4 workers on the 5k-row relation")
    save_table(result, "b1_batch_throughput.txt")
    save_json(result, "BENCH_batch.json")


@pytest.fixture(scope="module")
def workloads():
    master = uk.generate_master(MASTER_SIZE, seed=7)
    return master, {
        n: uk.generate_workload(master, n, rate=RATE, seed=8) for n in SIZES
    }


@pytest.mark.parametrize("size", SIZES)
def test_batch_throughput(table, workloads, size):
    master, by_size = workloads
    wl = by_size[size]

    def stream_once():
        return CerFix(uk.paper_ruleset(), master).stream(wl.dirty, wl.clean)

    t_stream, _ = time_call(stream_once, repeat=1)
    table.add(size, "stream", 1, f"{t_stream:.2f}", f"{size / t_stream:.0f}",
              "1.00x", "x1.00", "-")

    serial_rows = None
    for workers, backend in WORKER_SWEEP:
        def batch_once():
            engine = CerFix(uk.paper_ruleset(), master)
            return engine.clean_relation(wl.dirty, wl.clean, workers=workers)

        t_batch, result = time_call(batch_once, repeat=1)
        assert result.report.backend == backend
        if serial_rows is None:
            serial_rows = result.relation.tuples()
        else:
            assert result.relation.tuples() == serial_rows, (
                f"{workers}x{backend} output diverged from serial"
            )
        speedup = t_stream / t_batch
        table.add(
            size,
            f"batch/{backend}",
            workers,
            f"{t_batch:.2f}",
            f"{size / t_batch:.0f}",
            f"{speedup:.2f}x",
            f"x{result.report.dedup_ratio:.2f}",
            f"{result.report.cache.hit_rate:.0%}",
        )
        assert result.report.completed == size
        assert result.report.cache.probes == 0  # in-process: no probe cache
        # The work-cutting layers alone must keep batch ahead of the
        # per-tuple stream path — but only where the host can actually
        # run the workers: on a box with fewer cores than workers the
        # oversubscribed configs pay pure scheduling/pickling overhead
        # against a stream baseline that the columnar core has already
        # made several times faster, so those rows are recorded for the
        # trajectory without being load-bearing.
        if workers <= (os.cpu_count() or 1):
            assert speedup > 1.0, f"batch ({workers} workers) slower than the stream path"


# ---------------------------------------------------------------------------
# B2 — master store backends: probe and batch throughput per --store axis
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def store_table(store_axis):
    result = BenchResult(
        "B2 — master store backends: probe + batch throughput "
        "(single vs sqlite)",
        ("store", "master rows", "probes", "probes/s",
         "batch rows", "batch mode", "seconds", "tuples/s"),
    )
    yield result
    if store_axis != "all":
        # A restricted sweep must not clobber the committed full-table
        # snapshot with a partial one.
        return
    result.note(f"probes repeat the clean inputs {STORE_PROBE_ROUNDS}x against "
                f"every master-sourced rule")
    result.note("acceptance: every backend within 3x of 'single' on raw probes "
                "(parity is asserted functionally by tests/test_store_parity.py)")
    save_table(result, "b2_master_store.txt")
    save_json(result, "BENCH_master_store.json")


@pytest.fixture(scope="module")
def store_workload():
    master = uk.generate_master(STORE_MASTER_SIZE, seed=9)
    probe_inputs = uk.generate_workload(
        master, 100 if QUICK else 500, rate=0.0, seed=10
    ).clean
    batch_wl = uk.generate_workload(master, STORE_BATCH_ROWS, rate=RATE, seed=11)
    return master, probe_inputs, batch_wl


def _build_store(name: str, master, tmp_path):
    if name == "sqlite":
        return make_store(master, name, path=tmp_path / "bench_master.db")
    return make_store(master, name)


@pytest.mark.parametrize("store_name", STORE_SWEEP)
def test_store_throughput(store_table, store_workload, store_axis, store_name, tmp_path):
    if store_axis not in ("all", store_name):
        pytest.skip(f"--store {store_axis} excludes {store_name}")
    master, probe_inputs, batch_wl = store_workload
    ruleset = uk.paper_ruleset()
    rules = [r for r in ruleset if not r.is_constant]
    rows = [r.to_dict() for r in probe_inputs.rows()]

    # raw probe throughput: every master-sourced rule against every input
    store = _build_store(store_name, master, tmp_path)
    store.prebuild(ruleset)

    def probe_once():
        n = 0
        for _ in range(STORE_PROBE_ROUNDS):
            for values in rows:
                for rule in rules:
                    store.probe(rule, values)
                    n += 1
        return n

    t_probe, n_probes = time_call(probe_once, repeat=1)

    # whole-relation batch throughput on the same backend
    def batch_once():
        engine = CerFix(ruleset, _build_store(store_name, master, tmp_path))
        return engine.clean_relation(
            batch_wl.dirty, batch_wl.clean, workers=4
        )

    t_batch, result = time_call(batch_once, repeat=1)
    assert result.report.completed == STORE_BATCH_ROWS

    store_table.add(
        store_name,
        STORE_MASTER_SIZE,
        n_probes,
        f"{n_probes / t_probe:.0f}",
        STORE_BATCH_ROWS,
        "batch/process x4",
        f"{t_batch:.2f}",
        f"{STORE_BATCH_ROWS / t_batch:.0f}",
    )
