#!/usr/bin/env python3
"""The CerFix benchmark: one command, four workloads, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the program is imported from
``src/``). Workloads: ``batch-memory``, ``db-paged``, ``batch-remote``,
``entry-service`` (see ``perfbench/README.md``).

A run generates its inputs from the seed in an untimed child process,
sets the workload up several times in a row (``setup_s`` is the median;
all but the last set-up are torn down before the next, and the last one
is the one measured), runs one untimed warm-up iteration, then measures
for ``--seconds``. Times are reported in reference seconds: wall time
scaled by the host's speed, read from a fixed loop timed on both sides
of every set-up and operation (see ``perfbench/calib.py``). Every
iteration is checked against the reference output; a mismatch fails the
run without numbers. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` measures half the time untraced, half with span wrappers
installed, and prints the per-layer metrics. The last line of standard
output is the result object; the line before it stamps the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sqlite3
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-ups timed per run (``--trace 0``), one after the other.
SETUP_REPS = 9
#: Spans of the last traced iteration written to the trace file.
TRACE_SPANS_KEPT = 50_000
#: Layer self times + unattributed must match the clocked time this closely.
SELF_TIME_TOLERANCE = 0.05


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prep-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    # The program's own tracing and page-size overrides stay off.
    for key in [k for k in os.environ if k.startswith("CERFIX_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.prep_into is not None:
        ref = workload.prep(args.seed, args.prep_into)
        (args.prep_into / "ref.json").write_text(json.dumps(ref))
        return 0

    # One CPU for the whole run (the prep child inherits it): the
    # workloads' threads hand the interpreter lock and their sockets to
    # each other in turn, and a handoff between the CPUs of a shared VM
    # costs a varying wake-up that measures the host, not the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Temporary files (sqlite's included) stay inside the checkout too.
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(work)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(args.seed), "--prep-into", str(work)],
            check=True, timeout=170,
        )
        return _run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, args, work: Path) -> int:
    from calib import kernel_seconds, reference_seconds
    from measure import OpCounter, median
    from tracer import Recorder
    from workloads import Mismatch

    ref = json.loads((work / "ref.json").read_text())
    rec = Recorder()
    ops = OpCounter()
    stamp = _stamp(workload, args, work)
    handle = None
    setup_s: list[float] = []
    setup_wall_s: list[float] = []

    def timed_setup():
        gc.collect()  # every rep starts from a collected heap
        kernel_before = kernel_seconds()
        start = time.perf_counter()
        fresh = workload.setup(work)
        wall = time.perf_counter() - start
        setup_s.append(reference_seconds(wall, kernel_before, kernel_seconds()))
        setup_wall_s.append(wall)
        return fresh

    try:
        if ref["truth_mismatch"]:
            raise Mismatch(f"reference against the ground truth: {ref['truth_mismatch']}")
        # Only one set-up is alive at a time, so the earlier reps neither
        # slow the later ones (a larger heap to collect) nor lift the
        # peak RSS, which is read after the measured iterations.
        for _ in range(SETUP_REPS - 1 if not args.trace else 0):
            workload.teardown(timed_setup())
        handle = timed_setup()
        warm_up = getattr(workload, "warm_up", None)
        if warm_up is not None:
            warm_up(handle, ref, rec)
        else:
            workload.iteration(handle, ref, OpCounter(), rec)

        if args.trace:
            metrics, iterations = _traced(workload, handle, ref, ops, rec, args, stamp)
        else:
            results = _measure(workload, handle, ref, ops, rec, args.seconds)
            iterations = len(results)
            stamp["setup_s_by_rep"] = setup_s
            stamp["setup_wall_s_by_rep"] = setup_wall_s
            stamp["rows_per_s_by_iteration"] = {
                op: [r.rates[op] for r in results] for op in results[0].rates}
            metrics = {
                "setup_s": (median(setup_s), "s"),
                "clean_rows_per_s": (median([r.rates["clean"] for r in results]), "rows/s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    except Mismatch as exc:
        print(f"perfbench: correctness gate failed on {workload.name}: {exc}", file=sys.stderr)
        _emit(stamp, {"correct": False, "attempted": max(1, ops.attempted),
                      "failed": ops.failed, "metrics": {}})
        return 1
    finally:
        if handle is not None:
            workload.teardown(handle)
    stamp["iterations"] = iterations
    _emit(stamp, {
        "correct": True,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    })
    return 0


def _measure(workload, handle, ref, ops, rec, seconds: float) -> list:
    """Iterate until ``seconds`` have passed (at least once). A raised
    operation is counted as failed and the loop goes on."""
    from workloads import OpFailed

    results = []
    start = time.perf_counter()
    tried = 0
    while tried == 0 or time.perf_counter() - start < seconds:
        tried += 1
        gc.collect()  # a collection owed by earlier work is not this iteration's cost
        try:
            results.append(workload.iteration(handle, ref, ops, rec))
        except OpFailed:
            traceback.print_exc(file=sys.stderr)
    if not results:
        raise RuntimeError(f"every one of {tried} iterations failed")
    return results


def _traced(workload, handle, ref, ops, rec, args, stamp):
    """Half the time untraced, half traced; per-layer metrics averaged
    over the traced iterations."""
    from measure import median, partition_gap, rollup, tail_percentile
    from tracer import LAYER_OF, install

    untraced = _measure(workload, handle, ref, ops, rec, args.seconds / 2)
    uninstall = install(rec)
    rows, traced_s, last_spans = [], [], []
    try:
        deadline = time.perf_counter() + args.seconds / 2
        while not rows or time.perf_counter() < deadline:
            before = workload.counters(handle)
            gc.collect()
            rec.active = True
            try:
                result = workload.iteration(handle, ref, ops, rec)
            finally:
                rec.active = False
            after = workload.counters(handle)
            spans, captured = rec.take()
            roll = rollup(spans, LAYER_OF)
            delta = {k: after[k] - before.get(k, 0) for k in after}
            row = layer_metrics(roll, captured, delta, result)
            gap = partition_gap(roll, row["trace.thread_s"][0])
            if gap > SELF_TIME_TOLERANCE:
                raise RuntimeError(
                    f"self times + unattributed ({roll.attributed_s:.4f}s) are {gap:.1%} off "
                    f"the clocked thread time ({row['trace.thread_s'][0]:.4f}s)")
            rows.append(row)
            traced_s.append(result.seconds)
            last_spans = spans
    finally:
        uninstall()

    out = {name: (sum(r[name][0] for r in rows) / len(rows), rows[0][name][1])
           for name in rows[0]}
    out["trace_overhead_frac"] = (
        median(traced_s) / median([r.seconds for r in untraced]) - 1.0, "ratio")
    out["failed_ops_frac"] = (ops.failed_frac, "ratio")

    # End-to-end figures only some workloads have, from the untraced half.
    def rate(op):
        values = [r.rates[op] for r in untraced if op in r.rates]
        return median(values) if values else 0.0

    out["dirty.dry_run_rows_per_s"] = (rate("dry_run"), "rows/s")
    out["dirty.undo_rows_per_s"] = (rate("undo"), "rows/s")
    latencies = [ms for r in untraced for ms in r.latencies_ms]
    tail = tail_percentile(latencies) if latencies else None
    out["service.request_samples"] = (len(latencies), "count")
    out["service.request_p50_ms"] = (median(latencies) if latencies else 0.0, "ms")
    out["service.request_tail_pct"] = (tail[0] if tail else 0.0, "pct")
    out["service.request_tail_ms"] = (tail[1] if tail else 0.0, "ms")

    path = WORK_ROOT / f"trace-{workload.name}.jsonl"
    stamp["trace_file"] = str(path.relative_to(ROOT))
    stamp["trace_spans_written"] = rec.write(last_spans, path, TRACE_SPANS_KEPT)
    stamp["trace_spans_recorded"] = len(last_spans)
    return out, len(untraced) + len(rows)


def layer_metrics(roll, captured: dict, delta: dict, result) -> dict:
    """Per-layer metrics of one traced iteration: ``name -> (value, unit)``."""
    from tracer import LAYERS

    reports = [r.report for r in
               captured.get("batch.pipeline.clean", []) + captured.get("dirty.page_clean", [])]
    tuples = sum(r.tuples for r in reports)
    groups = sum(r.groups for r in reports)
    hits = sum(r.cache.hits for r in reports)
    misses = sum(r.cache.misses for r in reports)
    shard_busy = sum(s.elapsed_seconds for r in reports for s in r.shards if not s.resumed)
    workers = reports[0].workers if reports else 0
    clean_s = roll.total("batch.pipeline.clean", "dirty.page_clean")
    plan_s = roll.total("batch.planner.plan")
    run_s = roll.total("batch.executor.run")
    memoized = roll.count("core.chase.memoized")
    archive_rows = sum(captured.get("dirty.archive_write", []))
    route_s = roll.total("service.route")
    handle_s = roll.total("service.handle")
    svc_probes = delta.get("cache_hits", 0) + delta.get("cache_misses", 0)
    memo_probes = delta.get("memo_hits", 0) + delta.get("memo_misses", 0)
    trips = delta.get("round_trips", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "batch.planner.plan_s": (plan_s, "s"),
        "batch.planner.rows_per_group": (ratio(tuples, groups), "rows"),
        "batch.executor.run_s": (run_s, "s"),
        "batch.executor.busy_frac": (ratio(shard_busy, workers * run_s), "ratio"),
        "batch.pipeline.assemble_s": (clean_s - plan_s - run_s if reports else 0.0, "s"),
        "monitor.suggest_s": (roll.total("monitor.suggest"), "s"),
        "monitor.suggest_calls": (roll.count("monitor.suggest"), "count"),
        "monitor.suggest_memo_hit_ratio": (ratio(delta.get("memo_hits", 0), memo_probes), "ratio"),
        "core.chase.chase_s": (
            roll.self_time("core.chase.chase", "core.chase.memoized", "core.chase.inner"), "s"),
        "core.chase.calls": (roll.count("core.chase.chase", "core.chase.memoized"), "count"),
        "core.chase.memo_hit_ratio": (
            1.0 - roll.count("core.chase.inner") / memoized if memoized else 0.0, "ratio"),
        "batch.cache.lookups": (roll.count("batch.cache.match"), "count"),
        "batch.cache.match_s": (roll.total("batch.cache.match"), "s"),
        "batch.cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "batch.cache.evictions": (sum(r.cache.evictions for r in reports), "count"),
        "master.store.probes": (roll.count("master.store.probe"), "count"),
        "master.store.probe_s": (roll.total("master.store.probe"), "s"),
        "master.remote.rpc_s": (
            roll.self_time("master.remote.probe", "master.remote.probe_many"), "s"),
        "master.remote.round_trips": (trips, "count"),
        "master.remote.retries": (delta.get("retries", 0), "count"),
        "master.remote.errors": (delta.get("errors", 0), "count"),
        "master.remote.failovers": (delta.get("failovers", 0), "count"),
        "master.remote.probes_per_trip": (ratio(delta.get("probes", 0), trips), "ratio"),
        "dirty.page_read_s": (roll.total("dirty.page_read"), "s"),
        "dirty.page_clean_s": (roll.total("dirty.page_clean"), "s"),
        "dirty.cell_write_s": (roll.total("dirty.cell_write"), "s"),
        "dirty.archive_write_s": (roll.total("dirty.archive_write"), "s"),
        "dirty.archive_read_s": (roll.total("dirty.archive_read"), "s"),
        "dirty.digest_s": (roll.total("dirty.digest"), "s"),
        "dirty.commit_s": (roll.total("dirty.commit"), "s"),
        "batch.journal.record_s": (roll.total("batch.journal.record"), "s"),
        "dirty.pages": (roll.count("dirty.page_clean"), "count"),
        "dirty.archive_rows": (archive_rows, "count"),
        "dirty.bytes_per_change": (ratio(result.file_growth_bytes, archive_rows), "bytes"),
        "service.handle_s": (handle_s, "s"),
        "service.route_s": (roll.self_time("service.route"), "s"),
        "service.dispatch_wait_s": (handle_s - route_s if handle_s else 0.0, "s"),
        "service.transport_s": (
            roll.total("client.request") - handle_s if handle_s else 0.0, "s"),
        "service.requests": (delta.get("requests", 0), "count"),
        "service.rejected": (delta.get("rejected", 0), "count"),
        "service.probe_cache_hit_ratio": (ratio(delta.get("cache_hits", 0), svc_probes), "ratio"),
        "service.coalesced": (delta.get("coalesced", 0), "count"),
    }
    layer_sum = 0.0
    for layer in LAYERS:
        own = roll.self_by_layer.get(layer, 0.0)
        layer_sum += own
        m[f"{layer}.self_s"] = (own, "s")
    m["trace.layer_self_s"] = (layer_sum, "s")
    m["unattributed_s"] = (
        sum(v for k, v in roll.self_by_layer.items() if k not in LAYERS), "s")
    # Clocks that do not depend on the wrappers: the benchmark's own
    # operation timers, and each shard's ``elapsed_seconds`` when shards
    # ran on worker threads (with one worker they run inside the timed
    # operation). The entry service's executor threads have no clock of
    # their own; their route spans stand in.
    worker_threads_s = shard_busy if workers > 1 else 0.0
    m["trace.thread_s"] = (
        result.clocked_s + worker_threads_s + roll.roots.get("service.route", 0.0), "s")
    return m


def _stamp(workload, args, work: Path) -> dict:
    probe = work / "pragma.db"
    conn = sqlite3.connect(probe)
    try:
        journal_mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = conn.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        conn.close()
    probe.unlink(missing_ok=True)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "master_size": workload.master_size,
        "rows": workload.rows,
        "machine": {"cpus": os.cpu_count() or 0},
        "python": list(sys.version_info[:3]),
        "platform": platform.platform(),
        "sqlite": {
            "version": list(sqlite3.sqlite_version_info),
            # sqlite defaults, left unchanged: rollback journal, synchronous=FULL (2)
            "journal_mode": journal_mode,
            "synchronous": synchronous,
        },
    }


def _emit(stamp: dict, result: dict) -> None:
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    (WORK_ROOT / f"last-{stamp['workload']}.json").write_text(
        json.dumps({"stamp": stamp, "result": result}, indent=1))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
