"""Batch pipeline wiring: engine facade, audit log, CLI, web API, harness."""

from __future__ import annotations

import json
import os
import urllib.request

import pytest

from repro import CerFix
from repro.bench.harness import BenchResult, save_json, time_call
from repro.explorer.cli import main as cli_main
from repro.relational.csvio import read_csv, write_csv
from repro.scenarios import uk_customers as uk


@pytest.fixture(scope="module")
def workload():
    master = uk.generate_master(15, seed=51)
    wl = uk.generate_workload(master, 25, rate=0.25, seed=52)
    return master, wl


# ---------------------------------------------------------------------------
# Engine facade + audit integration
# ---------------------------------------------------------------------------


def test_engine_clean_relation_fills_audit_log(workload):
    master, wl = workload
    engine = CerFix(uk.paper_ruleset(), master)
    result = engine.clean_relation(wl.dirty, wl.clean, workers=2, shards=4)
    # every row has an audit trail under the stream naming convention
    ids = engine.audit.tuple_ids()
    assert set(ids) == {f"t{i}" for i in range(len(wl.dirty))}
    # provenance sums match the report exactly
    assert (
        sum(1 for e in engine.audit if e.source == "user") == result.report.user_cells
    )
    assert (
        sum(1 for e in engine.audit if e.source == "rule") == result.report.rule_cells
    )
    assert (
        sum(1 for e in engine.audit if e.changed) == result.report.changed_cells
    )


def test_engine_clean_relation_custom_tuple_ids(workload):
    master, wl = workload
    engine = CerFix(uk.paper_ruleset(), master)
    ids = [f"row-{i}" for i in range(len(wl.dirty))]
    engine.clean_relation(wl.dirty, wl.clean, tuple_ids=ids)
    assert set(engine.audit.tuple_ids()) == set(ids)


def test_scenario_mode_process_falls_back_to_serial(workload, tmp_path):
    """A closure scenario cannot cross a process boundary; the pipeline
    must run the plan serially (same output) instead of crashing, and
    the report and the trace must record the serial run."""
    master, wl = workload
    from repro import CertaintyMode
    from repro.obs import trace

    engine = CerFix(
        uk.paper_ruleset(),
        master,
        mode=CertaintyMode.SCENARIO,
        scenario=uk.scenario_tuples(master),
    )
    serial = engine.clean_relation(wl.dirty, wl.clean, workers=1)
    engine2 = CerFix(
        uk.paper_ruleset(),
        master,
        mode=CertaintyMode.SCENARIO,
        scenario=uk.scenario_tuples(master),
    )
    spans = tmp_path / "spans.jsonl"
    trace.configure(spans)
    try:
        result = engine2.clean_relation(wl.dirty, wl.clean, workers=2)
    finally:
        trace.disable()
    assert result.relation.tuples() == serial.relation.tuples()
    assert any("ran serially" in n for n in result.report.notes)
    assert (result.report.workers, result.report.backend) == (1, "serial")
    with open(spans, encoding="utf-8") as f:
        recorded = [json.loads(line) for line in f]
    run = [s for s in recorded if s["name"] == "clean-run"]
    assert [s["attrs"]["backend"] for s in run] == ["serial"]
    assert run[0]["attrs"]["workers"] == 1
    # The plan still follows the request (2 workers x 4 shards), so a
    # journal written for the same command stays valid.
    plan = [s for s in recorded if s["name"] == "plan"]
    assert [s["attrs"]["shards"] for s in plan] == [8]


def test_no_backend_option(workload, tmp_path):
    """``workers`` alone picks the executor path."""
    master, wl = workload
    with pytest.raises(TypeError):
        CerFix(uk.paper_ruleset(), master).clean_relation(wl.dirty, backend="process")
    dirty_csv = tmp_path / "dirty.csv"
    write_csv(wl.dirty, dirty_csv)
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["clean", "--scenario", "uk", "--input", str(dirty_csv),
                  "--backend", "thread"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# CLI: cerfix clean
# ---------------------------------------------------------------------------


def test_cli_clean_roundtrip(workload, tmp_path, capsys):
    master, wl = workload
    master_csv = tmp_path / "master.csv"
    dirty_csv = tmp_path / "dirty.csv"
    truth_csv = tmp_path / "truth.csv"
    write_csv(master, master_csv)
    write_csv(wl.dirty, dirty_csv)
    write_csv(wl.clean, truth_csv)
    out_csv = tmp_path / "fixed.csv"
    report_json = tmp_path / "report.json"

    rc = cli_main(
        [
            "clean",
            "--scenario", "uk",
            "--master", str(master_csv),
            "--mode", "strict",
            "--input", str(dirty_csv),
            "--truth", str(truth_csv),
            "--workers", "2",
            "--out", str(out_csv),
            "--report", str(report_json),
            "--journal", str(tmp_path / "journal.jsonl"),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "batch:" in printed
    assert "cache:" not in printed  # no probe went through a cache in process

    # the CLI output equals the library result
    engine = CerFix(uk.paper_ruleset(), read_csv(master_csv, schema=uk.MASTER_SCHEMA))
    expected = engine.clean_relation(
        read_csv(dirty_csv, schema=uk.INPUT_SCHEMA),
        read_csv(truth_csv, schema=uk.INPUT_SCHEMA),
    )
    assert read_csv(out_csv, schema=uk.INPUT_SCHEMA).tuples() == expected.relation.tuples()

    payload = json.loads(report_json.read_text())
    assert payload["tuples"] == len(wl.dirty)
    assert payload["cache"]["hits"] + payload["cache"]["misses"] == 0


def test_cli_clean_rule_only(workload, tmp_path):
    master, wl = workload
    dirty_csv = tmp_path / "dirty.csv"
    master_csv = tmp_path / "master.csv"
    write_csv(wl.dirty, dirty_csv)
    write_csv(master, master_csv)
    out_csv = tmp_path / "fixed.csv"
    rc = cli_main(
        [
            "clean",
            "--scenario", "uk",
            "--master", str(master_csv),
            "--mode", "strict",
            "--input", str(dirty_csv),
            "--validated", "zip,phn,type",
            "--out", str(out_csv),
        ]
    )
    assert rc == 0
    assert len(read_csv(out_csv, schema=uk.INPUT_SCHEMA)) == len(wl.dirty)


# ---------------------------------------------------------------------------
# Web API: POST /api/clean
# ---------------------------------------------------------------------------


def _post(url, payload):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read())


def test_web_api_clean(workload):
    master, wl = workload
    engine = CerFix(uk.paper_ruleset(), master)
    expected = CerFix(uk.paper_ruleset(), master).clean_relation(wl.dirty, wl.clean)
    rows = [r.to_dict() for r in wl.dirty.rows()]
    truth = [r.to_dict() for r in wl.clean.rows()]
    with engine.serve_async(port=0) as server:
        status, payload = _post(
            f"{server.url}/api/clean", {"rows": rows, "truth": truth, "workers": 2}
        )
    assert status == 200
    assert payload["report"]["tuples"] == len(rows)
    assert payload["report"]["completed"] == payload["report"]["tuples"]
    # The route ignores "workers": it never forks a pool in the server.
    assert (payload["report"]["workers"], payload["report"]["backend"]) == (1, "serial")
    got = [tuple(r[n] for n in uk.INPUT_SCHEMA.names) for r in payload["rows"]]
    assert got == expected.relation.tuples()


def test_web_api_clean_rejects_bad_body(workload):
    master, _ = workload
    engine = CerFix(uk.paper_ruleset(), master)
    with engine.serve_async(port=0) as server:
        req = urllib.request.Request(
            f"{server.url}/api/clean",
            data=json.dumps({"rows": []}).encode("utf-8"),
            method="POST",
        )
        try:
            urllib.request.urlopen(req)
            status = 200
        except urllib.error.HTTPError as exc:
            status = exc.code
    assert status == 400


# ---------------------------------------------------------------------------
# Harness JSON dumps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_beats_the_stream_path_on_duplicate_heavy_rows(workers):
    """Dedup and the probe memos must keep a whole-relation clean ahead
    of one monitor session per tuple. Only where the process may run
    ``workers`` CPUs: oversubscribed workers measure scheduling, not
    the pipeline."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if workers > cpus:
        pytest.skip(f"{workers} workers on {cpus} CPU(s)")
    master = uk.generate_master(40, seed=7)
    wl = uk.generate_workload(master, 1_000, rate=0.15, seed=8)
    t_stream, _ = time_call(
        lambda: CerFix(uk.paper_ruleset(), master).stream(wl.dirty, wl.clean), repeat=1
    )
    t_batch, result = time_call(
        lambda: CerFix(uk.paper_ruleset(), master).clean_relation(
            wl.dirty, wl.clean, workers=workers
        ),
        repeat=1,
    )
    assert result.report.completed == len(wl.dirty)
    assert t_batch < t_stream, f"batch ({workers} workers) slower than the stream path"


def test_bench_result_json_roundtrip(tmp_path):
    result = BenchResult("X — demo", ("a", "b", "c"), key=("a",))
    result.add("one", 1, 0.25)
    result.add("two", 2, 1.5)
    result.note("a note")
    path = save_json(result, "BENCH_demo.json", out_dir=tmp_path)
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "X — demo"
    assert payload["key"] == ["a"]
    assert payload["rows"] == [{"a": "one", "b": 1, "c": 0.25}, {"a": "two", "b": 2, "c": 1.5}]
    # metric cells come back as numbers, not their printed text
    assert all(
        isinstance(row[col], (int, float)) for row in payload["rows"] for col in ("b", "c")
    )
    assert payload["notes"] == ["a note"]
    # the CPUs this process may run on, not the host's core count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert payload["machine"]["cpus"] == cpus
