"""The ``cerfix`` command-line explorer.

Substitutes for the demo's web interface (DESIGN.md, substitution 1):
every subcommand drives the same library facilities the web UI would.

Subcommands::

    cerfix rules    [--scenario uk|hospital] [--rules FILE] [--check]
    cerfix regions  [--scenario ...] [-k N] [--mode strict|anchored|scenario]
    cerfix fix      [--scenario ...] --input CSV --truth CSV [--out CSV]
    cerfix clean    [--scenario ...] --input CSV [--truth CSV] [--workers N]
                    [--cache FILE]  # probe-cache persistence (remote stores)
                    [--store single|sqlite|remote [--store-path DB]
                     [--shard-urls URL,..[;URL,..]]]
    cerfix clean    [--scenario ...|--instance DIR] --db FILE [--table T]
                    [--page-rows N] [--dry-run] [--resume RUN_ID]
                    [--validated A,B]             # DB-native paged cleaning
    cerfix undo     [--instance DIR] --db FILE (RUN_ID | --list) [--table T]
    cerfix monitor  [--scenario ...]              # interactive, stdin-driven
    cerfix serve    [--scenario ...|--instance DIR] [--port N]
                    [--max-sessions N] [--cache-size N]   # async entry service
    cerfix shard-server  (--instance DIR | --scenario ... [--master CSV])
                    --shard-id I --shards N [--host H] [--port P]
    cerfix audit    --log FILE [--attr NAME] [--tuple ID]
    cerfix trace    FILE [--trace-id PREFIX] [--audit LOG]   # span-file analysis
    cerfix health   --shard-urls URL,..[;URL,..] [--service URL] [--json]
    cerfix top      --shard-urls URL,..[;URL,..] [--service URL]
                    [--interval S] [--iterations N]
    cerfix generate [--scenario ...] --master-out CSV --out CSV --truth-out CSV
    cerfix demo                                   # the Fig. 3 walkthrough

``clean`` and ``serve`` accept ``--trace FILE [--trace-sample Q]`` to
export structured spans (JSON lines) for ``cerfix trace`` to analyse,
and ``--slowlog FILE [--slow-ms T]`` to append spans slower than the
threshold to a structured slowlog (also a ``cerfix trace`` input);
shard servers inherit both through ``CERFIX_TRACE`` /
``CERFIX_SLOW_SPAN``. ``health`` exits 0 only when the cluster rollup
is ``ok`` — 1 on degraded/down, so it slots into scripts and probes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.audit.log import AuditLog
from repro.audit.stats import attribute_stats, overall_stats, tuple_trace
from repro.core.certainty import CertaintyMode
from repro.core.ruleset import RuleSet
from repro.engine import CerFix
from repro.errors import CerFixError
from repro.explorer.render import format_kv, format_table, highlight
from repro.monitor.suggest import SuggestionStrategy
from repro.obs import trace as tracing
from repro.relational.csvio import read_csv, write_csv
from repro.relational.relation import Relation
from repro.rules.parser import parse_rules
from repro.scenarios import hospital, uk_customers


def _load_scenario(args) -> tuple[RuleSet, Relation, Any]:
    """(ruleset, master relation, scenario generator) for the CLI flags."""
    name = getattr(args, "scenario", "uk")
    if getattr(args, "rules", None):
        text = Path(args.rules).read_text(encoding="utf-8")
        if not getattr(args, "master", None):
            raise CerFixError("--rules requires --master CSV (schemas are inferred)")
        master = read_csv(args.master, relation_name="master")
        sample = read_csv(args.input, relation_name="input") if getattr(args, "input", None) else None
        if sample is None:
            raise CerFixError("--rules requires --input CSV to infer the input schema")
        ruleset = RuleSet(parse_rules(text), sample.schema, master.schema)
        return ruleset, master, None
    if name == "uk":
        master = (
            read_csv(args.master, schema=uk_customers.MASTER_SCHEMA)
            if getattr(args, "master", None)
            else uk_customers.paper_master()
        )
        return uk_customers.paper_ruleset(), master, uk_customers.scenario_tuples(master)
    if name == "hospital":
        master = (
            read_csv(args.master, schema=hospital.MASTER_SCHEMA)
            if getattr(args, "master", None)
            else hospital.generate_master(50)
        )
        return hospital.hospital_ruleset(), master, hospital.scenario_tuples(master)
    raise CerFixError(f"unknown scenario {name!r} (expected uk or hospital)")


def _engine(args) -> CerFix:
    ruleset, master, scenario = _load_scenario(args)
    mode = CertaintyMode(getattr(args, "mode", "scenario"))
    if mode is CertaintyMode.SCENARIO and scenario is None:
        mode = CertaintyMode.STRICT
    store = getattr(args, "store", None)
    if store == "sqlite" and not getattr(args, "store_path", None):
        raise CerFixError("--store sqlite requires --store-path for the snapshot file")
    shard_urls = _parse_shard_urls(args)
    if store == "remote" and not shard_urls:
        raise CerFixError(
            "--store remote requires --shard-urls (comma-separated shard "
            "server urls, one per shard, in shard-id order; use ';' between "
            "shards to give each a comma-separated replica list)"
        )
    return CerFix(
        ruleset,
        master,
        mode=mode,
        scenario=scenario,
        strategy=SuggestionStrategy(getattr(args, "strategy", "core_first")),
        store=store,
        store_path=getattr(args, "store_path", None),
        store_urls=shard_urls,
    )


def _configure_trace(args) -> None:
    """Turn on span export when ``--trace`` / ``--slowlog`` were given.

    Also mirrors the targets into ``CERFIX_TRACE`` /
    ``CERFIX_SLOW_SPAN`` so subprocesses this command spawns
    (process workers, shard servers launched from the same
    shell) append to the same files — multi-process runs yield one
    connected trace and one fleet-wide slowlog."""
    import os

    slowlog = getattr(args, "slowlog", None)
    if slowlog:
        slow_ms = getattr(args, "slow_ms", 100.0)
        tracing.configure_slowlog(slowlog, slow_ms)
        os.environ["CERFIX_SLOW_SPAN"] = tracing.slow_env_value(slowlog, slow_ms)
    path = getattr(args, "trace", None)
    if not path:
        tracing.configure_from_env()
        return
    sample = getattr(args, "trace_sample", 1.0)
    tracing.configure(path, sample)
    os.environ["CERFIX_TRACE"] = tracing.env_value(path, sample)


def _parse_shard_urls(args) -> list | None:
    """``--shard-urls`` → the remote store's url topology.

    Commas separate shards: ``a,b,c`` is three unreplicated shards
    (the legacy form, returned flat). Semicolons separate shards when
    replicas are in play: ``a,b;c,d`` is two shards with two replicas
    each — within a ``;`` group, commas separate that shard's replicas.
    """
    raw = getattr(args, "shard_urls", None)
    if not raw:
        return None
    if ";" not in raw:
        urls = [u.strip() for u in raw.split(",") if u.strip()]
        return urls or None
    groups: list[list[str]] = []
    for chunk in raw.split(";"):
        replicas = [u.strip() for u in chunk.split(",") if u.strip()]
        if replicas:
            groups.append(replicas)
    return groups or None


# -- subcommands -------------------------------------------------------------


def cmd_rules(args) -> int:
    engine = _engine(args)
    rows = [
        (r.rule_id, r.render(), r.description)
        for r in engine.ruleset
    ]
    print(format_table(("id", "rule", "description"), rows,
                       title=f"{len(rows)} editing rules", max_width=64))
    if args.check:
        report = engine.check_consistency()
        print()
        print(report.describe())
        return 0 if report.is_consistent else 1
    return 0


def cmd_regions(args) -> int:
    engine = _engine(args)
    regions = engine.precompute_regions(k=args.k, max_combos=args.max_combos)
    rows = [(i + 1, r.region.size, r.region.render(), f"{r.coverage:.2f}", r.combos_checked)
            for i, r in enumerate(regions)]
    print(format_table(("rank", "size", "region", "coverage", "checked"), rows,
                       title=f"top-{args.k} certain regions (mode={engine.mode.value})",
                       max_width=72))
    return 0


def cmd_fix(args) -> int:
    engine = _engine(args)
    dirty = read_csv(args.input, schema=engine.ruleset.input_schema)
    truth = read_csv(args.truth, schema=engine.ruleset.input_schema)
    report = engine.stream(dirty, truth)
    print(format_kv({
        "tuples": report.tuples,
        "certain fixes": report.completed,
        "mean rounds": f"{report.mean_rounds:.2f}",
        "user-validated cells": f"{report.user_cells} ({report.user_share:.0%})",
        "auto-fixed cells": f"{report.rule_cells} ({report.auto_share:.0%})",
        "throughput (tuples/s)": f"{report.throughput:.0f}",
    }, title="stream result"))
    if args.out:
        fixed = Relation(engine.ruleset.input_schema)
        for i, row in enumerate(dirty.rows()):
            events = engine.audit.by_tuple(f"t{i}")
            values = row.to_dict()
            for e in events:
                values[e.attr] = e.new
            fixed.append(values)
        write_csv(fixed, args.out)
        print(f"fixed tuples written to {args.out}")
    if args.log:
        engine.audit.to_jsonl(args.log)
        print(f"audit log written to {args.log}")
    return 0


def _dirty_target(args, config=None, base: Path | None = None):
    """(db, table, page_rows) from flags, instance document, or both.

    Flags win over the instance's ``dirty`` section; the section's
    relative ``db`` path resolves against the instance directory.
    """
    db = getattr(args, "db", None)
    table = getattr(args, "table", None)
    page_rows = getattr(args, "page_rows", None)
    section = getattr(config, "dirty", None) or {}
    if db is None and section.get("db"):
        db = str((base / section["db"]) if base is not None else section["db"])
    if table is None:
        table = section.get("table", "dirty")
    if page_rows is None:
        page_rows = section.get("page_rows")
    return db, table, page_rows


def _instance_engine(args):
    """(engine, config, instance dir) when ``--instance`` was given."""
    if not getattr(args, "instance", None):
        return None
    from repro.config import load_instance

    engine, config = load_instance(args.instance)
    base = Path(args.instance)
    if base.is_file():
        base = base.parent
    return engine, config, base


def cmd_clean(args) -> int:
    """Whole-relation cleaning: batch pipeline (--input) or paged DB (--db)."""
    import json as _json

    _configure_trace(args)
    loaded = _instance_engine(args)
    if loaded is not None:
        engine, config, base = loaded
        db, table, page_rows = _dirty_target(args, config, base)
        _require_one_source(args, db)
    else:
        db, table, page_rows = _dirty_target(args)
        _require_one_source(args, db)
        engine = _engine(args)
    if db is not None:
        return _clean_db(args, engine, db, table, page_rows)
    dirty = read_csv(args.input, schema=engine.ruleset.input_schema)
    truth = (
        read_csv(args.truth, schema=engine.ruleset.input_schema) if args.truth else None
    )
    validated = tuple(a for a in (args.validated or "").split(",") if a)
    result = engine.clean_relation(
        dirty,
        truth,
        workers=args.workers,
        shards=args.shards,
        dedupe=not args.no_dedupe,
        validated=validated,
        journal_path=args.journal,
        cache_path=args.cache,
    )
    print(result.report.describe())
    if args.out:
        write_csv(result.relation, args.out)
        print(f"repaired relation written to {args.out}")
    if args.report:
        Path(args.report).write_text(
            _json.dumps(result.report.to_json(), indent=2, default=str) + "\n",
            encoding="utf-8",
        )
        print(f"batch report written to {args.report}")
    if args.log:
        engine.audit.to_jsonl(args.log)
        print(f"audit log written to {args.log}")
    if getattr(args, "trace", None):
        print(f"trace spans written to {args.trace} (analyse with `cerfix trace {args.trace}`)")
    return 0


def _require_one_source(args, db) -> None:
    if (args.input is None) == (db is None):
        raise CerFixError(
            "give exactly one dirty-data source: --input CSV (in-memory "
            "batch path) or --db FILE (paged DB-native path; an instance "
            "document's 'dirty' section also provides it)"
        )


def _clean_db(args, engine: CerFix, db: str, table: str, page_rows) -> int:
    """The paged DB-native path of ``cerfix clean``."""
    if args.truth:
        raise CerFixError(
            "--truth drives an oracle user and only applies to --input; the "
            "DB path runs rule-only repairs (use --validated for trusted columns)"
        )
    if args.journal:
        raise CerFixError(
            "--journal applies to --input; a --db run resumes by page from "
            "its run record (--resume RUN_ID)"
        )
    if args.log:
        raise CerFixError(
            "--log applies to --input; a --db run records each change's rule, "
            "source and span in the database archive (table cerfix_clean_changes)"
        )
    validated = tuple(a for a in (args.validated or "").split(",") if a)
    result = engine.clean_table(
        db,
        table=table,
        page_rows=page_rows,
        dry_run=args.dry_run,
        resume=args.resume,
        workers=args.workers,
        shards=args.shards,
        dedupe=not args.no_dedupe,
        validated=validated,
    )
    print(result.describe())
    if result.dry_run:
        rows = [
            (c.row_key, c.column, repr(c.old), repr(c.new), c.rule_id or "")
            for c in result.changes[:20]
        ]
        if rows:
            title = f"first {len(rows)} of {len(result.changes)} would-be changes"
            print(format_table(("row", "column", "old", "new", "rule"), rows,
                               title=title, max_width=64))
        print("dry run: nothing was committed")
    else:
        print(f"reversible archive recorded in {db}; "
              f"undo with `cerfix undo --db {db} {result.run_id}`")
    if getattr(args, "trace", None):
        print(f"trace spans written to {args.trace} (analyse with `cerfix trace {args.trace}`)")
    return 0


def cmd_undo(args) -> int:
    """Restore the pre-run table of a recorded clean run (digest-verified)."""
    from repro.dirty import DirtyTable, list_runs, undo_run

    loaded = _instance_engine(args)
    if loaded is not None:
        _, config, base = loaded
        db, table, _ = _dirty_target(args, config, base)
    else:
        db, table, _ = _dirty_target(args)
    if db is None:
        raise CerFixError(
            "--db FILE is required (or an --instance with a 'dirty' section)"
        )
    dirty_table = DirtyTable(db, table)
    if args.list:
        rows = [
            (r.run_id, r.status, f"{r.pages_done}/{r.pages_total}",
             r.changed_cells, r.row_count)
            for r in list_runs(dirty_table)
        ]
        print(format_table(("run", "status", "pages", "cells", "rows"), rows,
                           title=f"clean runs of {db}:{table}"))
        return 0
    if not args.run_id:
        raise CerFixError("give a RUN_ID to undo, or --list to see recorded runs")
    record = undo_run(dirty_table, args.run_id)
    print(f"run {record.run_id} undone: {record.changed_cells} cells restored, "
          f"table digest-verified against the pre-run state")
    return 0


def cmd_trace(args) -> int:
    """Analyse a span file: flame summary, stage latency, critical path."""
    from repro.obs import tracecli

    return tracecli.run(args)


def _monitor_from_args(args, *, fail_threshold: int):
    from repro.obs.monitor import ClusterMonitor

    shard_urls = _parse_shard_urls(args)
    if not shard_urls:
        raise CerFixError(
            "--shard-urls is required: comma-separated shard-server urls in "
            "shard-id order (';' separates shards with replica lists)"
        )
    return ClusterMonitor(
        shard_urls,
        service_url=getattr(args, "service", None),
        timeout=args.timeout,
        fail_threshold=fail_threshold,
    )


def cmd_health(args) -> int:
    """One-shot cluster health rollup; exit 0 only when everything is ok."""
    import json as _json

    from repro.obs.monitor import describe_rollup

    # One shot means one scrape: a single failure must already count as
    # an open circuit, or a dead replica would need a second run to name.
    monitor = _monitor_from_args(args, fail_threshold=1)
    snapshot = monitor.scrape_once()
    rollup = snapshot["rollup"]
    if args.json:
        print(_json.dumps(snapshot, indent=2, default=str))
    else:
        for line in describe_rollup(rollup):
            print(line)
    return 0 if rollup["status"] == "ok" else 1


def cmd_top(args) -> int:
    """Live terminal dashboard over the cluster (curses-free)."""
    import time as _time

    from repro.obs.monitor import render_top

    monitor = _monitor_from_args(args, fail_threshold=2)
    iterations = args.iterations
    n = 0
    try:
        while True:
            snapshot = monitor.scrape_once()
            frame = render_top(snapshot, monitor.rates())
            n += 1
            if iterations and n >= iterations:
                # Final (or only) frame: plain print, no screen control —
                # what scripts and tests capture.
                print(frame, end="")
                return 0
            print("\x1b[2J\x1b[H" + frame, end="", flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_shard_server(args) -> int:
    """Run one master-data shard server in the foreground."""
    from repro.master import shardserver

    return shardserver.run_from_args(args)


def cmd_monitor(args) -> int:
    engine = _engine(args)
    schema = engine.ruleset.input_schema
    print(f"enter a tuple, one '{schema.names[0]}' .. '{schema.names[-1]}' value per prompt")
    values = {}
    for name in schema.names:
        values[name] = input(f"  {name} = ").strip()
    session = engine.session(values, "cli")
    while not session.is_complete:
        suggestion = session.suggestion()
        if suggestion is None:
            break
        print()
        print(highlight(session.current_values(), set(suggestion.attrs), set(session.validated)))
        print(f"suggest: {suggestion.render()}")
        raw = input("validate attr=value[,attr=value..] (empty = assure suggested): ").strip()
        if not raw:
            session.assure(suggestion.attrs)
            continue
        assignments = {}
        for part in raw.split(","):
            attr, _, value = part.partition("=")
            assignments[attr.strip()] = value.strip()
        session.validate(assignments)
    print()
    print(highlight(session.current_values(), set(), set(session.validated)))
    print(f"certain fix reached in {session.round_no} round(s)")
    for line in tuple_trace(session.audit, "cli"):
        print("  " + line)
    return 0


def cmd_audit(args) -> int:
    log = AuditLog.from_jsonl(args.log)
    if args.tuple:
        for line in tuple_trace(log, args.tuple):
            print(line)
        return 0
    stats = attribute_stats(log)
    if args.attr:
        stats = [s for s in stats if s.attr == args.attr]
    rows = [
        (s.attr, s.user_validations, s.rule_fixes, f"{s.pct_user:.0f}%",
         f"{s.pct_auto:.0f}%", s.normalizations, s.value_changes)
        for s in stats
    ]
    print(format_table(
        ("attr", "by user", "by CerFix", "%user", "%auto", "normalized", "changed"),
        rows, title="data auditing (Fig. 4)"))
    overall = overall_stats(log)
    print()
    print(format_kv({
        "tuples": overall.tuples,
        "user share": f"{overall.user_share:.0%}",
        "auto share": f"{overall.auto_share:.0%}",
    }))
    return 0


def cmd_generate(args) -> int:
    if args.scenario == "hospital":
        master = hospital.generate_master(args.master_size, seed=args.seed)
        workload = hospital.generate_workload(master, args.n, rate=args.rate, seed=args.seed)
    else:
        master = uk_customers.generate_master(args.master_size, seed=args.seed)
        workload = uk_customers.generate_workload(master, args.n, rate=args.rate, seed=args.seed)
    write_csv(master, args.master_out)
    write_csv(workload.dirty, args.out)
    write_csv(workload.clean, args.truth_out)
    print(f"master: {len(master)} rows -> {args.master_out}")
    print(f"dirty:  {len(workload.dirty)} rows ({workload.error_cells} corrupted cells) -> {args.out}")
    print(f"truth:  {len(workload.clean)} rows -> {args.truth_out}")
    return 0


def cmd_demo(args) -> int:
    """The Fig. 3 walkthrough, narrated."""
    engine = CerFix(
        uk_customers.paper_ruleset(),
        uk_customers.paper_master(),
        mode=CertaintyMode.SCENARIO,
        scenario=uk_customers.scenario_tuples(uk_customers.paper_master()),
    )
    truth = uk_customers.fig3_truth()
    session = engine.session(uk_customers.fig3_tuple(), "fig3")
    print("input tuple (Fig. 3):")
    print("  " + highlight(session.current_values(), set(), set()))
    round_no = 0
    while not session.is_complete:
        suggestion = session.suggestion()
        if suggestion is None:
            break
        round_no += 1
        print(f"\nround {round_no}: CerFix suggests validating {set(suggestion.attrs)}")
        session.validate({a: truth[a] for a in suggestion.attrs})
        print("  " + highlight(session.current_values(), set(), set(session.validated)))
    print(f"\ncertain fix reached in {session.round_no} rounds; audit trail:")
    for line in tuple_trace(session.audit, "fig3"):
        print("  " + line)
    return 0


def cmd_init(args) -> int:
    """Write an instance directory: instance.json + master.csv + rules.txt."""
    from repro.config import InstanceConfig, save_instance
    from repro.scenarios import hospital as hosp

    if args.scenario == "hospital":
        master = hosp.generate_master(args.master_size or 50, seed=args.seed)
        ruleset = hosp.hospital_ruleset()
        config = InstanceConfig("hospital", hosp.INPUT_SCHEMA, hosp.MASTER_SCHEMA,
                                mode=CertaintyMode.ANCHORED)
    else:
        master = (
            uk_customers.generate_master(args.master_size, seed=args.seed)
            if args.master_size
            else uk_customers.paper_master()
        )
        ruleset = uk_customers.paper_ruleset()
        config = InstanceConfig("uk-customers", uk_customers.INPUT_SCHEMA,
                                uk_customers.MASTER_SCHEMA,
                                mode=CertaintyMode.ANCHORED)
    path = save_instance(args.out, config, master, ruleset)
    print(f"instance written to {path} ({len(master)} master tuples, {len(ruleset)} rules)")
    return 0


def cmd_serve(args) -> int:
    _configure_trace(args)
    service_cfg: dict[str, Any] = {}
    if args.instance:
        if args.store or args.store_path or getattr(args, "shard_urls", None):
            raise CerFixError(
                "--store flags conflict with --instance: configure the "
                "backend in the instance document's 'store' section"
            )
        from repro.config import load_instance

        engine, config = load_instance(args.instance)
        service_cfg = dict(config.service)
        print(f"serving instance {config.name!r}")
    else:
        engine = _engine(args)
    import asyncio

    from repro.service.app import AsyncCerFixService
    from repro.service.http import AsyncCerFixServer

    if args.max_sessions is not None:
        service_cfg["max_sessions"] = args.max_sessions
    if args.cache_size is not None:
        service_cfg["cache_size"] = args.cache_size
    service = AsyncCerFixService(engine, **service_cfg)
    server = AsyncCerFixServer(service, port=args.port)

    async def _main() -> None:
        await server.bind()
        cache = (
            f"probe cache={service.cache.maxsize}, "
            if service.cache is not None  # remote stores only
            else ""
        )
        print(
            f"cerfix entry service listening on {server.url} "
            f"(max_sessions={service.admission.max_sessions}, "
            f"{cache}{service.dispatch_mode} dispatch; Ctrl-C to stop)"
        )
        await server.serve()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=("uk", "hospital"), default="uk")
    p.add_argument("--rules", help="rule file (textual syntax) instead of a scenario")
    p.add_argument("--master", help="master data CSV (overrides the scenario default)")
    p.add_argument("--mode", choices=tuple(m.value for m in CertaintyMode), default="scenario")
    p.add_argument("--strategy", choices=tuple(s.value for s in SuggestionStrategy),
                   default="core_first")


def _add_trace_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="export structured spans (JSON lines) to this file")
    p.add_argument("--trace-sample", type=float, default=1.0, dest="trace_sample",
                   help="fraction of traces to export, 0..1 (default 1.0)")
    p.add_argument("--slowlog", help="append spans slower than --slow-ms to this "
                   "file (JSON lines; analyse with `cerfix trace`)")
    p.add_argument("--slow-ms", type=float, default=100.0, dest="slow_ms",
                   help="slowlog threshold in milliseconds (default 100)")


def _add_store_flags(p: argparse.ArgumentParser) -> None:
    from repro.master import STORE_BACKENDS

    p.add_argument("--store", choices=STORE_BACKENDS, default=None,
                   help="master store backend (default: single in-memory relation)")
    p.add_argument("--store-path", dest="store_path",
                   help="snapshot file for --store sqlite")
    p.add_argument("--shard-urls", dest="shard_urls",
                   help="shard-server urls for --store remote, in shard-id "
                        "order: commas separate shards (host:a,host:b), or "
                        "semicolons separate shards and commas their replicas "
                        "(host:a,host:b;host:c,host:d = 2 shards x 2 replicas "
                        "with client-side failover)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cerfix",
        description="CerFix: cleaning data with certain fixes (PVLDB 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rules", help="list editing rules; --check runs the static analysis")
    _add_scenario_flags(p)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("regions", help="compute top-k certain regions")
    _add_scenario_flags(p)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--max-combos", type=int, default=50_000, dest="max_combos")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("fix", help="fix a CSV of input tuples with an oracle user")
    _add_scenario_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", help="write fixed tuples here")
    p.add_argument("--log", help="write the audit log (JSON lines) here")
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser(
        "clean",
        help="clean a whole relation: a CSV through the batch pipeline "
             "(--input) or a database table in pages (--db)",
    )
    _add_scenario_flags(p)
    _add_store_flags(p)
    p.add_argument("--input", help="dirty CSV (in-memory batch path)")
    p.add_argument("--db", help="sqlite file holding the dirty table "
                   "(paged DB-native path; fixes archive reversibly)")
    p.add_argument("--table", default=None,
                   help="dirty table name for --db (default: dirty)")
    p.add_argument("--page-rows", type=int, default=None, dest="page_rows",
                   help="rows per page for --db (default: CERFIX_PAGE_ROWS or 4096)")
    p.add_argument("--dry-run", action="store_true", dest="dry_run",
                   help="--db: validate and report without committing anything "
                        "(the database is opened read-only)")
    p.add_argument("--resume", help="--db: resume an interrupted run by run id")
    p.add_argument("--instance", help="load engine and dirty-table location "
                   "from a saved instance directory")
    p.add_argument("--truth", help="ground-truth CSV driving an oracle user (optional)")
    p.add_argument("--workers", type=int, default=1,
                   help="shard workers: 1 runs serially, N > 1 runs N worker processes")
    p.add_argument("--shards", type=int, help="shard count (default: 4 per worker)")
    p.add_argument("--no-dedupe", action="store_true", dest="no_dedupe",
                   help="disable duplicate-signature collapsing")
    p.add_argument("--validated", help="comma-separated trusted columns (rule-only mode)")
    p.add_argument("--journal", help="--input: checkpoint journal path (enables crash-safe "
                   "resume; a --db run resumes by page with --resume)")
    p.add_argument("--cache", help="probe-cache snapshot path for a remote store (warm-starts "
                   "repeat runs against unchanged master data and rules; in-process "
                   "stores have no probe cache)")
    p.add_argument("--out", help="write the repaired relation here")
    p.add_argument("--report", help="write the batch report (JSON) here")
    p.add_argument("--log", help="--input: write the audit log (JSON lines) here (a --db "
                   "run's provenance is its database archive)")
    _add_trace_flags(p)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser(
        "undo",
        help="restore the exact pre-run dirty table of a recorded clean "
             "run (digest-verified); --list shows recorded runs",
    )
    p.add_argument("run_id", nargs="?", help="run id to undo (from `cerfix clean --db`)")
    p.add_argument("--db", help="sqlite file holding the dirty table and archive")
    p.add_argument("--table", default=None,
                   help="dirty table name (default: dirty)")
    p.add_argument("--instance", help="take the dirty-table location from a "
                   "saved instance directory")
    p.add_argument("--list", action="store_true",
                   help="list recorded clean runs instead of undoing")
    p.set_defaults(func=cmd_undo)

    p = sub.add_parser(
        "shard-server",
        help="serve one master-data shard over HTTP (the remote store's "
             "server side; run one per shard)",
    )
    from repro.master import shardserver

    shardserver.add_arguments(p)
    p.set_defaults(func=cmd_shard_server)

    p = sub.add_parser("monitor", help="interactively fix one tuple")
    _add_scenario_flags(p)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("audit", help="inspect an audit log")
    p.add_argument("--log", required=True)
    p.add_argument("--attr")
    p.add_argument("--tuple", dest="tuple")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("trace", help="analyse a span file written by --trace")
    p.add_argument("file", help="span file (JSON lines)")
    p.add_argument("--trace-id", dest="trace_id",
                   help="only show traces whose id starts with this prefix")
    p.add_argument("--audit", help="audit log (JSON lines) to join fixes onto spans")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "health",
        help="scrape a cluster once and report the health rollup "
             "(exit 0 only when status is ok)",
    )
    p.add_argument("--shard-urls", dest="shard_urls", required=True,
                   help="shard-server urls, shard-id order; ';' separates "
                        "shards with comma-separated replica lists")
    p.add_argument("--service", help="entry-service url to include in the rollup")
    p.add_argument("--timeout", type=float, default=2.0,
                   help="per-endpoint scrape timeout in seconds (default 2)")
    p.add_argument("--json", action="store_true",
                   help="print the full cluster snapshot as JSON")
    p.set_defaults(func=cmd_health)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard: rates, per-shard latency "
             "percentiles, circuits, failovers",
    )
    p.add_argument("--shard-urls", dest="shard_urls", required=True,
                   help="shard-server urls, shard-id order; ';' separates "
                        "shards with comma-separated replica lists")
    p.add_argument("--service", help="entry-service url to include")
    p.add_argument("--timeout", type=float, default=2.0,
                   help="per-endpoint scrape timeout in seconds (default 2)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh interval in seconds (default 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (0 = run until Ctrl-C)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("generate", help="generate master data and a dirty workload")
    p.add_argument("--scenario", choices=("uk", "hospital"), default="uk")
    p.add_argument("--master-size", type=int, default=200, dest="master_size")
    p.add_argument("-n", type=int, default=500)
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--master-out", required=True, dest="master_out")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", required=True, dest="truth_out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("demo", help="run the Fig. 3 walkthrough")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("init", help="write an instance directory (the demo's initialisation step)")
    p.add_argument("--scenario", choices=("uk", "hospital"), default="uk")
    p.add_argument("--master-size", type=int, default=0, dest="master_size",
                   help="generate this many master tuples (0 = the paper data for uk)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="instance directory to create")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser(
        "serve",
        help="run the async entry service (JSON API: concurrent monitor "
             "sessions, shared memos, 429 backpressure, /api/metrics)",
    )
    _add_scenario_flags(p)
    _add_store_flags(p)
    p.add_argument("--instance", help="serve a saved instance directory instead")
    p.add_argument("--port", type=int, default=8384)
    p.add_argument("--max-sessions", type=int, default=None, dest="max_sessions",
                   help="max concurrently active sessions before 429 (default 256)")
    p.add_argument("--cache-size", type=int, default=None, dest="cache_size",
                   help="shared probe cache entries, remote stores only (default 8192)")
    _add_trace_flags(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CerFixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
