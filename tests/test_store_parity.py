"""Differential parity suite: every master-store backend, every path.

The acceptance gate for the store refactor: the single and sqlite
backends must produce **bit-identical** fixes, certain regions and
audit events through the monitor/stream path and the batch pipeline
(serial and multi-process executors).
The harness lives in :mod:`repro.master.conformance` (lifted out of
``tests/`` so any backend — including the remote shard cluster — runs
the same suite; ``tests/test_conformance.py`` drives the full kit).
This module pins:

- randomized differential cases (datagen-backed) agree across backends
  on both paths, with and without ground truth;
- Hypothesis property: the owning shard server's probe equals a
  single-relation probe for arbitrary relations, rules, keys and shard
  counts — including ``N == 1`` and ``N`` far above the number of
  distinct keys; the servers' own-shard indexes partition the global
  index, and a misrouted probe is refused before any index is read;
- a sqlite-backed batch run killed mid-shard resumes from its journal
  (and its master snapshot) to the same ``BatchReport`` as an
  uninterrupted run;
- store construction/selection errors are loud, and snapshots reload.

CI runs this file in its own matrix leg with ``-p no:cacheprovider``
and 4 process workers (``CERFIX_PARITY_WORKERS``), so each worker
probes its own unpickled copy of the store: cross-process
nondeterminism in the batch path shows up as a parity failure.
"""

from __future__ import annotations

import json
import os
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

import repro.batch.executor as executor_mod
import repro.master.shardserver as shardserver
from conftest import PROBE_MASTER_SCHEMA, probe_cases
from repro.master.conformance import (
    assert_parity,
    generate_case,
    normalize_report,
    run_batch_path,
    run_interleaved_monitor_path,
    run_monitor_path,
    store_factories,
)
from repro import CerFix
from repro.core.ruleset import RuleSet
from repro.errors import MasterDataError
from repro.master.shardserver import ShardServerApp
from repro.master.store import (
    MasterMatch,
    SingleRelationStore,
    SqliteMasterStore,
    make_store,
    shard_of,
)
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.scenarios import uk_customers as uk

#: The CI matrix leg sets 4 to force multi-process probing; local runs
#: can lower it for speed without changing what is asserted.
PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "4"))


# ---------------------------------------------------------------------------
# Differential cases: monitor and batch paths across the in-process backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed,scenario", [(101, "uk"), (202, "uk"), (303, "hospital")]
)
def test_monitor_path_parity(seed, scenario, tmp_path):
    """Stream cleaning + region precompute: identical fixes, regions,
    audit events on every backend."""
    case = generate_case(seed, scenario=scenario)
    outcomes = {
        name: run_monitor_path(case, factory())
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)
    # sanity: the case actually exercised the master data
    assert any(e["source"] == "rule" for e in outcomes["single"].audit_events)


@pytest.mark.parametrize("seed,scenario", [(404, "uk"), (505, "hospital")])
@pytest.mark.parametrize(
    "workers", [1, PARITY_WORKERS], ids=["1-serial", f"{PARITY_WORKERS}-process"]
)
def test_batch_path_parity(seed, scenario, workers, tmp_path):
    """Batch cleaning on both executor paths: identical repaired
    relations, audit trails and work accounting per backend."""
    case = generate_case(seed, scenario=scenario)
    outcomes = {
        name: run_batch_path(case, factory(), workers=workers)
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)


@pytest.mark.parametrize("seed,scenario", [(808, "uk"), (909, "hospital")])
def test_monitor_interaction_order_fuzz_parity(seed, scenario, tmp_path):
    """Interleave non-oracle user responses (oracle/cautious/selective
    mix) across sessions in seeded random orders: every interleaving,
    on every backend, must produce bit-identical per-tuple fixes and
    audit trails (the roadmap follow-up from PR 3).

    Users are fixed by ``user_seed`` while the *round order* varies with
    ``order_seed`` — so the comparison proves both backend parity and
    interleaving-independence at once."""
    from repro.core.inference import mandatory_attributes

    case = generate_case(seed, scenario=scenario, n=24 if scenario == "uk" else 10)
    # Cap the region search at the mandatory core for the wide hospital
    # schema — level len(core)+1 alone costs ~17s there; parity is still
    # asserted over the regions the capped search finds.
    max_size = (
        None
        if scenario == "uk"
        else len(mandatory_attributes(case.ruleset, case.ruleset.input_schema))
    )
    outcomes = {}
    for name, factory in store_factories(case, tmp_path).items():
        for order_seed in (1, 7):
            outcomes[f"{name}/order{order_seed}"] = run_interleaved_monitor_path(
                case,
                factory(),
                order_seed=order_seed,
                user_seed=seed,
                region_max_size=max_size,
            )
    assert_parity(outcomes)
    reference = next(iter(outcomes.values()))
    # sanity: the mix of user models actually stalls some sessions
    # (selective users run out of known attributes) and completes others
    assert 0 < reference.report["completed"] <= reference.report["tuples"]


def test_batch_rule_only_parity(tmp_path):
    """No ground truth: rule-only repair from trusted columns must also
    agree bit for bit (this is the path with no oracle to mask bugs)."""
    case = generate_case(606, scenario="uk", with_truth=False)
    assert case.validated  # the generator picked a trusted column
    outcomes = {
        name: run_batch_path(case, factory())
        for name, factory in store_factories(case, tmp_path).items()
    }
    assert_parity(outcomes)


# ---------------------------------------------------------------------------
# Property-based probe parity over shard servers (Hypothesis; generators
# in conftest.py)
# ---------------------------------------------------------------------------

#: Input schema for the probe rules (``a0``/``a1`` read, ``b`` fixed).
PROBE_INPUT_SCHEMA = Schema("pi", ["a0", "a1", "b"])


def _route(rule, values, shards: int) -> int:
    key = HashIndex(rule.m_attrs, rule.ops).key_of(tuple(values[a] for a in rule.lhs_attrs))
    return shard_of(key, shards)


def _shard_server(master, ruleset, shard_id: int, shards: int) -> ShardServerApp:
    return ShardServerApp(ruleset, Relation(master.schema, master.tuples()), shard_id, shards)


def _served(app, rule, values, *, use_index=True) -> tuple[int, dict]:
    return app.handle(
        "POST",
        "/probe_many",
        {"probes": [{"rule_id": rule.rule_id, "values": values}], "use_index": use_index},
    )


@settings(max_examples=120, deadline=None)
@given(case=probe_cases(), shards=st.sampled_from((1, 2, 3, 7, 64)))
def test_sharded_probe_equals_single_probe(case, shards):
    """For arbitrary master content, rules, keys and shard counts —
    including N=1 and N far above the distinct-key count — the shard
    server the key routes to answers ``/probe_many`` with exactly what
    the global index returns, indexed and scanned."""
    master, rule, values = case
    ruleset = RuleSet((rule,), PROBE_INPUT_SCHEMA, PROBE_MASTER_SCHEMA)
    owner = _shard_server(master, ruleset, _route(rule, values, shards), shards)
    single = SingleRelationStore(Relation(master.schema, master.tuples()))
    for use_index in (True, False):
        status, body = _served(owner, rule, values, use_index=use_index)
        assert status == 200, body
        (got,) = body["matches"]
        assert MasterMatch(tuple(got["positions"]), tuple(got["values"])) == single.probe(
            rule, values, use_index=use_index
        )


@pytest.mark.parametrize("shards", [1, 3, 7])
def test_own_shard_indexes_partition_the_global_index(paper_ruleset, shards):
    """Across N servers the own-shard key sets are disjoint, each key
    sits on the server it routes to, and their union — positions
    included — is the global index."""
    master = uk.generate_master(60, seed=9)
    apps = [_shard_server(master, paper_ruleset, i, shards) for i in range(shards)]
    for attrs, ops in paper_ruleset.index_specs():
        owned = [app.indexes[(attrs, ops)] for app in apps]
        for shard_id, index in enumerate(owned):
            assert all(shard_of(key, shards) == shard_id for key in index)
        assert sum(map(len, owned)) == len(set().union(*owned))  # disjoint
        union = {key: positions for index in owned for key, positions in index.items()}
        assert union == dict(master.build_index(attrs, ops).items())
        if shards > 1:
            assert sum(1 for index in owned if index) > 1, "routing never spread"


def test_misroute_is_409_and_builds_nothing(paper_ruleset, monkeypatch):
    """A key routing to another shard is refused before the server
    reads, scans or builds any index, on both probe paths."""
    master = uk.generate_master(30, seed=4)
    app = _shard_server(master, paper_ruleset, 0, 3)
    before = {spec: dict(index) for spec, index in app.indexes.items()}
    rule = next(r for r in paper_ruleset if not r.is_constant)
    values = next(
        v for v in (row.to_dict() for row in master.rows()) if _route(rule, v, 3) != 0
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("a misrouted probe touched the master")

    monkeypatch.setattr(Relation, "build_index", forbidden)
    monkeypatch.setattr(Relation, "index_on", forbidden)
    monkeypatch.setattr(shardserver, "_scan_positions", forbidden)
    for use_index in (True, False):
        status, body = _served(app, rule, values, use_index=use_index)
        assert status == 409
        assert body["expected_shard"] == _route(rule, values, 3)
    assert app.indexes == before
    assert app.metrics.counter_value("cerfix.shard.misroutes") == 2
    assert app.metrics.counter_value("cerfix.shard.probes") == 0


# ---------------------------------------------------------------------------
# Crash safety: sqlite snapshot + checkpoint journal survive a kill
# ---------------------------------------------------------------------------


def test_sqlite_batch_crash_resume_matches_uninterrupted(tmp_path, monkeypatch):
    """Kill a sqlite-backed batch run mid-shard; a fresh process that
    reloads the snapshot and the journal must produce the same repaired
    relation and the same (scheduling-independent) BatchReport as an
    uninterrupted run."""
    master = uk.generate_master(20, seed=51)
    wl = uk.generate_workload(master, 40, rate=0.25, seed=52)
    db = tmp_path / "master.db"
    journal = tmp_path / "journal.jsonl"

    baseline_engine = CerFix(
        uk.paper_ruleset(), master, store="sqlite", store_path=db
    )
    expected = baseline_engine.clean_relation(wl.dirty, wl.clean, workers=1, shards=4)

    # Crash after two shards have been journaled.
    real = executor_mod._run_shard
    calls = {"n": 0}

    def crashing(shard, ctx, base, cache, *memos):
        if calls["n"] >= 2:
            raise RuntimeError("simulated mid-shard kill")
        calls["n"] += 1
        return real(shard, ctx, base, cache, *memos)

    monkeypatch.setattr(executor_mod, "_run_shard", crashing)
    with pytest.raises(RuntimeError, match="simulated mid-shard kill"):
        CerFix(uk.paper_ruleset(), master, store="sqlite", store_path=db).clean_relation(
            wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
        )
    monkeypatch.setattr(executor_mod, "_run_shard", real)
    assert sum(
        1 for l in journal.read_text().splitlines() if json.loads(l)["kind"] == "shard"
    ) == 2

    # "Restart": the master relation comes back from the *snapshot*, not
    # from the in-memory object the crashed run held.
    restarted = SqliteMasterStore(db)
    assert restarted.relation.tuples() == master.tuples()
    resumed = CerFix(uk.paper_ruleset(), restarted).clean_relation(
        wl.dirty, wl.clean, workers=1, shards=4, journal_path=journal
    )

    assert resumed.relation.tuples() == expected.relation.tuples()
    assert resumed.report.resumed_shards == 2
    assert normalize_report(resumed.report.to_json()) == normalize_report(
        expected.report.to_json()
    )


# ---------------------------------------------------------------------------
# Store construction, persistence and selection edges
# ---------------------------------------------------------------------------


def test_sqlite_snapshot_roundtrip(tmp_path, paper_master):
    db = tmp_path / "m.db"
    written = SqliteMasterStore(db, paper_master)
    loaded = SqliteMasterStore(db)
    assert loaded.relation.tuples() == paper_master.tuples()
    assert loaded.schema.names == paper_master.schema.names
    assert loaded.stored_digest() == written.content_digest()


def test_sqlite_update_writes_through(tmp_path, paper_master):
    db = tmp_path / "m.db"
    store = SqliteMasterStore(db, Relation(paper_master.schema, paper_master.tuples()))
    first = dict(zip(paper_master.schema.names, paper_master.tuples()[0]))
    store.apply_update(add=[first], remove=[1])
    reloaded = SqliteMasterStore(db)
    assert reloaded.relation.tuples() == store.relation.tuples()
    assert reloaded.stored_digest() == store.content_digest()


def test_sqlite_missing_snapshot_is_loud(tmp_path):
    with pytest.raises(MasterDataError):
        SqliteMasterStore(tmp_path / "absent.db")


def test_sqlite_rejects_non_scalar_cells(tmp_path):
    """Only JSON scalars round-trip the snapshot losslessly; anything
    else must fail loudly at save time, not come back silently altered."""
    from repro.relational.schema import Schema

    rel = Relation(Schema("m", ["k", "v"]), [(("a", "b"), "x")])
    with pytest.raises(MasterDataError, match="JSON scalar"):
        SqliteMasterStore(tmp_path / "m.db", rel)
    assert not (tmp_path / "m.db").exists()  # validation precedes the write
    # int/float/bool/None cells are fine and round-trip exactly
    ok = Relation(Schema("m", ["k", "v"]), [(1, 2.5), (True, None)])
    SqliteMasterStore(tmp_path / "ok.db", ok)
    assert SqliteMasterStore(tmp_path / "ok.db").relation.tuples() == ok.tuples()


def test_sqlite_update_rejects_non_scalar_without_diverging(tmp_path, paper_master):
    """A rejected update must leave the in-memory relation AND the
    snapshot exactly as they were — not mutate memory and then fail the
    write-through, which would silently fork the two."""
    db = tmp_path / "m.db"
    store = SqliteMasterStore(db, Relation(paper_master.schema, paper_master.tuples()))
    before = store.relation.tuples()
    digest_before = store.stored_digest()
    bad = dict(zip(paper_master.schema.names, paper_master.tuples()[0]))
    bad[paper_master.schema.names[0]] = ("not", "a", "scalar")
    with pytest.raises(MasterDataError, match="JSON scalar"):
        store.apply_update(add=[bad], remove=[1])
    assert store.relation.tuples() == before  # memory untouched
    assert store.stored_digest() == digest_before  # snapshot untouched
    assert SqliteMasterStore(db).relation.tuples() == before


def test_sqlite_corrupt_snapshot_payload_is_loud(tmp_path, paper_master):
    """Truncated/hand-edited JSON inside the snapshot must surface as
    MasterDataError (which the CLI prettifies), not a raw decode error."""
    import sqlite3

    db = tmp_path / "m.db"
    SqliteMasterStore(db, paper_master)
    conn = sqlite3.connect(db)
    with conn:
        conn.execute("UPDATE cerfix_master SET row = '[truncated' WHERE pos = 0")
    conn.close()
    with pytest.raises(MasterDataError, match="corrupt payload"):
        SqliteMasterStore(db)


def test_sqlite_tampered_snapshot_fails_digest_check(tmp_path, paper_master):
    import json
    import sqlite3

    db = tmp_path / "m.db"
    SqliteMasterStore(db, paper_master)
    tampered = list(paper_master.tuples()[0])
    tampered[0] = "Mallory"
    conn = sqlite3.connect(db)
    with conn:
        conn.execute(
            "UPDATE cerfix_master SET row = ? WHERE pos = 0", (json.dumps(tampered),)
        )
    conn.close()
    with pytest.raises(MasterDataError, match="content-digest check"):
        SqliteMasterStore(db)


def test_make_store_selection(tmp_path, paper_master):
    assert make_store(paper_master, "single").backend == "single"
    sqlite = make_store(paper_master, "sqlite", path=tmp_path / "m.db")
    assert sqlite.backend == "sqlite"
    with pytest.raises(MasterDataError):
        make_store(paper_master, "sqlite")  # no path
    with pytest.raises(MasterDataError):
        make_store(paper_master, "mongodb")
    # the removed in-process sharded backend fails loudly
    with pytest.raises(MasterDataError, match=r"\('single', 'sqlite', 'remote'\)"):
        make_store(paper_master, "sharded")


def test_shard_routing_is_deterministic_and_total():
    keys = [("EH8 4AH",), ("", ""), ("a", "b"), (None,), ("131",)]
    for n in (1, 2, 3, 64):
        for key in keys:
            s = shard_of(key, n)
            assert 0 <= s < n
            assert s == shard_of(key, n)  # stable within a process
    assert all(shard_of(k, 1) == 0 for k in keys)


def test_engine_store_selection_and_instance_surface(tmp_path):
    engine = CerFix(
        uk.paper_ruleset(), uk.paper_master(), store="sqlite", store_path=tmp_path / "m.db"
    )
    assert engine.master.store.backend == "sqlite"
    with engine.serve_async(port=0) as server:
        with urllib.request.urlopen(f"{server.url}/api/instance", timeout=60) as resp:
            status, payload = resp.status, json.loads(resp.read())
    assert status == 200
    assert payload["store"]["backend"] == "sqlite"
    assert payload["store"]["path"] == str(tmp_path / "m.db")
    with pytest.raises(Exception):
        CerFix(uk.paper_ruleset(), engine.master, store="single")  # already wrapped
