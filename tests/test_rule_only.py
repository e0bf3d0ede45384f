"""Rule-only batch groups equal the per-group paths they replaced.

A batch group without truth has no user to answer a suggestion, so the
executor resolves a shard's rule-only groups in one set-at-a-time pass
(:func:`repro.batch.executor._rule_pass`, over
:func:`repro.core.chase.chase_many`), with no :class:`MonitorSession`.
Two references below resolve one group at a time:

- :func:`chase_outcome`, a per-group chase from the trusted
  ``validated`` attributes (what the executor ran up to 1.18);
- :func:`session_outcome`, the session path (``MonitorSession`` +
  ``assure``) that resolved such a group up to 1.13.

The ``shadow`` fixture runs both beside the pass on every shard, inside
the pass's span (none of them uses a chase memo), and asserts
field-for-field :class:`GroupOutcome` equality. Whole runs with the
session path swapped in must also give the same fixed relation, audit
log, report and DB archive.

CI runs this file in the ``store-parity`` leg with 4 process workers
(``CERFIX_PARITY_WORKERS``), and in the ``db-clean`` leg with
``CERFIX_PAGE_ROWS=64``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os

import pytest

import repro.batch.executor as executor_mod
from repro import CerFix
from repro.batch.executor import GroupOutcome, ShardExecutor, _TranscriptRecorder
from repro.core.certainty import CertaintyMode
from repro.core.chase import chase
from repro.core.rule import Constant, EditingRule
from repro.dirty import ChangeArchive, DirtyTable
from repro.master.conformance import generate_case, normalize_report
from repro.monitor import session as session_mod
from repro.monitor.session import MonitorSession
from repro.monitor.suggest import SuggestionStrategy
from repro.obs import trace
from repro.obs.metrics import get_registry

PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "2"))
SHARDS = 8  # fixed, so serial and process runs share one plan


def record_steps(audit, steps, round_no) -> None:
    for s in steps:
        source = "normalize" if s.normalized else "rule"
        audit.record(None, s.attr, s.old, s.new, source, rule_id=s.rule_id,
                     master_positions=s.master_positions, round_no=round_no)


def chase_outcome(group, ctx, manager, audit) -> GroupOutcome:
    """The per-group reference: round 0 chases the group from nothing
    validated; round 1, while a seed attribute is unvalidated, assures
    the seed and chases once more."""
    names = ctx.ruleset.input_schema.names
    result = chase(group.values, (), ctx.ruleset, manager, use_index=ctx.use_index)
    values, validated, conflicts = result.values, result.validated, len(result.conflicts)
    record_steps(audit, result.steps, 0)
    seed = [a for a in dict.fromkeys(ctx.validated) if a not in validated]
    if seed and len(validated) < len(names):
        for a in seed:
            audit.record(None, a, values[a], values[a], "user", round_no=1)
        result = chase(
            values, validated.union(seed), ctx.ruleset, manager, use_index=ctx.use_index
        )
        values, validated = result.values, result.validated
        conflicts += len(result.conflicts)
        record_steps(audit, result.steps, 1)
    else:
        seed = []
    transcript = audit.transcript
    return GroupOutcome(
        members=group.members,
        values=values,
        complete=len(validated) == len(names),
        rounds=1 if seed else 0,
        user_cells=len(seed),
        rule_cells=len(validated) - len(seed),
        normalized_cells=sum(s.normalized for seg in transcript for s in seg.steps),
        conflicts=conflicts,
        transcript=transcript,
    )


def session_outcome(group, ctx, manager, audit) -> GroupOutcome:
    """The session reference: a monitor session opens on the group and
    assures the seed, as the executor did for every rule-only group up
    to 1.13."""
    session = MonitorSession(
        ctx.ruleset,
        manager,
        group.values,
        f"g{group.representative}",
        regions=ctx.regions,
        strategy=ctx.strategy,
        mode=ctx.mode,
        scenario=ctx.scenario,
        audit=audit,
        use_index=ctx.use_index,
        max_combos=ctx.max_combos,
        trace=False,
    )
    seed = [a for a in ctx.validated if a not in session.validated]
    if seed and not session.is_complete:
        session.assure(seed)
    provenance = session.provenance
    transcript = audit.transcript
    return GroupOutcome(
        members=group.members,
        values=session.current_values(),
        complete=session.is_complete,
        rounds=session.round_no,
        user_cells=sum(1 for s in provenance.values() if s == "user"),
        rule_cells=sum(1 for s in provenance.values() if s == "rule"),
        normalized_cells=sum(s.normalized for seg in transcript for s in seg.steps),
        conflicts=len(session.conflicts),
        transcript=transcript,
    )


def one_at_a_time(reference):
    """A stand-in for the pass resolving each group with ``reference``."""

    def resolve(groups, ctx, manager):
        return [reference(g, ctx, manager, _TranscriptRecorder()) for g in groups], 0

    return resolve


@pytest.fixture()
def shadow(monkeypatch):
    """Every shard's pass checked against both references, group by
    group. Yields the list of compared outcomes (filled on the serial
    path; a process worker's assertion fails its shard)."""
    real = executor_mod._rule_pass
    compared: list[GroupOutcome] = []

    def checked(groups, ctx, manager):
        got, sweeps = real(groups, ctx, manager)
        assert len(got) == len(groups)
        for group, outcome in zip(groups, got):
            for reference in (chase_outcome, session_outcome):
                want = reference(group, ctx, manager, _TranscriptRecorder())
                assert outcome == want, f"group {group.representative}: {reference.__name__}"
        compared.extend(got)
        return got, sweeps

    monkeypatch.setattr(executor_mod, "_rule_pass", checked)
    return compared


@contextlib.contextmanager
def session_path():
    """The session path swapped in for the rule-only pass."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(executor_mod, "_rule_pass", one_at_a_time(session_outcome))
        yield


def _capture_outcomes(monkeypatch) -> list:
    """Collect the shard results the executor hands back, in the parent."""
    results = []
    real = ShardExecutor.run

    def capturing(self, shards, **kwargs):
        got = real(self, shards, **kwargs)
        results.extend(got)
        return got

    monkeypatch.setattr(ShardExecutor, "run", capturing)
    return results


def _run(case, monkeypatch, *, workers=1, strategy=SuggestionStrategy.CORE_FIRST, **kwargs):
    with monkeypatch.context() as m:
        results = _capture_outcomes(m)
        engine = CerFix(
            case.ruleset, case.master, strategy=strategy, mode=CertaintyMode.ANCHORED
        )
        if strategy is SuggestionStrategy.REGION:
            engine.precompute_regions(k=2)
        result = engine.clean_relation(
            case.dirty, validated=case.validated, workers=workers, shards=SHARDS, **kwargs
        )
    outcomes = [o for r in sorted(results, key=lambda r: r.shard_id) for o in r.outcomes]
    return {
        "fixed": result.relation.raw_tuples(),
        "audit": [e.to_json() for e in engine.audit],
        "report": normalize_report(result.report.to_json()),
        "outcomes": outcomes,
    }


def _assert_same_run(got, want):
    assert got["outcomes"] == want["outcomes"]
    assert got["fixed"] == want["fixed"]
    assert got["audit"] == want["audit"]
    assert got["report"] == want["report"]


def _with_constants(case):
    """The case's rule set plus constant, empty-pattern rules, so round 0
    fires: one validates ``type`` (which the patterns of ϕ4/ϕ5/ϕ7/ϕ8
    read), two disagree on ``item`` (a round-0 conflict)."""
    ruleset = case.ruleset.add(
        EditingRule("c_type", (), "type", Constant("2")),
        EditingRule("c_item", (), "item", Constant("Laptop")),
        EditingRule("c_item2", (), "item", Constant("Phone")),
    )
    return dataclasses.replace(case, ruleset=ruleset, validated=("type", "zip", "zip"))


CASES = {
    "uk-s3": lambda: generate_case(3, scenario="uk", with_truth=False),
    "uk-s11": lambda: generate_case(11, scenario="uk", with_truth=False, n=60),
    "hospital-s6": lambda: generate_case(6, scenario="hospital", with_truth=False),
    "hospital-s9": lambda: generate_case(9, scenario="hospital", with_truth=False),
    "uk-constants": lambda: _with_constants(generate_case(4, scenario="uk", with_truth=False)),
    # Nothing left to seed: no validated attributes, or only one that
    # round 0 already validated — no group chases past round 0.
    "uk-unseeded": lambda: dataclasses.replace(
        generate_case(2, scenario="uk", with_truth=False), validated=()
    ),
    "uk-seeded-by-round0": lambda: dataclasses.replace(
        _with_constants(generate_case(6, scenario="uk", with_truth=False)), validated=("type",)
    ),
    # zip is trusted but city is wrong on some rows: ϕ3 prescribes
    # another city for a validated one — conflicts.
    "uk-wrong-validated": lambda: dataclasses.replace(
        generate_case(4, scenario="uk", with_truth=False, rate=0.4), validated=("zip", "city")
    ),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return CASES[request.param]()


# -- group by group ------------------------------------------------------------


def test_each_group_matches_the_session(case, shadow, monkeypatch):
    run = _run(case, monkeypatch)
    assert len(shadow) == len(run["outcomes"]) > 0
    assert shadow == run["outcomes"]


@pytest.mark.parametrize("strategy", list(SuggestionStrategy))
def test_every_strategy(strategy, shadow, monkeypatch):
    case = generate_case(7, scenario="uk", with_truth=False)
    run = _run(case, monkeypatch, strategy=strategy)
    assert len(shadow) == len(run["outcomes"]) > 0


def _assert_stamps_name_the_pass(run, path):
    """Every rule-only fix names the ``rule-pass`` span of its shard:
    one per shard, with the shard's group and sweep counts, and no
    per-group ``group-chase`` span."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    passes = {s["span"]: s for s in spans if s["name"] == "rule-pass"}
    assert len(passes) == SHARDS
    assert sum(s["attrs"]["groups"] for s in passes.values()) == len(run["outcomes"])
    assert all(s["attrs"]["sweeps"] >= 1 for s in passes.values())
    assert not any(s["name"] == "group-chase" for s in spans)
    assert run["audit"] and all(e["span_id"] in passes for e in run["audit"])


def _traced_run(monkeypatch, path, **kwargs):
    case = _with_constants(generate_case(4, scenario="uk", with_truth=False))
    trace.configure(path)
    try:
        return _run(case, monkeypatch, **kwargs)
    finally:
        trace.disable()


def test_traced_groups_keep_their_span_stamps(shadow, monkeypatch, tmp_path):
    run = _traced_run(monkeypatch, tmp_path / "spans.jsonl")
    assert len(shadow) == len(run["outcomes"])
    _assert_stamps_name_the_pass(run, tmp_path / "spans.jsonl")


def test_traced_process_workers_stamp_their_pass(monkeypatch, tmp_path):
    run = _traced_run(monkeypatch, tmp_path / "spans.jsonl", workers=PARITY_WORKERS)
    _assert_stamps_name_the_pass(run, tmp_path / "spans.jsonl")


def test_constant_rules_fire_in_round_zero(monkeypatch):
    case = CASES["uk-constants"]()
    run = _run(case, monkeypatch)
    round0 = [e for e in run["audit"] if e["round_no"] == 0]
    assert {e["attr"] for e in round0} == {"type", "item"}
    assert all(o.conflicts >= 1 for o in run["outcomes"])
    # type came from round 0, so only zip is user-assured
    assert all(o.user_cells == 1 for o in run["outcomes"])


def test_wrong_validated_value_yields_conflicts(monkeypatch):
    run = _run(CASES["uk-wrong-validated"](), monkeypatch)
    assert run["report"]["conflicts"] > 0


# -- whole runs against the reference ----------------------------------------------


@pytest.mark.parametrize("workers", [1, PARITY_WORKERS])
def test_run_matches_the_session_path(case, monkeypatch, workers):
    with session_path():
        want = _run(case, monkeypatch)
    _assert_same_run(_run(case, monkeypatch, workers=workers), want)


@pytest.mark.parametrize("strategy", list(SuggestionStrategy))
def test_run_matches_under_every_strategy(strategy, monkeypatch):
    case = generate_case(8, scenario="uk", with_truth=False)
    with session_path():
        want = _run(case, monkeypatch, strategy=strategy)
    _assert_same_run(_run(case, monkeypatch, strategy=strategy, workers=PARITY_WORKERS), want)


def test_session_path_journal_resumes(case, monkeypatch, tmp_path):
    """A journal the session path wrote (as 1.13 did) resumes shard for
    shard: the GroupOutcome JSON format did not change."""
    journal = tmp_path / "clean.journal"
    with session_path():
        want = _run(case, monkeypatch, journal_path=journal)
    with monkeypatch.context() as m:
        m.setattr(executor_mod, "_rule_pass", None)  # nothing may re-run
        got = _run(case, monkeypatch, journal_path=journal)
    assert got["outcomes"] == []  # every shard came back from the journal
    for key in ("fixed", "audit", "report"):
        assert got[key] == want[key]


def test_no_session_and_no_suggestion(monkeypatch):
    calls = {"suggest": 0}
    real = session_mod.compute_suggestion

    def counting(*args, **kwargs):
        calls["suggest"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(session_mod, "compute_suggestion", counting)
    monkeypatch.setattr(executor_mod, "MonitorSession", None)
    run = _run(generate_case(3, scenario="uk", with_truth=False), monkeypatch)
    assert run["outcomes"] and calls["suggest"] == 0


# -- the chase-latency histogram ---------------------------------------------------


@pytest.mark.parametrize("name", ["uk-s3", "uk-constants", "hospital-s6"])
def test_chase_histogram_counts_each_chase(name, monkeypatch):
    """One sample per rule pass, a shard's set-at-a-time chase, and
    none per group: the pass runs no per-state chase."""
    case = CASES[name]()
    chases = {"n": 0}
    real = session_mod.chase

    def counting(*args, **kwargs):
        chases["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(session_mod, "chase", counting)
    histogram = get_registry().histogram("cerfix.chase.seconds")
    before = histogram.totals()[0]
    run = _run(case, monkeypatch)
    assert sum(1 for o in run["outcomes"] if o.rounds == 1) > 0
    shards = min(SHARDS, len(run["outcomes"]))
    assert histogram.totals()[0] - before == shards
    assert chases["n"] == 0


# -- paged DB cleans --------------------------------------------------------------


def _archive(path, run_id):
    table = DirtyTable(path)
    conn = table.backend.connect(readonly=True)
    try:
        return ChangeArchive(table).changes(conn, run_id)
    finally:
        conn.close()


def _table(path):
    table = DirtyTable(path)
    conn = table.backend.connect(readonly=True)
    try:
        return table.read_relation(conn).raw_tuples()
    finally:
        conn.close()


@pytest.mark.parametrize("page_rows", [1, 64, 4096])
def test_paged_clean_matches_the_session_path(page_rows, shadow, tmp_path):
    case = _with_constants(generate_case(12, scenario="uk", with_truth=False, n=80))

    def run(path):
        DirtyTable.create(path, case.dirty)
        engine = CerFix(case.ruleset, case.master)
        result = engine.clean_table(path, page_rows=page_rows, validated=case.validated)
        return result, _archive(path, result.run_id), _table(path), engine.audit

    with session_path():
        want, want_rows, want_table, want_audit = run(tmp_path / "parent.db")
    got, rows, table, audit = run(tmp_path / "change.db")
    assert len(shadow) > 0
    assert got.changed_cells == want.changed_cells == len(rows) > 0
    assert rows == want_rows
    assert table == want_table
    assert [e.to_json() for e in audit] == [e.to_json() for e in want_audit]
