"""Grouping rows on the values a repair validates changes no fix.

The planner keys a batch group on what the repair validates from the
row: the truth values with an oracle user, the dirty seed values in a
rule-only run (:mod:`repro.batch.planner`). Members of one group may
differ in every dirty cell, and the pipeline rebinds each member's own
values onto the group's transcript. The reference is ``dedupe=False``:
every row is its own group, resolved from its own input. The two must
give identical fixed rows, per-tuple audit events (every field but
``seq`` and the trace/span ids, which name each run's own group spans),
changed-cell counts and report counters.

CI runs this file in the ``store-parity`` leg with 4 process workers
(``CERFIX_PARITY_WORKERS``).
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro import CerFix
from repro.batch.planner import build_plan, repair_signature, transcript_projection
from repro.core.certainty import CertaintyMode
from repro.dirty import ChangeArchive, DirtyTable
from repro.master.conformance import generate_case, run_conformance, store_factories
from repro.monitor.suggest import SuggestionStrategy

PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "2"))
SHARDS = 8  # fixed, so serial and process runs share one plan

REPORT_KEYS = (
    "tuples", "changed_cells", "completed", "conflicts",
    "user_cells", "rule_cells", "normalized_cells",
)


def _fixes(engine, result) -> dict:
    """What parity is asserted over, for one batch clean."""
    events = {
        f"t{i}": [
            dataclasses.replace(e, seq=0, trace_id=None, span_id=None)
            for e in engine.audit.by_tuple(f"t{i}")
        ]
        for i in range(len(result.relation))
    }
    return {
        "fixed": result.relation.raw_tuples(),
        "events": events,
        "report": {k: getattr(result.report, k) for k in REPORT_KEYS},
    }


def _clean(case, *, dedupe, strategy=SuggestionStrategy.CORE_FIRST,
           mode=CertaintyMode.ANCHORED, regions_k=0, scenario=None, validated=None,
           **kwargs):
    engine = CerFix(
        case.ruleset, case.master, strategy=strategy, mode=mode, scenario=scenario
    )
    if regions_k:
        engine.precompute_regions(k=regions_k)
    result = engine.clean_relation(
        case.dirty,
        case.truth,
        validated=case.validated if validated is None else validated,
        dedupe=dedupe,
        shards=SHARDS,
        **kwargs,
    )
    return result, _fixes(engine, result)


def assert_same_fixes(case, **kwargs):
    """The grouped clean equals the one-row-per-group clean; returns the
    grouped run's report."""
    grouped, got = _clean(case, dedupe=True, **kwargs)
    plain, want = _clean(case, dedupe=False, **kwargs)
    assert plain.report.groups == len(case.dirty)
    assert got["fixed"] == want["fixed"]
    for tid, events in want["events"].items():
        assert got["events"][tid] == events, tid
    assert got["report"] == want["report"]
    return grouped.report


def _distinct_rows(case) -> int:
    return len(set(case.dirty.raw_tuples()))


UK = [generate_case(s, scenario="uk", n=60) for s in (3, 5, 11)]
HOSPITAL = [generate_case(s, scenario="hospital", n=60) for s in (6, 21)]
RULE_ONLY = [
    generate_case(s, scenario=sc, n=60, with_truth=False)
    for sc, s in (("uk", 3), ("uk", 5), ("hospital", 6), ("hospital", 21))
]


@pytest.mark.parametrize("case", UK + HOSPITAL + RULE_ONLY, ids=lambda c: c.name)
def test_plan_groups_rows_by_repair_signature(case):
    """The column-wise planner groups exactly as the per-row spec."""
    validated = case.validated
    schema = case.dirty.schema
    projection = transcript_projection(case.ruleset)
    plan = build_plan(case.dirty, case.truth, projection=projection, validated=validated)
    want: dict[tuple, list[int]] = {}
    for i, row in enumerate(case.dirty.rows()):
        truth = case.truth.row(i).to_dict() if case.truth is not None else None
        sig = repair_signature(row.to_dict(), truth, schema, projection, validated)
        want.setdefault(sig, []).append(i)
    assert [g.members for g in plan.groups] == [tuple(m) for m in want.values()]


@pytest.mark.parametrize("case", UK + HOSPITAL + RULE_ONLY, ids=lambda c: c.name)
def test_groups_fix_like_single_rows(case):
    report = assert_same_fixes(case)
    # Groups are keyed beyond the dirty row: fewer groups than distinct rows.
    assert report.groups < _distinct_rows(case)


@pytest.mark.parametrize("case", [UK[0], RULE_ONLY[0]], ids=lambda c: c.name)
def test_process_workers(case):
    report = assert_same_fixes(case, workers=PARITY_WORKERS)
    assert report.backend == "process"


@pytest.mark.parametrize("strategy", list(SuggestionStrategy), ids=lambda s: s.value)
def test_every_strategy_with_regions(strategy):
    assert_same_fixes(UK[1], strategy=strategy, regions_k=2)


@pytest.mark.parametrize("case", UK, ids=lambda c: c.name)
def test_semantic_suggestions_under_scenario_mode(case):
    """A SCENARIO-mode semantic suggestion filters the scenario by every
    validated value, so the signature covers the whole schema. Here the
    seed validates the payload ``item``, and the scenario holds only
    every other truth row: a member whose ``item`` is missing from it
    gets a different suggestion than one whose ``item`` is there."""
    universe = [r.to_dict() for r in case.truth.rows()][::2]
    report = assert_same_fixes(
        case,
        strategy=SuggestionStrategy.SEMANTIC,
        mode=CertaintyMode.SCENARIO,
        scenario=lambda: iter(universe),
        validated=("zip", "item"),
    )
    assert report.groups == len(set(case.truth.raw_tuples()))


@pytest.mark.parametrize("case", [UK[0], RULE_ONLY[1]], ids=lambda c: c.name)
def test_seed_with_a_payload_attribute(case):
    """A seed column no rule reads stays outside the signature: each
    member's user event on it carries its own answer."""
    report = assert_same_fixes(case, validated=("zip", "item"))
    assert report.groups < _distinct_rows(case)


def test_max_rounds_leaves_sessions_incomplete():
    report = assert_same_fixes(UK[0], max_rounds=1)
    assert report.completed < report.tuples


def test_run_conformance_on_grouped_cases(tmp_path):
    for case in (UK[0], RULE_ONLY[0]):
        paths = ("monitor", "batch", "service") if case.truth is not None else ("batch",)
        run_conformance(case, store_factories(case, tmp_path), paths=paths)


def _paged(case, path, page_rows, dedupe):
    DirtyTable.create(path, case.dirty)
    engine = CerFix(case.ruleset, case.master)
    result = engine.clean_table(
        path, page_rows=page_rows, validated=case.validated, dedupe=dedupe
    )
    table = DirtyTable(path)
    conn = table.backend.connect(readonly=True)
    try:
        fixed = table.read_relation(conn).raw_tuples()
        archive = [
            dataclasses.replace(row, trace_id=None, span_id=None)
            for row in ChangeArchive(table).changes(conn, result.run_id)
        ]
    finally:
        conn.close()
    return result.changed_cells, fixed, archive


@pytest.mark.parametrize("page_rows", [1, 64, 4096])
def test_paged_clean(page_rows, tmp_path):
    case = RULE_ONLY[2]
    got = _paged(case, tmp_path / "grouped.db", page_rows, dedupe=True)
    want = _paged(case, tmp_path / "plain.db", page_rows, dedupe=False)
    assert got == want
    assert got[0] > 0
