"""Every entry point cleans a relation whose columns are the input
schema's in another order exactly as it cleans the in-order relation.

The pipeline reads cells by input-schema position, so each entry point
must bring a reordered relation or table into schema order by name (or
refuse it with a typed error) before any cell is read. Each test runs
the reversed columns against the in-order run and compares by name.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import CerFix
from repro.dirty import ChangeArchive, DirtyTable
from repro.errors import CerFixError
from repro.master.conformance import generate_case
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture(scope="module")
def case():
    return generate_case(5, scenario="uk", n=20)


def reversed_columns(relation: Relation) -> Relation:
    names = relation.schema.names[::-1]
    rows = [tuple(reversed(t)) for t in relation.raw_tuples()]
    return Relation(Schema(relation.schema.name, names), rows)


def by_name(relation: Relation) -> list[dict]:
    return [dict(zip(relation.schema.names, t)) for t in relation.raw_tuples()]


def audit(engine) -> list[dict]:
    return [e.to_json() for e in engine.audit]


@pytest.mark.parametrize("truth", [False, True], ids=["rule-only", "oracle"])
def test_clean_relation(case, truth):
    def run(dirty, answers):
        engine = CerFix(case.ruleset, case.master)
        result = engine.clean_relation(dirty, answers, validated=("zip",), shards=4)
        return engine, result

    want_engine, want = run(case.dirty, case.truth if truth else None)
    got_engine, got = run(
        reversed_columns(case.dirty), reversed_columns(case.truth) if truth else None
    )
    assert got.report.changed_cells == want.report.changed_cells > 0
    assert by_name(got.relation) == by_name(want.relation)
    assert got.relation.schema.names == case.ruleset.input_schema.names
    assert got.changes == want.changes
    assert audit(got_engine) == audit(want_engine)


def test_clean_relation_refuses_other_columns(case):
    other = case.dirty.project(case.dirty.schema.names[1:])
    with pytest.raises(CerFixError, match="missing"):
        CerFix(case.ruleset, case.master).clean_relation(other, validated=("zip",))
    truth = case.truth.project(case.truth.schema.names[1:])
    with pytest.raises(CerFixError, match="truth relation"):
        CerFix(case.ruleset, case.master).clean_relation(case.dirty, truth)


def test_stream(case):
    def run(dirty, truth):
        engine = CerFix(case.ruleset, case.master)
        return engine, engine.stream(dirty, truth)

    want_engine, want = run(case.dirty, case.truth)
    got_engine, got = run(reversed_columns(case.dirty), reversed_columns(case.truth))
    assert got.outcomes == want.outcomes
    assert audit(got_engine) == audit(want_engine)


def test_clean_table(case, tmp_path):
    def run(path, dirty):
        DirtyTable.create(path, dirty)
        engine = CerFix(case.ruleset, case.master)
        result = engine.clean_table(path, page_rows=8, validated=("zip",))
        table = DirtyTable(path)
        conn = table.backend.connect(readonly=True)
        try:
            rows = table.read_relation(conn)
            archive = ChangeArchive(table).changes(conn, result.run_id)
        finally:
            conn.close()
        return result, by_name(rows), [(c.row_key, c.column, c.old, c.new) for c in archive]

    want, want_rows, want_archive = run(tmp_path / "in-order.db", case.dirty)
    got, got_rows, got_archive = run(tmp_path / "reversed.db", reversed_columns(case.dirty))
    assert got.changed_cells == want.changed_cells > 0
    assert got_rows == want_rows
    assert got_archive == want_archive


def test_post_api_clean(case):
    def post(engine, rows, truth):
        body = json.dumps({"rows": rows, "truth": truth, "validated": ["zip"]})
        with engine.serve_async(port=0) as server:
            req = urllib.request.Request(
                f"{server.url}/api/clean", data=body.encode("utf-8"), method="POST"
            )
            with urllib.request.urlopen(req) as resp:
                return json.loads(resp.read())

    engine = CerFix(case.ruleset, case.master)
    want = post(engine, by_name(case.dirty), by_name(case.truth))
    got = post(
        engine, by_name(reversed_columns(case.dirty)), by_name(reversed_columns(case.truth))
    )
    assert got["rows"] == want["rows"]
    assert got["report"]["changed_cells"] == want["report"]["changed_cells"] > 0
