"""Unit tests for repro.relational.relation."""

import pickle

import pytest

from repro.errors import RelationError
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema


@pytest.fixture()
def schema():
    return Schema("r", ["a", "b"])


@pytest.fixture()
def rel(schema):
    return Relation(schema, [(1, "x"), (2, "y"), (3, "x")])


class TestConstruction:
    def test_from_tuples(self, rel):
        assert len(rel) == 3

    def test_from_dicts(self, schema):
        r = Relation(schema, [{"a": 1, "b": "x"}])
        assert r.row(0).values == (1, "x")

    def test_from_rows(self, schema):
        row = Row(schema, (7, "q"))
        assert Relation(schema, [row]).row(0) == row

    def test_row_of_wrong_schema_rejected(self, schema):
        other = Schema("other", ["a", "b"])
        with pytest.raises(RelationError):
            Relation(schema, [Row(other, (1, 2))])

    def test_arity_mismatch_rejected(self, schema):
        with pytest.raises(RelationError, match="arity"):
            Relation(schema, [(1, 2, 3)])


class TestMutation:
    def test_append_returns_position(self, rel):
        assert rel.append((4, "z")) == 3

    def test_extend(self, rel):
        rel.extend([(4, "z"), (5, "w")])
        assert len(rel) == 5

    def test_update_cell(self, rel):
        rel.update_cell(1, "b", "Q")
        assert rel.row(1)["b"] == "Q"

    def test_update_cell_bad_position(self, rel):
        with pytest.raises(RelationError):
            rel.update_cell(99, "b", "Q")

    def test_append_invalidates_index(self, rel):
        assert len(rel.lookup(("b",), ("z",))) == 0
        rel.append((9, "z"))
        assert len(rel.lookup(("b",), ("z",))) == 1

    def test_update_cell_invalidates_index(self, rel):
        assert len(rel.lookup(("b",), ("x",))) == 2
        rel.update_cell(0, "b", "y")
        assert len(rel.lookup(("b",), ("x",))) == 1


class TestPatched:
    """``patched`` equals a relation built from the patched rows, and
    leaves its input as it was."""

    @pytest.fixture()
    def wide(self):
        schema = Schema("w", ["a", "b", "c"])
        rows = [(1, "EH8 4AH", "x"), (2, "eh8 4ah", "y"), (3, "G1 1AA", "x"), (4, "x", 1)]
        return Relation(schema, rows)

    # (column, positions, values) runs: a new value, an existing one, a
    # type the column lacks (1.0 equals the 1 in column c but must decode
    # as a float), and one cell twice.
    RUNS = [(1, [0, 2], ["G1 1AA", "EH1 1AA"]), (2, [1], [1.0]), (0, [3, 3], [9, 7])]

    def test_equals_the_rebuilt_relation(self, wide):
        wide.index_on(("b",), ops=("alnum",))  # a normalised array the copy must extend
        before = (wide.raw_tuples()[:], [list(d) for d in map(wide.dictionary, "abc")])
        rows = [list(r) for r in wide.raw_tuples()]
        for col, positions, values in self.RUNS:
            for position, value in zip(positions, values):
                rows[position][col] = value
        want = Relation(wide.schema, [tuple(r) for r in rows])
        got = wide.patched(self.RUNS)
        for rel in (got, pickle.loads(pickle.dumps(got))):
            assert rel.raw_tuples() == want.raw_tuples()
            assert [type(v) for v in rel.column("c")] == [str, float, str, int]
            for name in wide.schema.names:
                assert rel.column(name) == want.column(name)
                assert rel.active_domain(name) == want.active_domain(name)
            for value in ("eh11aa", "g11aa", "eh84ah"):
                assert rel.lookup(("b",), (value,), ops=("alnum",)) == want.lookup(
                    ("b",), (value,), ops=("alnum",)
                )
            assert rel.lookup(("a", "c"), (7, "x")) == want.lookup(("a", "c"), (7, "x"))
        # The input is as it was, dictionaries included.
        assert wide.raw_tuples() == before[0]
        assert [list(d) for d in map(wide.dictionary, "abc")] == before[1]
        assert len(wide.lookup(("b",), ("g11aa",), ops=("alnum",))) == 1

    def test_no_cells_is_a_copy(self, wide):
        got = wide.patched([])
        assert got is not wide and got.raw_tuples() == wide.raw_tuples()
        got.update_cell(0, "a", 5)
        assert wide.row(0)["a"] == 1

    def test_bad_cell_rejected(self, wide):
        with pytest.raises(RelationError, match="no row 9"):
            wide.patched([(0, [9], [1])])


class TestAccess:
    def test_row(self, rel):
        assert rel.row(1)["b"] == "y"

    def test_row_out_of_range(self, rel):
        with pytest.raises(RelationError):
            rel.row(10)

    def test_rows_are_views(self, rel):
        assert [r["a"] for r in rel.rows()] == [1, 2, 3]

    def test_tuples_is_copy(self, rel):
        t = rel.tuples()
        t.append((9, "q"))
        assert len(rel) == 3

    def test_column(self, rel):
        assert rel.column("b") == ["x", "y", "x"]

    def test_active_domain(self, rel):
        assert rel.active_domain("b") == {"x", "y"}

    def test_iter(self, rel):
        assert len(list(rel)) == 3


class TestQueries:
    def test_project(self, rel):
        p = rel.project(["b"])
        assert p.schema.names == ("b",)
        assert p.column("b") == ["x", "y", "x"]

    def test_select(self, rel):
        s = rel.select(lambda r: r["b"] == "x")
        assert len(s) == 2

    def test_lookup_matches_scan(self, rel):
        assert rel.lookup(("b",), ("x",)) == rel.scan_lookup(("b",), ("x",))

    def test_lookup_multi_attr(self, rel):
        assert len(rel.lookup(("a", "b"), (3, "x"))) == 1

    def test_lookup_with_ops(self, schema):
        r = Relation(schema, [(1, "EH8 4AH")])
        assert len(r.lookup(("b",), ("eh84ah",), ops=("alnum",))) == 1
        assert len(r.lookup(("b",), ("eh84ah",))) == 0

    def test_scan_lookup_with_ops(self, schema):
        r = Relation(schema, [(1, "EH8 4AH")])
        assert len(r.scan_lookup(("b",), ("eh84ah",), ops=("alnum",))) == 1

    def test_index_is_cached(self, rel):
        i1 = rel.index_on(("b",))
        i2 = rel.index_on(("b",))
        assert i1 is i2

    def test_index_per_ops(self, rel):
        assert rel.index_on(("b",)) is not rel.index_on(("b",), ops=("casefold",))

    def test_repr(self, rel):
        assert "3 rows" in repr(rel)
