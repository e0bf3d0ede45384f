"""Unit tests for the master data manager."""

import pytest

from repro.core.rule import Constant, EditingRule, MasterColumn, MatchPair
from repro.errors import MasterDataError
from repro.master.manager import MasterDataManager, MasterMatch
from repro.relational.relation import Relation
from repro.relational.schema import Schema

MASTER = Schema("m", ["key", "value"])


@pytest.fixture()
def manager():
    return MasterDataManager(
        Relation(MASTER, [("k1", "v1"), ("k2", "v2"), ("k3", "v2"), ("k3", "v3")])
    )


def lookup_rule(op="exact"):
    return EditingRule(
        "r", (MatchPair("a", "key", op),), "b", MasterColumn("value")
    )


class TestMasterMatch:
    def test_unique(self):
        m = MasterMatch((0,), ("v1",))
        assert m.is_unique and not m.is_empty
        assert m.value == "v1"

    def test_empty(self):
        assert MasterMatch((), ()).is_empty

    def test_ambiguous_value_raises(self):
        with pytest.raises(MasterDataError):
            MasterMatch((2, 3), ("v2", "v3")).value


class TestMatch:
    def test_unique_match(self, manager):
        m = manager.match(lookup_rule(), {"a": "k1"})
        assert m.positions == (0,)
        assert m.value == "v1"

    def test_no_match(self, manager):
        assert manager.match(lookup_rule(), {"a": "zz"}).is_empty

    def test_ambiguous_match(self, manager):
        m = manager.match(lookup_rule(), {"a": "k3"})
        assert m.positions == (2, 3)
        assert not m.is_unique
        assert set(m.values) == {"v2", "v3"}

    def test_duplicate_rows_same_value_is_unique(self):
        mgr = MasterDataManager(Relation(MASTER, [("k", "v"), ("k", "v")]))
        m = mgr.match(lookup_rule(), {"a": "k"})
        assert m.is_unique and len(m.positions) == 2

    def test_constant_rule(self, manager):
        rule = EditingRule("c", (), "b", Constant("fixed"))
        m = manager.match(rule, {})
        assert m.values == ("fixed",)

    def test_scan_equals_index(self, manager):
        rule = lookup_rule()
        for key in ("k1", "k3", "zz"):
            indexed = manager.match(rule, {"a": key}, use_index=True)
            scanned = manager.match(rule, {"a": key}, use_index=False)
            assert indexed.positions == scanned.positions
            assert indexed.values == scanned.values

    def test_normalised_match(self):
        mgr = MasterDataManager(Relation(MASTER, [("EH8 4AH", "v")]))
        m = mgr.match(lookup_rule(op="alnum"), {"a": "eh84ah"})
        assert m.value == "v"


class TestDiagnostics:
    def test_ambiguous_keys(self, manager):
        amb = manager.ambiguous_keys(lookup_rule())
        assert list(amb) == [("k3",)]
        assert amb[("k3",)] == ("v2", "v3")

    def test_ambiguous_keys_consistent_duplicates_ok(self):
        mgr = MasterDataManager(Relation(MASTER, [("k", "v"), ("k", "v")]))
        assert mgr.ambiguous_keys(lookup_rule()) == {}

    def test_ambiguous_keys_constant_rule(self, manager):
        rule = EditingRule("c", (), "b", Constant("x"))
        assert manager.ambiguous_keys(rule) == {}

    def test_row_access(self, manager):
        assert manager.row(0)["value"] == "v1"

    def test_len(self, manager):
        assert len(manager) == 4

    def test_prebuild_builds_rule_indexes(self, paper_ruleset, paper_master):
        mgr = MasterDataManager(paper_master)
        mgr.prebuild(paper_ruleset)
        # every rule's index spec is now cached on the relation
        for attrs, ops in paper_ruleset.index_specs():
            assert mgr.relation.index_on(attrs, ops) is mgr.relation.index_on(attrs, ops)


class TestContentDigest:
    def test_hashed_once_per_version(self, manager, monkeypatch):
        import repro.master.store as store_mod

        scans = []
        real = store_mod._relation_digest
        monkeypatch.setattr(
            store_mod, "_relation_digest", lambda rel: scans.append(rel) or real(rel)
        )
        first = manager.content_digest()
        assert manager.content_digest() == manager.content_digest() == first
        assert len(scans) == 1
        manager.relation.update_cell(0, "value", "v9")
        changed = manager.content_digest()
        assert changed != first and len(scans) == 2
        assert changed == real(manager.relation)
        manager.relation.update_cell(0, "value", "v1")
        assert manager.content_digest() == first and len(scans) == 3


class TestMatchMany:
    """``match_many`` answers a (rule, rows) batch in one store call; it
    must equal a per-key ``probe`` for every row, memo included."""

    @pytest.fixture(params=["single", "sqlite"])
    def pair(self, request, tmp_path):
        """Two stores of one backend over equal master relations: one
        probed per key, one through ``match_many``."""
        from repro.master.store import SingleRelationStore, SqliteMasterStore

        def fresh(name):
            rel = Relation(MASTER, [("k1", "v1"), ("k2", "v2"), ("k3", "v2"), ("k3", "v3")])
            if request.param == "single":
                return SingleRelationStore(rel)
            return SqliteMasterStore(tmp_path / f"{name}.db", relation=rel)

        return fresh("per-key"), MasterDataManager(fresh("batched"))

    ROWS = [{"a": k} for k in ("k1", "k3", "zz", "k1", "K2", "k2", "zz")]

    @pytest.mark.parametrize("use_index", [True, False])
    @pytest.mark.parametrize("op", ["exact", "casefold"])
    def test_equals_per_key_probes(self, pair, use_index, op):
        per_key, batched = pair
        rule = lookup_rule(op)
        want = [per_key.probe(rule, v, use_index=use_index) for v in self.ROWS]
        assert batched.match_many(rule, self.ROWS, use_index=use_index) == want
        # a second batch answers from the memo, with the same matches
        assert batched.match_many(rule, self.ROWS, use_index=use_index) == want
        assert [batched.match(rule, v, use_index=use_index) for v in self.ROWS] == want

    def test_unhashable_cell(self, pair):
        per_key, batched = pair
        rule, rows = lookup_rule(), [{"a": "k1"}, {"a": ["k1"]}, {"a": "k2"}]
        want = [per_key.probe(rule, v, use_index=False) for v in rows]
        assert batched.match_many(rule, rows, use_index=False) == want
        assert want[1].is_empty
        with pytest.raises(TypeError):  # an index cannot bucket it either way
            per_key.probe(rule, rows[1])
        with pytest.raises(TypeError):
            batched.match_many(rule, rows)

    def test_probe_after_apply_update(self, pair):
        per_key, batched = pair
        rule = lookup_rule()
        assert batched.match_many(rule, self.ROWS)[2].is_empty  # fills the memo
        for store in (per_key, batched.store):
            store.apply_update(add=[{"key": "zz", "value": "v9"}], remove=[0])
        want = [per_key.probe(rule, v) for v in self.ROWS]
        got = batched.match_many(rule, self.ROWS)
        assert got == want
        assert got[0].is_empty and got[2].value == "v9"

    def test_a_probe_override_is_probed_through(self):
        """A store subclass that overrides ``probe`` sees every row of a
        batch, so a wrapped or faulty probe cannot be bypassed."""
        from repro.master.store import SingleRelationStore

        seen = []

        class Counting(SingleRelationStore):
            def probe(self, rule, values, *, use_index=True):
                seen.append(values)
                return super().probe(rule, values, use_index=use_index)

        rel = Relation(MASTER, [("k1", "v1"), ("k2", "v2"), ("k3", "v2"), ("k3", "v3")])
        want = [SingleRelationStore(rel).probe(lookup_rule(), v) for v in self.ROWS]
        assert MasterDataManager(Counting(rel)).match_many(lookup_rule(), self.ROWS) == want
        assert seen == self.ROWS
