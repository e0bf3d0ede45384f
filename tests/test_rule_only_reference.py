"""Rule-only cleans against an independent, deliberately naive reference.

Every cleaning path shares :mod:`repro.core.chase`, so parity between
paths cannot catch a chase bug. The reference below re-derives a
rule-only clean from the chase's documented semantics, over plain dicts
keyed by attribute name:

- a rule is ready once every attribute it reads (its match attributes
  and its pattern's) is validated, and its pattern holds;
- its value is its constant, or the one value (by ``==``, first in
  master order) that the master tuples matching the input under its
  operators agree on; no match or disagreement blocks it;
- a ready rule fixes an unvalidated target and validates it; over a
  validated target it changes nothing (the chase's conflict check only
  reports), except that a self-normalising rule (one reading its own
  target) rewrites it once;
- rules run in the rule set's order, sweep after sweep, to a fixpoint.

A rule-only clean chases each row from nothing validated, then, if the
row is not fully validated and a trusted ``validated`` attribute is not
yet validated, validates those and chases again. Master matches are a
linear scan with :func:`~repro.relational.normalize.normalize_value`;
no chase, store, planner, index or columnar code is used.

``clean_relation`` must give the reference's fixed rows and its
changed-cell count (every write that changed a value) on 2,000 seeded
small cases whose input columns come in a random order, serially and,
on some, with ``CERFIX_PARITY_WORKERS`` process workers (4 in CI's
``store-parity`` leg). ``clean_table`` on a subset, at 1 and 3 rows per
page, must leave the reference's table and count each cell whose final
value differs from its input.
"""

from __future__ import annotations

import os
import random

from repro import CerFix
from repro.core.pattern import Eq, NotIn, PatternTuple
from repro.core.rule import Constant, EditingRule, MasterColumn, MatchPair
from repro.core.ruleset import RuleSet
from repro.dirty import DirtyTable
from repro.relational.normalize import normalize_value
from repro.relational.relation import Relation
from repro.relational.schema import Schema

PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "2"))
CASES = 2000

#: Values two of which collide under ``casefold``, and equal numbers of
#: two types, so keys repeat, patterns both hold and fail, and master
#: tuples share keys and disagree.
ALPHABET = ("x", "X", "y", "z", "", 1, 1.0)
MASTER = Schema("m", ["m0", "m1", "m2"])


# -- the reference -----------------------------------------------------------


def _pattern_holds(rule: EditingRule, state: dict) -> bool:
    for attr, cond in rule.pattern.items():
        value = state[attr]
        if isinstance(cond, Eq) and not value == cond.value:
            return False
        if isinstance(cond, NotIn) and value in cond.values:
            return False
    return True


def _agreed_value(rule: EditingRule, state: dict, master: list[dict]) -> list:
    """The distinct correction values, by ``==`` in master order, of the
    master tuples matching ``state`` (the constant for a constant rule)."""
    if isinstance(rule.source, Constant):
        return [rule.source.value]
    values: list = []
    for tuple_ in master:
        if all(
            normalize_value(state[p.t_attr], p.op) == normalize_value(tuple_[p.m_attr], p.op)
            for p in rule.match
        ):
            if tuple_[rule.source.name] not in values:
                values.append(tuple_[rule.source.name])
    return values


def reference_chase(state: dict, validated: set, rules, master) -> int:
    """Chase ``state`` in place to a fixpoint, growing ``validated``;
    returns how many writes changed a value."""
    changed, normalized, progress = 0, set(), True
    while progress:
        progress = False
        for rule in rules:
            reads = {p.t_attr for p in rule.match} | set(rule.pattern.attrs)
            if not reads <= validated:
                continue
            self_normalizing = rule.target in reads
            if rule.target in validated and not (
                self_normalizing and rule.rule_id not in normalized
            ):
                continue  # at most a conflict to report
            if not _pattern_holds(rule, state):
                continue
            values = _agreed_value(rule, state, master)
            if len(values) != 1:
                continue  # no match, or the uniqueness gate
            value = values[0]
            if rule.target in validated:  # a self-normalising rewrite, once
                normalized.add(rule.rule_id)
                if value != state[rule.target]:
                    changed += 1
                    state[rule.target] = value
                    progress = True
                continue
            changed += value != state[rule.target]
            state[rule.target] = value
            validated.add(rule.target)
            progress = True
    return changed


def reference_clean(row: dict, trusted, rules, master) -> tuple[dict, int]:
    """One row's rule-only clean: its fixed values and changed writes."""
    state, validated = dict(row), set()
    changed = reference_chase(state, validated, rules, master)
    seed = [a for a in dict.fromkeys(trusted) if a not in validated]
    if seed and len(validated) < len(state):
        validated.update(seed)
        changed += reference_chase(state, validated, rules, master)
    return state, changed


# -- random cases ------------------------------------------------------------


def _pattern(rng: random.Random, attrs) -> PatternTuple:
    attr, value = rng.choice(attrs), rng.choice(ALPHABET)
    return PatternTuple({attr: Eq(value) if rng.random() < 0.5 else NotIn({value})})


def random_case(rng: random.Random):
    """(rule set, master, dirty relation with shuffled columns, trusted)."""
    attrs = [f"a{i}" for i in range(rng.randint(2, 5))]
    master_rows = [
        tuple(rng.choice(ALPHABET) for _ in MASTER.names) for _ in range(rng.randint(1, 6))
    ]
    rules = []
    for i in range(rng.randint(2, 7)):
        kind = rng.random()
        target = rng.choice(attrs)
        pattern = _pattern(rng, attrs) if rng.random() < 0.4 else PatternTuple()
        if kind < 0.2:  # a constant, often reading nothing
            pairs = () if rng.random() < 0.6 else (MatchPair(rng.choice(attrs), "m0"),)
            rules.append(EditingRule(f"c{i}", pairs, target, Constant(rng.choice(ALPHABET)),
                                     pattern))
            continue
        lhs = rng.sample(attrs, rng.randint(1, min(2, len(attrs))))
        if kind < 0.4:  # self-normalising
            target = rng.choice(lhs)
        pairs = tuple(
            MatchPair(a, f"m{j}", rng.choice(("exact", "casefold"))) for j, a in enumerate(lhs)
        )
        rules.append(EditingRule(f"r{i}", pairs, target, MasterColumn(rng.choice(MASTER.names)),
                                 pattern))
    rng.shuffle(rules)
    ruleset = RuleSet(rules, Schema("t", attrs), MASTER)
    pool = [tuple(rng.choice(ALPHABET) for _ in attrs) for _ in range(rng.randint(1, 4))]
    rows = [rng.choice(pool) if rng.random() < 0.5 else
            tuple(rng.choice(ALPHABET) for _ in attrs) for _ in range(rng.randint(1, 8))]
    order = rng.sample(attrs, len(attrs))  # the input's columns, shuffled
    dirty = Relation(Schema("t", order), [
        tuple(dict(zip(attrs, row))[a] for a in order) for row in rows
    ])
    trusted = [a for a in attrs if rng.random() < 0.4]
    return ruleset, Relation(MASTER, master_rows), dirty, trusted


def _reference(ruleset, master, dirty, trusted):
    """Per row the reference's fixed values, and its changed writes and
    changed cells in total."""
    tuples = [dict(zip(master.schema.names, t)) for t in master.raw_tuples()]
    fixed, writes, cells = [], 0, 0
    for row in dirty.raw_tuples():
        values = dict(zip(dirty.schema.names, row))
        state, changed = reference_clean(values, trusted, list(ruleset), tuples)
        fixed.append(state)
        writes += changed
        cells += sum(state[a] != values[a] for a in values)
    return fixed, writes, cells


def _by_name(relation: Relation) -> list[dict]:
    return [dict(zip(relation.schema.names, row)) for row in relation.raw_tuples()]


# -- the checks --------------------------------------------------------------


def test_reference_reaches_every_kind_of_case():
    seen = dict.fromkeys(["fixed", "normalized twice", "unchanged", "round 0"], 0)
    for seed in range(200):
        ruleset, master, dirty, trusted = random_case(random.Random(seed))
        fixed, writes, cells = _reference(ruleset, master, dirty, trusted)
        seen["fixed"] += cells > 0
        seen["normalized twice"] += writes > cells
        seen["unchanged"] += writes == 0
        seen["round 0"] += any(not r.match and not len(r.pattern) for r in ruleset)
    assert all(seen.values()), seen


def test_clean_relation_matches_the_reference():
    for seed in range(CASES):
        ruleset, master, dirty, trusted = random_case(random.Random(seed))
        fixed, writes, _ = _reference(ruleset, master, dirty, trusted)
        for workers in (1, PARITY_WORKERS) if seed % 100 == 0 else (1,):
            result = CerFix(ruleset, master).clean_relation(
                dirty, validated=trusted, workers=workers, shards=3
            )
            assert _by_name(result.relation) == fixed, (seed, workers)
            assert result.report.changed_cells == writes, (seed, workers)


def test_clean_table_matches_the_reference(tmp_path):
    for seed in range(0, CASES, 10):
        ruleset, master, dirty, trusted = random_case(random.Random(seed))
        fixed, _, cells = _reference(ruleset, master, dirty, trusted)
        for page_rows in (1, 3):
            db = tmp_path / f"{seed}-{page_rows}.db"
            table = DirtyTable.create(db, dirty)
            result = CerFix(ruleset, master).clean_table(db, page_rows=page_rows,
                                                         validated=trusted)
            conn = table.backend.connect(readonly=True)
            try:
                got = _by_name(table.read_relation(conn))
            finally:
                conn.close()
            assert got == fixed, (seed, page_rows)
            assert result.changed_cells == cells, (seed, page_rows)
            db.unlink()
