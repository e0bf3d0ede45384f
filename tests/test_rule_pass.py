"""The set-at-a-time chase equals the per-state chase it turns inside out.

:func:`repro.core.chase.chase_many` runs the chase's (sweep, rule) loop
over many states at once; the rule-only batch pass is built on it.
Hypothesis drives it against :func:`repro.core.chase.chase`, one state
at a time, on random small schemas, rule sets, masters and states:
values, validated set, steps, conflicts, ambiguities and sweep count
must all be equal. Every generated rule set has a constant rule, a
second constant on the same target (a conflict), a self-normalising
rule, a patterned rule and a rule probing a master key whose tuples
disagree (an ambiguity). In about half the rule sets the constants read
nothing (so a chase from nothing validated fires them); in the rest they
share a pattern, so no rule reads nothing and the rule-only pass skips
round 0. :func:`test_generated_cases_reach_every_branch` checks that
the generated states actually reach each of those branches.

Whole rule-only cleans of both kinds of case, serially and with
``CERFIX_PARITY_WORKERS`` process workers (4 in CI's ``store-parity``
leg), must equal a row-by-row chase.
"""

from __future__ import annotations

import os
import random

from hypothesis import given, settings, strategies as st

from repro import CerFix
from repro.core.chase import chase, chase_many
from repro.core.pattern import Eq, NotIn, PatternTuple
from repro.core.rule import Constant, EditingRule, MasterColumn, MatchPair
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.relational.relation import Relation
from repro.relational.schema import Schema

PARITY_WORKERS = int(os.environ.get("CERFIX_PARITY_WORKERS", "2"))

#: Few values, two of which collide under ``casefold``: keys repeat,
#: patterns both hold and fail, and master tuples share keys.
ALPHABET = ("x", "X", "y", "z", "")
OPS = ("exact", "casefold")
MASTER = Schema("m", ["m0", "m1", "m2"])


def _pattern(rng: random.Random, attrs: list[str]) -> PatternTuple:
    attr = rng.choice(attrs)
    value = rng.choice(ALPHABET)
    return PatternTuple({attr: Eq(value) if rng.random() < 0.5 else NotIn({value})})


def _pairs(rng: random.Random, attrs: list[str], k: int) -> tuple[MatchPair, ...]:
    chosen = rng.sample(attrs, k)
    return tuple(
        MatchPair(a, f"m{i}", rng.choice(OPS)) for i, a in enumerate(chosen)
    )


def random_case(rng: random.Random, empty_reads: bool | None = None):
    """(rule set, master relation, states) for one differential run.

    With ``empty_reads`` (a coin flip when None) the two constant rules
    read nothing, so a chase from nothing validated fires them; without,
    they share a pattern and no rule is ready on nothing validated."""
    if empty_reads is None:
        empty_reads = rng.random() < 0.5
    attrs = [f"a{i}" for i in range(rng.randint(2, 5))]
    schema = Schema("t", attrs)
    rows = [tuple(rng.choice(ALPHABET) for _ in MASTER.names) for _ in range(rng.randint(0, 5))]
    rows += [("x", "y", rng.choice(ALPHABET)), ("x", "z", rng.choice(ALPHABET))]
    master = Relation(MASTER, rows)
    t0, t1, t2 = (rng.choice(attrs) for _ in range(3))
    first, second = rng.sample(ALPHABET, 2)
    constant = PatternTuple() if empty_reads else _pattern(rng, attrs)
    rules = [
        EditingRule("c0", (), t0, Constant(first), constant),
        EditingRule("c1", (), t0, Constant(second), constant),
        EditingRule("norm", (MatchPair(t1, "m0", "casefold"),), t1, MasterColumn("m0")),
        EditingRule(
            "pat", _pairs(rng, attrs, 1), rng.choice(attrs), MasterColumn("m2"),
            _pattern(rng, attrs),
        ),
        EditingRule("amb", (MatchPair(t2, "m0"),), rng.choice(attrs), MasterColumn("m1")),
    ]
    for i in range(rng.randint(0, 4)):
        pairs = _pairs(rng, attrs, rng.randint(1, min(2, len(attrs))))
        source = (
            Constant(rng.choice(ALPHABET)) if rng.random() < 0.2
            else MasterColumn(rng.choice(MASTER.names))
        )
        pattern = _pattern(rng, attrs) if rng.random() < 0.4 else PatternTuple()
        rules.append(EditingRule(f"r{i}", pairs, rng.choice(attrs), source, pattern))
    rng.shuffle(rules)
    ruleset = RuleSet(rules, schema, MASTER)
    states = [
        (
            {a: rng.choice(ALPHABET) for a in attrs},
            [a for a in attrs if rng.random() < 0.3],
        )
        for _ in range(rng.randint(1, 12))
    ]
    return ruleset, master, states


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), use_index=st.booleans())
def test_chase_many_equals_the_per_state_chase(rng, use_index):
    ruleset, master, states = random_case(rng)
    manager = MasterDataManager(master)
    want = [chase(v, validated, ruleset, manager, use_index=use_index) for v, validated in states]
    assert chase_many(states, ruleset, manager, use_index=use_index) == want


def test_generated_cases_reach_every_branch():
    seen = dict.fromkeys([
        "round-0 fix", "normalized", "pattern", "ambiguity", "conflict",
        "a rule reads nothing", "every rule reads something",
    ], 0)
    for seed in range(200):
        ruleset, master, states = random_case(random.Random(seed))
        empty = any(not rule.reads for rule in ruleset)
        seen["a rule reads nothing" if empty else "every rule reads something"] += 1
        results = chase_many(states, ruleset, MasterDataManager(master))
        for (_, validated), r in zip(states, results):
            seen["round-0 fix"] += not validated and any(s.rule_id == "c0" for s in r.steps)
            seen["normalized"] += any(s.normalized for s in r.steps)
            seen["pattern"] += any(s.rule_id == "pat" for s in r.steps)
            seen["ambiguity"] += any(a.rule_id == "amb" for a in r.ambiguities)
            seen["conflict"] += bool(r.conflicts)
    assert all(seen.values()), seen


def _row_by_row(ruleset, master, rows, validated):
    """The fixed rows a rule-only clean must give: each row chased from
    nothing validated, then again with the seed assured."""
    manager, names = MasterDataManager(master), ruleset.input_schema.names
    fixed = []
    for row in rows:
        r = chase(dict(zip(names, row)), (), ruleset, manager)
        seed = [a for a in dict.fromkeys(validated) if a not in r.validated]
        if seed and len(r.validated) < len(names):
            r = chase(r.values, r.validated.union(seed), ruleset, manager)
        fixed.append(tuple(r.values[n] for n in names))
    return fixed


@settings(max_examples=12, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_rule_only_cleans_equal_a_row_by_row_chase(rng):
    for empty_reads in (True, False):  # with round 0, and with round 0 skipped
        ruleset, master, states = random_case(rng, empty_reads)
        names = ruleset.input_schema.names
        rows = [tuple(v[n] for n in names) for v, _ in states] * 2
        validated = states[0][1]
        want = _row_by_row(ruleset, master, rows, validated)
        dirty = Relation(ruleset.input_schema, rows)
        for workers in (1, PARITY_WORKERS):
            result = CerFix(ruleset, master).clean_relation(
                dirty, validated=validated, workers=workers, shards=4
            )
            assert result.relation.raw_tuples() == want
