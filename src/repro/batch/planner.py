"""The batch planner: fingerprint, deduplicate and shard a dirty relation.

Whole-relation workloads are repetitive: the same customer re-enters the
same transaction, the same noise pattern corrupts the same clean tuple.
The planner exploits this by fingerprinting every tuple with its *repair
signature* and grouping rows that share one. Each group is resolved once
by a shard worker and the outcome is rebound onto every member row.

A certain fix is decided by the values the user validates, the editing
rules and the master data. A dirty cell only supplies the ``old`` side
of the event that overwrites it. So the signature is the values the
repair will *validate* from the row, on the attributes that can steer a
repair (:func:`transcript_projection`):

- with ground truth driving an oracle user, the truth values there;
- rule-only, the dirty values of the trusted ``validated`` seed columns
  there.

Rows sharing a signature get the same transcript up to per-member
values: each event's ``old`` (the member's own dirty cell), and the
``new`` of a user event on an attribute outside the signature (the
member's own answer: its truth value, or its input value when the seed
assures it). The pipeline replays the group's transcript over each
member's input row to restore both (:mod:`repro.batch.pipeline`). Pass
``projection=None`` to key on every attribute.

Groups are dealt round-robin into :class:`Shard` s (deterministically,
by first-seen order), so shard workloads stay balanced without
inspecting group cost. The plan's ``fingerprint`` ties a checkpoint
journal to the exact inputs and partitioning that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Sequence

from repro.core.certainty import CertaintyMode
from repro.core.ruleset import RuleSet
from repro.errors import CerFixError
from repro.monitor.suggest import SuggestionStrategy
from repro.obs.metrics import get_registry
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def transcript_projection(
    ruleset: RuleSet,
    *,
    regions: Sequence[Any] = (),
    mode: CertaintyMode = CertaintyMode.STRICT,
    strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
) -> frozenset[str]:
    """The attributes whose *validated* values can steer a repair
    transcript.

    Rule reads (LHS + pattern: readiness, pattern and probe key), rule
    targets (the chase's conflict check compares the prescribed value
    against the validated cell), and region attributes and tableau
    patterns (region compatibility checks). Suggestions read validated
    values only through those, with one exception: a semantic
    suggestion under SCENARIO mode filters the scenario's universe by
    every validated value, so there every attribute counts. A validated
    value anywhere else (a payload column no rule or region mentions)
    steers nothing, and unvalidated values steer nothing at all.
    """
    if mode is CertaintyMode.SCENARIO and strategy is SuggestionStrategy.SEMANTIC:
        return frozenset(ruleset.input_schema.names)
    attrs: set[str] = set()
    for rule in ruleset:
        attrs |= set(rule.reads)
        attrs.add(rule.target)
    for ranked in regions:
        region = getattr(ranked, "region", ranked)
        attrs |= set(region.attrs)
        for pattern in region.tableau:
            attrs |= set(pattern.attrs)
    return frozenset(attrs)


def signature_attrs(
    schema: Schema,
    *,
    truth: bool,
    projection: frozenset[str] | None = None,
    validated: Sequence[str] = (),
) -> tuple[str, ...]:
    """The attributes a repair signature covers, in schema order: the
    ``projection`` (every attribute when None), narrowed to the
    ``validated`` seed columns when there is no ``truth``."""
    attrs = [n for n in schema.names if projection is None or n in projection]
    if not truth:
        attrs = [n for n in attrs if n in validated]
    return tuple(attrs)


def repair_signature(
    values: Mapping[str, Any],
    truth: Mapping[str, Any] | None,
    schema: Schema,
    projection: frozenset[str] | None = None,
    validated: Sequence[str] = (),
) -> tuple:
    """The values a tuple's repair validates from the row, which
    determine its transcript: ``truth`` on :func:`signature_attrs`, or
    without truth the dirty ``values`` of the seed columns there."""
    source = truth if truth is not None else values
    attrs = signature_attrs(
        schema, truth=truth is not None, projection=projection, validated=validated
    )
    return tuple(source[n] for n in attrs)


class PlanGroup(NamedTuple):
    """Rows sharing one repair signature; resolved once per batch."""

    representative: int  # position of the first member in the dirty relation
    members: tuple[int, ...]  # all positions sharing the signature
    row: tuple  # the representative's (dirty) input row, in schema order
    truth: dict[str, Any] | None  # oracle answers, when truth is supplied
    names: tuple[str, ...]  # the schema's attribute names

    @property
    def values(self) -> dict[str, Any]:
        """The input values by attribute, a new dict (the rule pass chases :attr:`row`)."""
        return dict(zip(self.names, self.row))

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Shard:
    """One unit of (possibly concurrent) execution."""

    shard_id: int
    groups: tuple[PlanGroup, ...]

    @property
    def tuples(self) -> int:
        return sum(g.size for g in self.groups)


@dataclass(frozen=True)
class RepairPlan:
    """The full batch plan: deduplicated groups dealt into shards."""

    groups: tuple[PlanGroup, ...]
    shards: tuple[Shard, ...]
    total_tuples: int
    dedupe: bool
    signature_attrs: tuple[str, ...]  # what every member of a group shares
    #: (identity header, per-row signatures): the fingerprint's input.
    _identity: tuple[str, list] = field(repr=False, compare=False)

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the inputs and partitioning, computed when first
        read: only a checkpoint journal reads it."""
        header, signatures = self._identity
        digest = hashlib.sha256(header.encode("utf-8"))
        for sig in signatures:
            digest.update(repr(sig).encode("utf-8"))
        return digest.hexdigest()

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def duplicates_collapsed(self) -> int:
        """Rows that ride along on another row's repair."""
        return self.total_tuples - self.n_groups

    def describe(self) -> str:
        return (
            f"plan: {self.total_tuples} tuples -> {self.n_groups} groups "
            f"({self.duplicates_collapsed} duplicates collapsed) in "
            f"{len(self.shards)} shard(s)"
        )


def build_plan(
    dirty: Relation,
    truth: Relation | None = None,
    *,
    shards: int = 1,
    dedupe: bool = True,
    context: Sequence[str] = (),
    projection: frozenset[str] | None = None,
    validated: Sequence[str] = (),
) -> RepairPlan:
    """Plan the batch repair of ``dirty`` (optionally oracle-backed by
    ``truth``).

    ``context`` is extra identity (rule ids, mode, …) folded into the
    plan fingerprint so a checkpoint journal written under one engine
    configuration is never resumed under another. ``projection`` and
    ``validated`` pick the signature's attributes
    (:func:`signature_attrs`); the caller (the pipeline) rebinds each
    member's own values at assembly.
    """
    if shards < 1:
        raise CerFixError(f"shards must be >= 1, got {shards}")
    if truth is not None and len(truth) != len(dirty):
        raise CerFixError(
            f"truth has {len(truth)} rows but the dirty relation has {len(dirty)}"
        )
    schema = dirty.schema
    attrs = signature_attrs(
        schema, truth=truth is not None, projection=projection, validated=validated
    )
    # Signatures are computed column-wise: one decode pass per signature
    # attribute, then one zip — the same tuples, in the same order, as
    # the per-row :func:`repair_signature`, without materialising a dict
    # per row. ``repair_signature`` remains the specification (and the
    # parity tests hold the two paths together).
    source = truth if truth is not None else dirty
    n_rows = len(dirty)
    sig_rows = (
        zip(*(source.column(name) for name in attrs)) if attrs else [()] * n_rows
    )
    by_signature: dict[tuple, list[int]] = {}
    signatures: list[tuple] = []
    for i, sig in enumerate(sig_rows):
        if not dedupe:
            sig = sig + (i,)  # unique per row: every row is its own group
        signatures.append(sig)
        by_signature.setdefault(sig, []).append(i)

    rows = dirty.raw_tuples()
    answers = truth.raw_tuples() if truth is not None else None
    groups = [  # in first-seen order
        PlanGroup(m[0], tuple(m), rows[m[0]], None if answers is None
                  else dict(zip(truth.schema.names, answers[m[0]])), schema.names)
        for m in by_signature.values()
    ]

    n_shards = max(1, min(shards, len(groups))) if groups else 1
    shard_list = tuple(
        Shard(shard_id=i, groups=tuple(groups[i::n_shards]))
        for i in range(n_shards)
    )

    header = (
        repr(tuple(schema.names))
        + repr(tuple(context))
        + f"shards={n_shards};dedupe={dedupe}"
        + f"signature={','.join(attrs)};truth={truth is not None}"
    )

    reg = get_registry()
    reg.inc("cerfix.plan.rows", len(dirty))
    reg.inc("cerfix.plan.groups", len(groups))
    reg.inc("cerfix.plan.deduped_rows", len(dirty) - len(groups))

    return RepairPlan(
        groups=tuple(groups),
        shards=shard_list,
        total_tuples=len(dirty),
        dedupe=dedupe,
        signature_attrs=attrs,
        _identity=(header, signatures),
    )
