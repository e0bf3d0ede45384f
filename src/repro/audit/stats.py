"""Audit statistics: the numbers behind paper Fig. 4.

"When FN is selected, CerFix presents the statistics about the attribute
FN, namely, the percentage of FN values that were validated by the users
and the percentage of values that were automatically fixed by CerFix.
Our experimental study indicates that in average, 20% of values are
validated by users while CerFix automatically fixes 80% of the data."

The accounting model: each cell (tuple, attribute) is *validated* exactly
once, either by a user event or by a rule fix; later ``normalize`` events
refine an already-validated cell and are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.audit.events import ChangeEvent
from repro.audit.log import AuditLog


@dataclass(frozen=True)
class AttributeStat:
    """Per-attribute validation provenance (one Fig. 4 bar)."""

    attr: str
    user_validations: int
    rule_fixes: int
    normalizations: int
    value_changes: int  # events where old != new (actual repairs)
    confirmations: int  # validations where the value was already right

    @property
    def validated_cells(self) -> int:
        return self.user_validations + self.rule_fixes

    @property
    def pct_user(self) -> float:
        total = self.validated_cells
        return 100.0 * self.user_validations / total if total else 0.0

    @property
    def pct_auto(self) -> float:
        total = self.validated_cells
        return 100.0 * self.rule_fixes / total if total else 0.0


@dataclass(frozen=True)
class OverallStats:
    """Whole-log provenance (the paper's 20% / 80% headline)."""

    tuples: int
    user_cells: int
    auto_cells: int
    normalizations: int
    value_changes: int

    @property
    def validated_cells(self) -> int:
        return self.user_cells + self.auto_cells

    @property
    def user_share(self) -> float:
        total = self.validated_cells
        return self.user_cells / total if total else 0.0

    @property
    def auto_share(self) -> float:
        total = self.validated_cells
        return self.auto_cells / total if total else 0.0


def _tally(events: Iterable[ChangeEvent]) -> dict[str, list[int]]:
    """One pass over a log snapshot: per attribute, in first-seen order,
    the counts ``[user, rule, normalize, changed, confirmed]``. A cell's
    first user/rule event is the validating one."""
    counts: dict[str, list[int]] = {}
    validated: set[tuple[str, str]] = set()
    for e in events:
        c = counts.get(e.attr)
        if c is None:
            c = counts[e.attr] = [0, 0, 0, 0, 0]
        changed = e.changed
        if changed:
            c[3] += 1
        if e.source == "normalize":
            c[2] += 1
        elif (e.tuple_id, e.attr) not in validated:
            validated.add((e.tuple_id, e.attr))
            c[0 if e.source == "user" else 1] += 1
            if not changed:
                c[4] += 1
    return counts


def attribute_stats(log: AuditLog, attrs: Iterable[str] | None = None) -> list[AttributeStat]:
    """Per-attribute statistics over the whole log.

    ``attrs`` fixes the output order (e.g. schema order); defaults to
    first-seen order of attributes in the log.
    """
    counts = _tally(log.events)
    return [
        AttributeStat(attr, *counts.get(attr, (0, 0, 0, 0, 0)))
        for attr in (counts if attrs is None else attrs)
    ]


def overall_stats(log: AuditLog) -> OverallStats:
    """Aggregate provenance across all cells in the log."""
    counts = _tally(log.events)
    user, auto, norm, changes, _ = (
        sum(c[i] for c in counts.values()) for i in range(5)
    )
    return OverallStats(
        tuples=len(log.tuple_ids()),
        user_cells=user,
        auto_cells=auto,
        normalizations=norm,
        value_changes=changes,
    )


def tuple_trace(log: AuditLog, tuple_id: str) -> list[str]:
    """Human-readable per-tuple history (the demo's tuple inspector)."""
    return [e.describe() for e in log.by_tuple(tuple_id)]


def cell_provenance(log: AuditLog, tuple_id: str, attr: str) -> list[ChangeEvent]:
    """All events that touched one cell — "what master tuples and editing
    rules have been employed to make the change" (paper §3)."""
    return [e for e in log.by_tuple(tuple_id) if e.attr == attr]
