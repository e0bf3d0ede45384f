"""Batch reports: what a whole-relation cleaning run did, and how fast.

The :class:`BatchReport` is the batch counterpart of the stream's
:class:`~repro.monitor.stream.StreamReport`: it aggregates the fix/
validation split the paper's Fig. 4 is about (user vs rule cells),
plus the batch-only dimensions — dedup ratio, probe-cache efficiency
(remote stores only), per-shard timings and resume accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.batch.cache import CacheStats
from repro.batch.executor import ShardResult


@dataclass(frozen=True)
class ShardStats:
    """One shard's contribution (timing + exact cache counters)."""

    shard_id: int
    groups: int
    tuples: int
    elapsed_seconds: float
    cache: CacheStats
    resumed: bool

    @classmethod
    def from_result(cls, result: ShardResult) -> "ShardStats":
        return cls(
            shard_id=result.shard_id,
            groups=result.groups,
            tuples=result.tuples,
            elapsed_seconds=result.elapsed_seconds,
            cache=CacheStats(result.cache_hits, result.cache_misses, result.cache_evictions),
            resumed=result.resumed,
        )

    def to_json(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "groups": self.groups,
            "tuples": self.tuples,
            "elapsed_seconds": self.elapsed_seconds,
            "cache": self.cache.to_json(),
            "resumed": self.resumed,
        }


@dataclass
class BatchReport:
    """Aggregate outcome of one batch cleaning run."""

    tuples: int = 0
    groups: int = 0
    duplicates_collapsed: int = 0
    completed: int = 0  # tuples that reached a certain fix
    conflicts: int = 0
    user_cells: int = 0
    rule_cells: int = 0
    normalized_cells: int = 0
    changed_cells: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    shards: list[ShardStats] = field(default_factory=list)
    workers: int = 1
    backend: str = "serial"
    elapsed_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)
    #: What cross-run probe-cache persistence did this run (``""`` when
    #: no cache path was given): "warm start (N entries from ...)" /
    #: "cold start (...)" / "skipped (...)", plus "; saved N entries".
    persistence: str = ""

    @property
    def incomplete(self) -> int:
        return self.tuples - self.completed

    @property
    def resumed_shards(self) -> int:
        return sum(1 for s in self.shards if s.resumed)

    @property
    def executed_shards(self) -> int:
        return sum(1 for s in self.shards if not s.resumed)

    @property
    def user_share(self) -> float:
        """Fraction of validated cells the user provided (paper: ~20%)."""
        total = self.user_cells + self.rule_cells
        return self.user_cells / total if total else 0.0

    @property
    def auto_share(self) -> float:
        """Fraction of validated cells CerFix fixed itself (paper: ~80%)."""
        total = self.user_cells + self.rule_cells
        return self.rule_cells / total if total else 0.0

    @property
    def throughput(self) -> float:
        """Tuples per second, wall clock (duplicates count — they were cleaned)."""
        return self.tuples / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def dedup_ratio(self) -> float:
        """How many input tuples each resolved group served on average."""
        return self.tuples / self.groups if self.groups else 0.0

    def describe(self) -> str:
        lines = [
            f"batch: {self.tuples} tuples in {self.elapsed_seconds:.3f}s "
            f"({self.throughput:.0f} tuples/s; {self.workers} worker(s), {self.backend})",
            f"  plan: {self.groups} groups, {self.duplicates_collapsed} duplicates collapsed "
            f"(x{self.dedup_ratio:.2f})",
            f"  fixes: {self.completed}/{self.tuples} certain, {self.conflicts} conflicts; "
            f"cells {self.user_cells} user / {self.rule_cells} rule "
            f"({self.auto_share:.0%} auto), {self.normalized_cells} normalized, "
            f"{self.changed_cells} changed",
        ]
        if self.cache.probes:  # only a remote store's probes go through a cache
            lines.append(
                f"  cache: {self.cache.hits} hits / {self.cache.misses} misses "
                f"({self.cache.hit_rate:.0%} hit rate), {self.cache.evictions} evictions"
            )
        lines.append(
            f"  shards: {len(self.shards)} total, {self.resumed_shards} resumed from journal"
        )
        if self.persistence:
            lines.append(f"  probe cache persistence: {self.persistence}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "tuples": self.tuples,
            "groups": self.groups,
            "duplicates_collapsed": self.duplicates_collapsed,
            "dedup_ratio": self.dedup_ratio,
            "completed": self.completed,
            "incomplete": self.incomplete,
            "conflicts": self.conflicts,
            "user_cells": self.user_cells,
            "rule_cells": self.rule_cells,
            "user_share": self.user_share,
            "auto_share": self.auto_share,
            "normalized_cells": self.normalized_cells,
            "changed_cells": self.changed_cells,
            "cache": self.cache.to_json(),
            "shards": [s.to_json() for s in self.shards],
            "workers": self.workers,
            "backend": self.backend,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "resumed_shards": self.resumed_shards,
            "persistence": self.persistence,
            "notes": list(self.notes),
        }


def build_report(
    results: Sequence[ShardResult],
    *,
    tuples: int,
    groups: int,
    workers: int,
    backend: str,
    elapsed_seconds: float,
    cache: CacheStats = CacheStats(),
    notes: Sequence[str] = (),
    changed_cells: int,
) -> BatchReport:
    """Aggregate shard results into one report.

    Per-group statistics are weighted by member count: every duplicate
    row received the group's repair, so it counts like the tuple it is.
    ``cache`` is this run's probe-cache lookups (resumed shards made
    none).
    """
    report = BatchReport(
        tuples=tuples,
        groups=groups,
        duplicates_collapsed=tuples - groups,
        changed_cells=changed_cells,
        workers=workers,
        backend=backend,
        elapsed_seconds=elapsed_seconds,
        cache=cache,
        notes=list(notes),
    )
    for result in results:
        report.shards.append(ShardStats.from_result(result))
        for outcome in result.outcomes:
            n = len(outcome.members)
            if outcome.complete:
                report.completed += n
            report.conflicts += outcome.conflicts * n
            report.user_cells += outcome.user_cells * n
            report.rule_cells += outcome.rule_cells * n
            report.normalized_cells += outcome.normalized_cells * n
    report.shards.sort(key=lambda s: s.shard_id)
    return report
