"""Batch repair pipeline: sharded, parallel, cache-accelerated
whole-relation cleaning.

CerFix's monitor cleans one tuple at the point of entry; this package
scales the same certain-fix machinery to whole relations:

- :mod:`~repro.batch.planner` — fingerprint tuples, collapse duplicate
  repair signatures, deal groups into shards;
- :mod:`~repro.batch.cache` — the one bounded LRU (probe cache over
  remote stores, suggestion and chase memos);
- :mod:`~repro.batch.executor` — serial / process shard
  execution with bit-identical output;
- :mod:`~repro.batch.journal` — per-shard checkpoints for crash-safe
  resume;
- :mod:`~repro.batch.report` — the run's aggregate accounting;
- :mod:`~repro.batch.pipeline` — the orchestrator behind
  :meth:`CerFix.clean_relation`.
"""

from repro.batch.cache import CacheStats, CachingMasterDataManager, LRUMemo, MemoView
from repro.batch.executor import BatchContext, GroupOutcome, ShardExecutor, ShardResult
from repro.batch.journal import CheckpointJournal
from repro.batch.pipeline import BatchCleaner, BatchResult
from repro.batch.planner import PlanGroup, RepairPlan, Shard, build_plan, repair_signature
from repro.batch.report import BatchReport, ShardStats, build_report

__all__ = [
    "BatchCleaner",
    "BatchContext",
    "BatchReport",
    "BatchResult",
    "CacheStats",
    "CachingMasterDataManager",
    "CheckpointJournal",
    "GroupOutcome",
    "LRUMemo",
    "MemoView",
    "PlanGroup",
    "RepairPlan",
    "Shard",
    "ShardExecutor",
    "ShardResult",
    "ShardStats",
    "build_plan",
    "build_report",
    "repair_signature",
]
