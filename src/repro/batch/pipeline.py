"""The batch cleaning pipeline: plan → execute → assemble.

:class:`BatchCleaner` is the orchestrator behind
:meth:`CerFix.clean_relation`: it fingerprints and deduplicates the
dirty relation (:mod:`repro.batch.planner`), resumes any checkpointed
shards (:mod:`repro.batch.journal`), runs the rest under the selected
backend (:mod:`repro.batch.executor`), then assembles the repaired
relation, records each group's provenance once in the engine's audit
log, and aggregates a :class:`~repro.batch.report.BatchReport`.

Scheduling never influences output: groups are independent and probing
is deterministic, so ``workers=4`` (threads or processes) produces the
same repaired relation, byte for byte, as the serial path — the
property the batch test suite pins down.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.errors import CerFixError
from repro.audit.log import AuditLog
from repro.batch.cache import load_probe_cache, save_probe_cache
from repro.batch.executor import BatchContext, ShardExecutor, ShardResult
from repro.batch.journal import CheckpointJournal
from repro.batch.planner import build_plan, transcript_projection
from repro.batch.report import BatchReport, build_report
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.store import MasterStore, resolve_master
from repro.monitor.suggest import SuggestionStrategy
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.relational.relation import Relation


@dataclass
class BatchResult:
    """A repaired relation plus the run's report."""

    relation: Relation
    report: BatchReport

    def __len__(self) -> int:
        return len(self.relation)


class BatchCleaner:
    """Whole-relation cleaning with dedup, caching, sharding and resume.

    Construction mirrors :class:`~repro.engine.CerFix`; per-run knobs
    (workers, backend, sharding, journal) live on :meth:`clean`.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        master: Relation | MasterDataManager | MasterStore,
        *,
        mode: CertaintyMode = CertaintyMode.STRICT,
        scenario: Scenario | None = None,
        strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
        regions: Sequence[RankedRegion] = (),
        audit: AuditLog | None = None,
        use_index: bool = True,
        max_combos: int = 50_000,
        cache_size: int = 4096,
        store: str | None = None,
        store_shards: int = 4,
        store_path: str | Path | None = None,
        store_urls: Sequence | None = None,
    ):
        """``master`` may be a bare relation, a manager, or a
        :class:`~repro.master.store.MasterStore`. ``store`` selects a
        backend by name for the bare-relation form (``"single"``,
        ``"sharded"``, ``"sqlite"``, ``"remote"``); ``store_shards`` /
        ``store_path`` / ``store_urls`` parameterise the sharded,
        sqlite and remote backends (``store_urls`` entries may be
        replica-url lists — see
        :class:`~repro.master.remote.RemoteMasterStore`)."""
        self.ruleset = ruleset
        master = resolve_master(
            master, store, shards=store_shards, path=store_path, urls=store_urls
        )
        if master is None:
            raise CerFixError(
                "master data is required (master=None is only valid with "
                "store='remote')"
            )
        self.master = master if isinstance(master, MasterDataManager) else MasterDataManager(master)
        self.mode = mode
        self.scenario = scenario
        self.strategy = strategy
        self.regions = tuple(regions)
        self.audit = audit if audit is not None else AuditLog()
        self.use_index = use_index
        self.max_combos = max_combos
        self.cache_size = cache_size

    def clean(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        workers: int = 1,
        backend: str = "thread",
        shards: int | None = None,
        dedupe: bool = True,
        validated: Sequence[str] = (),
        journal_path: str | Path | None = None,
        cache_path: str | Path | None = None,
        tuple_ids: Sequence[str] | None = None,
        max_rounds: int | None = None,
        root_span: bool = True,
    ) -> BatchResult:
        """Clean ``dirty`` and return the repaired relation + report.

        With ``truth``, every tuple is driven through the full monitor
        loop by an oracle user (the batch equivalent of
        :meth:`CerFix.stream`). Without it, the chase runs rule-only
        repairs from the trusted ``validated`` columns. ``journal_path``
        enables checkpoint/resume; an interrupted run picks up where it
        stopped as long as inputs and configuration are unchanged.
        ``cache_path`` persists the probe cache across runs: the run
        starts warm from a snapshot stamped for this exact (master
        content, rule set) pair — anything else degrades to a cold
        start — and saves the cache back on completion. The report's
        ``persistence`` line says which happened.

        ``root_span=False`` suppresses the ``clean-run`` span for
        callers that already own one — the paged DB cleaner wraps a
        whole run in its own ``clean-run`` and nests each call here
        under a ``page`` span instead.
        """
        got, want = set(dirty.schema.names), set(self.ruleset.input_schema.names)
        if got != want:
            raise CerFixError(
                f"dirty relation does not match the input schema: "
                f"missing {sorted(want - got)}, unexpected {sorted(got - want)}"
            )
        if tuple_ids is not None and len(tuple_ids) != len(dirty):
            raise CerFixError(
                f"got {len(tuple_ids)} tuple ids for {len(dirty)} rows"
            )
        unknown = [a for a in validated if a not in self.ruleset.input_schema]
        if unknown:
            raise CerFixError(f"validated attributes {unknown} not in the input schema")
        run_span = (
            trace.span("clean-run", rows=len(dirty), workers=workers, backend=backend)
            if root_span
            else trace.NOOP
        )
        with run_span:
            return self._clean(
                dirty,
                truth,
                workers=workers,
                backend=backend,
                shards=shards,
                dedupe=dedupe,
                validated=validated,
                journal_path=journal_path,
                cache_path=cache_path,
                tuple_ids=tuple_ids,
                max_rounds=max_rounds,
            )

    def _clean(
        self,
        dirty: Relation,
        truth: Relation | None,
        *,
        workers: int,
        backend: str,
        shards: int | None,
        dedupe: bool,
        validated: Sequence[str],
        journal_path: str | Path | None,
        cache_path: str | Path | None,
        tuple_ids: Sequence[str] | None,
        max_rounds: int | None,
    ) -> BatchResult:
        start = time.perf_counter()
        notes: list[str] = []

        n_shards = shards if shards is not None else max(1, workers) * 4
        # Dedup on transcript-relevant attributes only: payload columns
        # no rule or region ever looks at cannot change a repair, so
        # rows differing only there share one group. Assembly and audit
        # replay restore each member's own payload values below.
        projection = transcript_projection(
            self.ruleset, regions=self.regions, validated=validated
        )
        if projection >= frozenset(self.ruleset.input_schema.names):
            projection = None
        with trace.span("plan", rows=len(dirty), shards=n_shards):
            plan = build_plan(
                dirty,
                truth,
                shards=n_shards,
                dedupe=dedupe,
                # The master content digest is O(|master|); only the journal
                # ever consumes the fingerprint, so only pay for it then.
                context=self._context_key(
                    validated, max_rounds, include_master=journal_path is not None
                ),
                projection=projection,
            )

        # The scenario generator is only ever consulted under SCENARIO
        # mode; dropping it otherwise keeps the context picklable (it is
        # typically a closure), which is what the process backend needs.
        scenario = self.scenario if self.mode is CertaintyMode.SCENARIO else None
        ctx = BatchContext(
            ruleset=self.ruleset,
            master=self.master,
            mode=self.mode,
            scenario=scenario,
            strategy=self.strategy,
            regions=self.regions,
            validated=tuple(validated),
            use_index=self.use_index,
            max_combos=self.max_combos,
            max_rounds=max_rounds,
            cache_size=self.cache_size,
            trace=trace.carrier(),  # the clean-run span, ready to ship
        )
        # Probe only the fields that can realistically be unpicklable
        # (scenario closures, exotic regions/rules) — not the master
        # relation, whose serialization can be large and is known-good.
        if workers > 1 and backend == "process" and not _picklable(
            (ctx.scenario, ctx.regions, ctx.ruleset)
        ):
            backend = "thread"
            notes.append(
                "process backend unavailable (context not picklable — typically a "
                "scenario closure); fell back to threads"
            )
        # Workers of the process backend rebuild the master indexes
        # themselves (pickling strips them); the parent only needs them
        # when it resolves shards on its own threads.
        if not (workers > 1 and backend == "process"):
            self.master.prebuild(self.ruleset)

        journal = CheckpointJournal(journal_path) if journal_path is not None else None
        done: dict[int, ShardResult] = journal.open(plan.fingerprint) if journal else {}
        pending = [s for s in plan.shards if s.shard_id not in done]

        # Cross-run probe-cache persistence (serial/thread paths only:
        # process workers hold private caches the parent never sees).
        persistence = ""
        preloaded = None
        cache_stamp: dict | None = None
        if cache_path is not None:
            if workers > 1 and backend == "process":
                persistence = "skipped (process workers hold private caches)"
            else:
                cache_stamp = {
                    "master_digest": self.master.content_digest(),
                    "rule_ids": [r.rule_id for r in self.ruleset],
                }
                preloaded, persistence = load_probe_cache(
                    cache_path, maxsize=self.cache_size, **cache_stamp
                )

        executor = ShardExecutor(
            ctx, workers=workers, backend=backend, cache=preloaded
        )
        on_result = journal.record if journal is not None else None
        fresh = executor.run(pending, on_result=on_result)
        results = sorted(
            list(done.values()) + list(fresh), key=lambda r: r.shard_id
        )

        relation = self._assemble(dirty, results, projection)
        changed_cells = self._replay_audit(results, tuple_ids, dirty, projection)
        # The serial/thread paths share the executor's cache (its counter
        # is exact there); process workers each hold a private cache, so
        # their evictions only exist as per-shard deltas.
        if workers > 1 and backend == "process":
            evictions = sum(r.cache_evictions for r in results if not r.resumed)
        else:
            evictions = executor.cache.evictions
        report = build_report(
            results,
            tuples=plan.total_tuples,
            groups=plan.n_groups,
            workers=workers,
            backend=backend,
            elapsed_seconds=time.perf_counter() - start,
            evictions=evictions,
            notes=notes,
            changed_cells=changed_cells,
        )
        self._publish_metrics(executor, results, evictions)
        if cache_stamp is not None:
            saved = save_probe_cache(executor.cache, cache_path, **cache_stamp)
            persistence += f"; saved {saved} entries"
        report.persistence = persistence
        return BatchResult(relation=relation, report=report)

    # -- internals -----------------------------------------------------------

    def _publish_metrics(
        self,
        executor: ShardExecutor,
        results: Sequence[ShardResult],
        evictions: int,
    ) -> None:
        """Fold this run's totals into the process-wide registry — the
        live numbers behind the explorers' ``/api/metrics`` probe-cache
        and suggestion-memo sections (per-shard deltas, so the counts
        are exact under every backend, process workers included)."""
        reg = get_registry()
        reg.inc("cerfix.batch.runs")
        reg.inc("cerfix.batch.tuples", sum(r.tuples for r in results))
        reg.inc("cerfix.batch.groups", sum(r.groups for r in results))
        reg.inc("cerfix.probe_cache.hits", sum(r.cache_hits for r in results))
        reg.inc("cerfix.probe_cache.misses", sum(r.cache_misses for r in results))
        reg.inc("cerfix.probe_cache.evictions", evictions)
        reg.set_gauge("cerfix.probe_cache.size", len(executor.cache))
        reg.set_gauge("cerfix.probe_cache.maxsize", executor.cache.maxsize)
        memo_stats = executor.memo.stats
        reg.inc("cerfix.suggestion_memo.hits", memo_stats.hits)
        reg.inc("cerfix.suggestion_memo.misses", memo_stats.misses)
        reg.set_gauge("cerfix.suggestion_memo.size", len(executor.memo))
        reg.set_gauge("cerfix.suggestion_memo.maxsize", executor.memo.maxsize)

    def _context_key(
        self,
        validated: Sequence[str],
        max_rounds: int | None,
        *,
        include_master: bool = True,
    ) -> tuple[str, ...]:
        """Engine-configuration identity folded into the plan fingerprint.

        The master data is identified by *content* digest, not cardinality:
        a checkpoint computed against different master tuples must never be
        resumed, even when the row count happens to match. The digest is
        store-backend-independent (see
        :meth:`~repro.master.store.MasterStore.content_digest`), so a
        journal written under one backend resumes under another."""
        if include_master:
            master_id = self.master.content_digest()
        else:
            master_id = "unjournaled"
        return (
            ",".join(r.rule_id for r in self.ruleset),
            f"master={master_id}",
            self.mode.value,
            self.strategy.value,
            f"validated={','.join(validated)}",
            f"max_rounds={max_rounds}",
            f"regions={len(self.regions)}",
        )

    def _assemble(
        self,
        dirty: Relation,
        results: Sequence[ShardResult],
        projection: frozenset[str] | None = None,
    ) -> Relation:
        """Assemble the repaired relation from group outcomes.

        Under a projection, a payload attribute (outside the projection)
        that the transcript never touched kept its *input* value — which
        differs per member — so those cells are restored from each
        member's own dirty row rather than the representative's."""
        schema = self.ruleset.input_schema
        names = schema.names
        rows: list[tuple | None] = [None] * len(dirty)
        raw = dirty.raw_tuples() if projection is not None else None
        for result in results:
            for outcome in result.outcomes:
                values = tuple(outcome.values[n] for n in names)
                untouched = self._untouched_payload(outcome, projection)
                if not untouched:
                    for member in outcome.members:
                        rows[member] = values
                    continue
                for member in outcome.members:
                    member_row = raw[member]
                    patched = list(values)
                    for i in untouched:
                        patched[i] = member_row[i]
                    rows[member] = tuple(patched)
        missing = [i for i, r in enumerate(rows) if r is None]
        if missing:
            raise CerFixError(f"batch results left rows {missing[:5]}... unassembled")
        return Relation(schema, rows)

    def _untouched_payload(self, outcome, projection: frozenset[str] | None) -> list[int]:
        """Column positions outside the projection with no audit event —
        cells the repair provably never read or wrote."""
        if projection is None:
            return []
        touched = {e["attr"] for e in outcome.audit_events}
        return [
            i
            for i, n in enumerate(self.ruleset.input_schema.names)
            if n not in projection and n not in touched
        ]

    def _replay_audit(
        self,
        results: Sequence[ShardResult],
        tuple_ids: Sequence[str] | None,
        dirty: Relation,
        projection: frozenset[str] | None = None,
    ) -> int:
        """Record per-cell provenance for every member tuple; returns
        the exact changed-cell count across all members.

        Each duplicate member genuinely received the group's repair, so
        each gets its own audit trail (ids follow the stream convention:
        ``t<row>`` unless ``tuple_ids`` overrides), recorded as one
        :meth:`AuditLog.record_group` per group and expanded per member
        only when read. Under a projection, a user validation of a
        payload attribute carries *this member's* input value as ``old``
        — what a serial monitor session on the member would have
        recorded — so only those events count member by member."""
        changed = 0
        position = {n: i for i, n in enumerate(self.ruleset.input_schema.names)}
        raw = dirty.raw_tuples() if projection is not None else None
        for result in results:
            for outcome in result.outcomes:
                transcript = outcome.audit_events
                members = outcome.members
                olds = {}
                for j, e in enumerate(transcript):
                    if projection is not None and e["attr"] not in projection:
                        col = position[e["attr"]]
                        olds[j] = column = [raw[m][col] for m in members]
                        changed += sum(old != e["new"] for old in column)
                    elif e["old"] != e["new"]:
                        changed += len(members)
                ids = [tuple_ids[m] if tuple_ids is not None else f"t{m}" for m in members]
                self.audit.record_group(transcript, ids, olds)
        return changed


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
