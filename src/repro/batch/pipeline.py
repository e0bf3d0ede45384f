"""The batch cleaning pipeline: plan → execute → assemble.

:class:`BatchCleaner` is the orchestrator behind
:meth:`CerFix.clean_relation`: it fingerprints and deduplicates the
dirty relation (:mod:`repro.batch.planner`), resumes any checkpointed
shards (:mod:`repro.batch.journal`), runs the rest serially or in worker
processes (:mod:`repro.batch.executor`), then rebinds the groups onto
their members a column at a time: the repaired relation is the input
with the changed cells patched in, each group's provenance is recorded
once in the engine's audit log (when the cleaner has one), and a
:class:`~repro.batch.report.BatchReport` aggregates the run.

Scheduling never influences output: groups are independent and probing
is deterministic, so ``workers=4`` (four worker processes) produces the
same repaired relation, byte for byte, as the serial path — the
property the batch test suite pins down.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, repeat
from operator import is_not, itemgetter, ne, not_, or_
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import CerFixError
from repro.audit.log import AuditLog
from repro.batch.cache import CacheStats, load_probe_cache, save_probe_cache
from repro.batch.executor import BatchContext, ShardExecutor, ShardResult, worker_pool
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
    """A repaired relation, the run's report, and the patch that made the
    relation from the input: one ``(column position, rows, olds, news,
    provenances)`` run per column whose cells changed, a provenance per
    cell."""

    relation: Relation
    report: BatchReport
    patch: Sequence[tuple] = ()

    def __len__(self) -> int:
        return len(self.relation)

    @cached_property
    def changes(self) -> list[tuple]:
        """One ``(row, column, old, new, rule_id, source, trace_id,
        span_id)`` per cell with ``old != new``, in row then schema order
        (the patch also rewrites an equal value of another type); the last
        four fields are those of the audit event that wrote ``new``."""
        names = self.relation.schema.names
        cells = {
            row * len(names) + col: (row, names[col], old, new, *provenance)
            for col, rows, olds, news, provenances in self.patch
            for row, old, new, provenance in zip(rows, olds, news, provenances)
            if old != new
        }
        return [cells[k] for k in sorted(cells)]


class BatchCleaner:
    """Whole-relation cleaning with dedup, sharding and resume, plus a
    probe cache over remote stores.

    Construction mirrors :class:`~repro.engine.CerFix`; per-run knobs
    (workers, sharding, journal) live on :meth:`clean`.
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
        store_path: str | Path | None = None,
        store_urls: Sequence | None = None,
    ):
        """``master`` may be a bare relation, a manager, or a
        :class:`~repro.master.store.MasterStore`. ``store`` selects a
        backend by name for the bare-relation form (``"single"``,
        ``"sqlite"``, ``"remote"``); ``store_path`` / ``store_urls``
        parameterise the sqlite and remote backends (``store_urls``
        entries may be replica-url lists — see
        :class:`~repro.master.remote.RemoteMasterStore`). Provenance is
        recorded into ``audit``; with none, only the result's
        :attr:`~BatchResult.changes` carry it (the paged DB cleaner
        archives those)."""
        self.ruleset = ruleset
        master = resolve_master(master, store, path=store_path, urls=store_urls)
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
        self.audit = audit
        self.use_index = use_index
        self.max_combos = max_combos
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        self._reuse = False  # inside reusing_workers
        self._pool: tuple | None = None  # ((workers, context), their worker pool)

    @contextmanager
    def reusing_workers(self) -> Iterator[None]:
        """Share one worker pool among the :meth:`clean` calls made
        inside with the first one's context and worker count: the paged
        DB cleaner cleans a table's pages under one, so workers start and
        build their master indexes once per run, not once per page."""
        self._reuse = True
        try:
            yield
        finally:
            self._reuse = False
            if self._pool is not None:
                self._pool[1].shutdown()
                self._pool = None

    def clean(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        workers: int = 1,
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
        ``cache_path`` persists the probe cache of a remote store across
        runs: the run starts warm from a snapshot stamped for this exact
        (master content, rule set) pair — anything else degrades to a
        cold start — and saves the cache back on completion. An
        in-process store has no probe cache, so there is nothing to
        persist. The report's ``persistence`` line says which happened.

        ``workers=1`` runs the shards serially on this thread;
        ``workers > 1`` runs them in that many worker processes, unless
        the context cannot be pickled (typically a scenario closure):
        then the plan runs serially and the report's notes say so.

        ``root_span=False`` suppresses the ``clean-run`` span for
        callers that already own one — the paged DB cleaner wraps a
        whole run in its own ``clean-run`` and nests each call here
        under a ``page`` span instead.
        """
        dirty = self._in_schema_order(dirty, "dirty relation")
        if truth is not None:
            truth = self._in_schema_order(truth, "truth relation")
        if tuple_ids is not None and len(tuple_ids) != len(dirty):
            raise CerFixError(
                f"got {len(tuple_ids)} tuple ids for {len(dirty)} rows"
            )
        unknown = [a for a in validated if a not in self.ruleset.input_schema]
        if unknown:
            raise CerFixError(f"validated attributes {unknown} not in the input schema")
        journal = CheckpointJournal(journal_path) if journal_path is not None else None
        notes: list[str] = []
        # The default shard count follows the requested worker count, so
        # a serial fallback keeps the plan (and any journal) of the request.
        if shards is None:
            shards = max(1, workers) * 4
        # Probe only the fields that can realistically be unpicklable
        # (scenario closures, exotic regions/rules) — not the master
        # relation, whose serialization can be large and is known-good.
        if workers > 1 and not _picklable((self._scenario(), self.regions, self.ruleset)):
            workers = 1
            notes.append(
                "process workers unavailable (context not picklable — typically a "
                "scenario closure); ran serially"
            )
        # From here on ``workers`` is what runs: the span and the report
        # record it, not the request.
        run_span = (
            trace.span("clean-run", rows=len(dirty), workers=workers, backend=_path(workers))
            if root_span
            else trace.NOOP
        )
        with run_span:
            return self._clean(
                dirty,
                truth,
                notes=notes,
                workers=workers,
                shards=shards,
                dedupe=dedupe,
                validated=validated,
                journal=journal,
                cache_path=cache_path,
                tuple_ids=tuple_ids,
                max_rounds=max_rounds,
            )

    def _clean(
        self,
        dirty: Relation,
        truth: Relation | None,
        *,
        notes: list[str],
        workers: int,
        shards: int,
        dedupe: bool,
        validated: Sequence[str],
        journal: CheckpointJournal | None,
        cache_path: str | Path | None,
        tuple_ids: Sequence[str] | None,
        max_rounds: int | None,
    ) -> BatchResult:
        start = time.perf_counter()
        processes = workers > 1
        # Group rows on the values their repair validates (see
        # repro.batch.planner); _rebind restores each member's own
        # values below.
        projection = transcript_projection(
            self.ruleset, regions=self.regions, mode=self.mode, strategy=self.strategy
        )
        with trace.span("plan", rows=len(dirty), shards=shards):
            plan = build_plan(
                dirty,
                truth,
                shards=shards,
                dedupe=dedupe,
                # The master content digest is O(|master|); only the journal
                # ever consumes the fingerprint, so only pay for it then.
                context=self._context_key(
                    validated, max_rounds, include_master=journal is not None
                ),
                projection=projection,
                validated=validated,
            )

        ctx = BatchContext(
            ruleset=self.ruleset,
            master=self.master,
            mode=self.mode,
            scenario=self._scenario(),
            strategy=self.strategy,
            regions=self.regions,
            validated=tuple(validated),
            use_index=self.use_index,
            max_combos=self.max_combos,
            max_rounds=max_rounds,
            cache_size=self.cache_size,
            trace=trace.carrier(),  # the clean-run span, ready to ship
        )
        # Process workers rebuild the master indexes themselves
        # (pickling strips them); the parent only needs them when it
        # resolves shards on its own thread.
        if not processes:
            self.master.prebuild(self.ruleset)

        done: dict[int, ShardResult] = journal.open(plan.fingerprint) if journal else {}
        pending = [s for s in plan.shards if s.shard_id not in done]

        # Cross-run probe-cache persistence (remote stores on the serial
        # path only: process workers hold private caches the parent
        # never sees).
        persistence = ""
        preloaded = None
        cache_stamp: dict | None = None
        if cache_path is not None:
            if not self.master.store.io_bound:
                persistence = "skipped (in-process store: probes need no cache)"
            elif processes:
                persistence = "skipped (process workers hold private caches)"
            else:
                cache_stamp = {
                    "master_digest": self.master.content_digest(),
                    "rule_ids": [r.rule_id for r in self.ruleset],
                }
                preloaded, persistence = load_probe_cache(
                    cache_path, maxsize=self.cache_size, **cache_stamp
                )

        pool = None
        if processes and self._reuse:
            key = (workers, replace(ctx, trace=None))
            if self._pool is None:
                self._pool = (key, worker_pool(ctx, workers))
            if self._pool[0] == key:  # its workers hold this context
                pool = self._pool[1]
        executor = ShardExecutor(ctx, workers=workers, cache=preloaded, pool=pool)
        on_result = journal.record if journal is not None else None
        fresh = executor.run(pending, on_result=on_result)
        results = sorted(
            list(done.values()) + list(fresh), key=lambda r: r.shard_id
        )

        relation, changed_cells, patch = self._rebind(
            dirty, truth, results, tuple_ids, plan.signature_attrs
        )
        # This run's probe-cache lookups. The serial path shares the
        # executor's cache, which counts them exactly; process workers
        # each hold a private cache, so there the per-shard counters are
        # the only record.
        if processes:
            cache = CacheStats()
            for r in results:
                if not r.resumed:
                    cache += CacheStats(r.cache_hits, r.cache_misses, r.cache_evictions)
        elif executor.cache is not None:
            cache = executor.cache.stats
        else:
            cache = CacheStats()
        report = build_report(
            results,
            tuples=plan.total_tuples,
            groups=plan.n_groups,
            workers=workers,
            backend=_path(workers),
            elapsed_seconds=time.perf_counter() - start,
            cache=cache,
            notes=notes,
            changed_cells=changed_cells,
        )
        self._publish_metrics(executor, results, cache)
        if cache_stamp is not None:
            saved = save_probe_cache(executor.cache, cache_path, **cache_stamp)
            persistence += f"; saved {saved} entries"
        report.persistence = persistence
        return BatchResult(relation=relation, report=report, patch=patch)

    # -- internals -----------------------------------------------------------

    def _in_schema_order(self, relation: Relation, what: str) -> Relation:
        """``relation`` with its columns in input-schema order, projected
        by name: the pipeline reads cells by position."""
        got, want = set(relation.schema.names), set(self.ruleset.input_schema.names)
        if got != want:
            raise CerFixError(
                f"{what} does not match the input schema: "
                f"missing {sorted(want - got)}, unexpected {sorted(got - want)}"
            )
        names = self.ruleset.input_schema.names
        if relation.schema.names == names:
            return relation
        return relation.project(names, relation.schema.name)

    def _scenario(self) -> Scenario | None:
        """The scenario generator, only under SCENARIO mode — the one
        mode that consults it. Dropping it otherwise keeps the context
        picklable (it is typically a closure), which process workers
        need."""
        return self.scenario if self.mode is CertaintyMode.SCENARIO else None

    def _publish_metrics(
        self,
        executor: ShardExecutor,
        results: Sequence[ShardResult],
        cache: CacheStats,
    ) -> None:
        """Fold this run's totals into the process-wide registry — the
        live numbers behind the explorers' ``/api/metrics`` probe-cache
        and suggestion-memo sections."""
        reg = get_registry()
        reg.inc("cerfix.batch.runs")
        reg.inc("cerfix.batch.tuples", sum(r.tuples for r in results))
        reg.inc("cerfix.batch.groups", sum(r.groups for r in results))
        reg.inc("cerfix.probe_cache.hits", cache.hits)
        reg.inc("cerfix.probe_cache.misses", cache.misses)
        reg.inc("cerfix.probe_cache.evictions", cache.evictions)
        if executor.cache is not None:
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

    def _rebind(
        self,
        dirty: Relation,
        truth: Relation | None,
        results: Sequence[ShardResult],
        tuple_ids: Sequence[str] | None,
        shared: Sequence[str],
    ) -> tuple[Relation, int, list[tuple]]:
        """Rebind every group's transcript onto its members: returns the
        repaired relation, the exact changed-cell count and the patch
        (see :class:`BatchResult`).

        Replayed over a member's input row, each event's ``old`` is the
        member's current cell. A user event on an attribute outside the
        signature (``shared``) takes the member's own answer as ``new``:
        its truth value, or without truth its current value. One walk
        over the transcripts lists each column's writes, then
        :func:`_column_pass` replays a column across all groups at once.
        With an audit log, each member's audit trail (tuple ids
        ``t<row>`` unless ``tuple_ids`` overrides) is one
        :meth:`AuditLog.record_group` per group."""
        position = {n: i for i, n in enumerate(self.ruleset.input_schema.names)}
        shared = frozenset(shared)
        raw = dirty.raw_tuples()
        answers = truth.raw_tuples() if truth is not None else None
        stamp = trace.current_ids()
        writes: list[list[tuple]] = [[] for _ in position]  # per column, see _column_pass
        assembled: set[int] = set()
        for g, outcome in enumerate(chain.from_iterable(r.outcomes for r in results)):
            members, n = outcome.members, len(outcome.members)
            assembled.update(members)
            for seg in outcome.transcript:
                span = stamp if seg.trace_id is None else (seg.trace_id, seg.span_id)
                for attr, _, new in seg.users:
                    col = position[attr]
                    column = writes[col]
                    again = column and column[-1][0] == g  # not the group's first write here
                    if attr in shared:
                        if not (answers or again) and all(raw[m][col] is new for m in members):
                            continue  # rule-only: a seed every member holds already
                        news = [new] * n
                    elif answers is not None:
                        news = list(map(itemgetter(col), map(answers.__getitem__, members)))
                    elif again:
                        news = column[-1][2]  # the member's current value
                    else:
                        continue  # the member's input value: nothing changes
                    column.append((g, members, news, None, span))
                for s in seg.steps:
                    writes[position[s.attr]].append((g, members, [s.new] * n, s, span))
            if self.audit is not None:
                ids = [tuple_ids[m] if tuple_ids is not None else f"t{m}" for m in members]
                mine = list(map(answers.__getitem__, members)) if answers is not None else None
                rows = list(map(raw.__getitem__, members))
                self.audit.record_group(outcome.transcript, ids, rows, mine, position, shared)
        if len(assembled) != len(dirty):
            missing = sorted(set(range(len(dirty))) - assembled)
            raise CerFixError(f"batch results left rows {missing[:5]}... unassembled")
        # Per column, the input values in row order and the types of its inputs and answers.
        inputs, kinds = list(zip(*raw)), [set(map(type, dirty.dictionary(n))) for n in position]
        for kind, n in zip(kinds, truth.schema.names if truth is not None else ()):
            kind.update(map(type, truth.dictionary(n)))
        patch: list[tuple] = []
        changed = sum(
            _column_pass(col, inputs[col], kinds[col], column, patch)
            for col, column in enumerate(writes) if column
        )
        runs = [(col, rows, news) for col, rows, _, news, _ in patch]
        return dirty.patched(runs, self.ruleset.input_schema), changed, patch


def _column_pass(col: int, inputs, kinds: set, writes: Sequence[tuple], patch: list) -> int:
    """Replay column ``col``'s ``writes`` — ``(group, members, news, step,
    span)``, a group's together and in order, ``step`` None for a user
    event — over its ``inputs`` (its values' and answers' types are
    ``kinds``); returns the changed-cell count and appends the column's
    ``(col, rows, olds, news, provenances)`` run to ``patch``, if any.
    A group's first write is compared with the input, a later one with
    the write before it, and its last with the input, each in one C-level
    pass over the column's cells; only changed cells find their provenance."""
    groups = list(map(itemgetter(0), writes))
    first = [True, *map(ne, groups[1:], groups[:-1])]  # a group's first write to the column
    rows, olds, news = _cells(inputs, writes if all(first) else compress(writes, first))
    differ = list(map(ne, olds, news))
    changed = sum(differ)
    if not all(first):  # a group wrote again
        again = list(map(not_, first))
        before = _cells(inputs, compress(writes, again[1:]))[2]  # the write before each later one
        changed += sum(map(ne, before, _cells(inputs, compress(writes, again))[2]))
        writes = list(compress(writes, [*first[1:], True]))  # each group's last write
        rows, olds, news = _cells(inputs, writes)
        differ = list(map(ne, olds, news))
    # An equal value of another type (1.0 over 1) is written too; only where types mix
    # can one occur, and an answer's type is among kinds, so a write's first new tells.
    if len(kinds.union(map(type, map(itemgetter(0), map(itemgetter(2), writes))))) > 1:
        differ = list(map(or_, differ, map(is_not, map(type, olds), map(type, news))))
    if any(differ):
        cells = map(repeat, range(len(writes)), map(len, map(itemgetter(1), writes)))
        owners = list(compress(chain.from_iterable(cells), differ))  # the write of each cell
        found = {
            w: (None, "user", *span) if step is None
            else (step.rule_id, "normalize" if step.normalized else "rule", *span)
            for w in set(owners) for _, _, _, step, span in (writes[w],)
        }
        runs = (list(compress(c, differ)) for c in (rows, olds, news))
        patch.append((col, *runs, list(map(found.__getitem__, owners))))
    return changed


def _cells(inputs, writes: Iterable[tuple]) -> tuple[list, list, list]:
    """The rows, olds and news of ``writes``, cell by cell."""
    writes = list(writes)
    rows, news = (list(chain.from_iterable(map(itemgetter(i), writes))) for i in (1, 2))
    return rows, list(itemgetter(*rows)(inputs)) if len(rows) > 1 else [inputs[rows[0]]], news


def _path(workers: int) -> str:
    """The executor path ``workers`` selects, as the report names it."""
    return "process" if workers > 1 else "serial"


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
