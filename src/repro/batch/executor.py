"""The shard executor: run a repair plan serially or in worker processes.

Each shard resolves its groups independently: a group with truth runs
a monitor session with an oracle user, and a rule-only group (no truth,
so no user and no session) chases once from the trusted ``validated``
attributes. Neither mutates the master data, so groups are
embarrassingly parallel and the result of a group depends only on the
group and the engine configuration, never on scheduling. That is what
makes the process path *bit-identical* to the serial path.

Probes on an in-process store (single, sqlite) go straight
to the store, whose own memo and indexes answer them. Only an
``io_bound`` store (remote shards) gets a probe cache
(:class:`~repro.batch.cache.CachingMasterDataManager` over one
:class:`~repro.batch.cache.LRUMemo`) and first-round prefetch.

Two paths, picked by ``workers`` alone:

``workers=1``
    The deterministic serial path: shards run in shard-id order on the
    calling thread, sharing one probe cache (remote stores) and the
    suggestion and chase memos.
``workers > 1``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; the context is
    shipped to each worker once via the pool initializer and every
    process keeps its own caches.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

from repro.errors import CerFixError
from repro.batch.cache import CachingMasterDataManager, LRUMemo
from repro.batch.planner import PlanGroup, Shard
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.chase import ChaseResult, rebind_chase
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.monitor.session import MonitorSession, record_steps, timed_chase
from repro.monitor.suggest import SuggestionStrategy
from repro.monitor.user import OracleUser
from repro.obs import trace

@dataclass(frozen=True)
class BatchContext:
    """Everything a shard worker needs, picklable for process workers.

    ``master`` carries its configured
    :class:`~repro.master.store.MasterStore` backend along: the single
    and sqlite stores pickle as raw tuples and rebuild their indexes
    eagerly in the worker; a remote store ships its shard urls and
    reconnects (see :func:`_init_process`).

    ``scenario`` is typically a closure and therefore unpicklable; the
    pipeline runs such a plan serially when the context cannot be
    shipped (see :meth:`BatchCleaner.clean`).
    """

    ruleset: RuleSet
    master: MasterDataManager
    mode: CertaintyMode = CertaintyMode.STRICT
    scenario: Scenario | None = None
    strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST
    regions: tuple[RankedRegion, ...] = ()
    validated: tuple[str, ...] = ()
    use_index: bool = True
    max_combos: int = 50_000
    max_rounds: int | None = None
    cache_size: int = 4096
    #: The clean-run's trace context (a picklable
    #: :class:`~repro.obs.trace.TraceCarrier`, or None with tracing
    #: off): shards re-activate it, and process workers also configure
    #: their own exporter from its path/sample — so shard spans land in
    #: the same trace on either path.
    trace: Any = None

    @cached_property
    def round0(self) -> ChaseResult:
        """The chase from nothing validated, once per run or worker
        process. Only rules reading nothing (constants with an empty
        pattern) fire there — none in the paper's rule set — so every
        rule-only group shares it up to each step's ``old``."""
        names = self.ruleset.input_schema.names
        return timed_chase(dict.fromkeys(names), (), self.ruleset, self.master)


@dataclass(frozen=True)
class GroupOutcome:
    """One resolved group: the repaired values plus per-tuple statistics."""

    members: tuple[int, ...]
    values: dict[str, Any]  # repaired values, shared by every member
    complete: bool
    rounds: int
    user_cells: int
    rule_cells: int
    normalized_cells: int
    conflicts: int
    audit_events: tuple[dict, ...]  # serialized per-cell provenance

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "values": self.values,
            "complete": self.complete,
            "rounds": self.rounds,
            "user_cells": self.user_cells,
            "rule_cells": self.rule_cells,
            "normalized_cells": self.normalized_cells,
            "conflicts": self.conflicts,
            "audit_events": list(self.audit_events),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GroupOutcome":
        return cls(
            members=tuple(obj["members"]),
            values=dict(obj["values"]),
            complete=obj["complete"],
            rounds=obj["rounds"],
            user_cells=obj["user_cells"],
            rule_cells=obj["rule_cells"],
            normalized_cells=obj["normalized_cells"],
            conflicts=obj["conflicts"],
            audit_events=tuple(obj["audit_events"]),
        )


@dataclass
class ShardResult:
    """What one shard produced, with its probe-cache counters.

    The counters are the cache's lookups while this shard ran, exact
    because shards on one cache run one at a time. All zero over an
    in-process store, which has no probe cache."""

    shard_id: int
    outcomes: tuple[GroupOutcome, ...]
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    resumed: bool = False

    @property
    def groups(self) -> int:
        return len(self.outcomes)

    @property
    def tuples(self) -> int:
        return sum(len(o.members) for o in self.outcomes)

    def to_json(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "elapsed_seconds": self.elapsed_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    @classmethod
    def from_json(cls, obj: dict, *, resumed: bool = False) -> "ShardResult":
        return cls(
            shard_id=obj["shard_id"],
            outcomes=tuple(GroupOutcome.from_json(o) for o in obj["outcomes"]),
            elapsed_seconds=obj["elapsed_seconds"],
            cache_hits=obj["cache_hits"],
            cache_misses=obj["cache_misses"],
            cache_evictions=obj.get("cache_evictions", 0),
            resumed=resumed,
        )


class _TranscriptRecorder:
    """An audit sink recording straight into the serialized event form.

    A group's audit trail (session or chase) only becomes the transcript
    shipped in :attr:`GroupOutcome.audit_events`; recording through a
    full :class:`~repro.audit.log.AuditLog` (lock, sequence numbers,
    per-tuple index, frozen event objects) just to strip all of that
    back off was measurable at batch scale. seq/tuple_id are per-member
    and assigned when the pipeline records the group
    (:meth:`~repro.audit.log.AuditLog.record_group`).
    """

    __slots__ = ("events", "trace_id", "span_id")

    def __init__(self):
        self.events: list[dict] = []
        # Built inside the group-chase span, so these are its ids: the
        # audit log keeps them, so provenance points at the span that
        # actually produced the fix, not the pipeline's assembly.
        self.trace_id, self.span_id = trace.current_ids()

    def record(
        self,
        tuple_id,
        attr,
        old,
        new,
        source,
        *,
        rule_id=None,
        master_positions=(),
        round_no=0,
    ) -> None:
        event = {
            "attr": attr,
            "old": old,
            "new": new,
            "source": source,
            "rule_id": rule_id,
            "master_positions": tuple(master_positions),
            "round_no": round_no,
        }
        if self.trace_id is not None:
            event["trace_id"] = self.trace_id
            event["span_id"] = self.span_id
        self.events.append(event)


def _resolve_group(
    group: PlanGroup,
    ctx: BatchContext,
    manager: MasterDataManager,
    memo: LRUMemo | None = None,
    chase_memo: LRUMemo | None = None,
) -> GroupOutcome:
    """Clean one group's representative tuple.

    With truth, an :class:`OracleUser` drives the full monitor loop (the
    same machinery as the point-of-entry stream). Without truth there is
    no user and no session: :func:`_chase_group` chases once from the
    trusted ``ctx.validated`` attributes — rule-only repair; unvalidated
    cells keep their input values.
    """
    with trace.span(
        "group-chase", rep=group.representative, members=len(group.members)
    ):
        audit = _TranscriptRecorder()
        if group.truth is None:
            return _chase_group(group, ctx, manager, audit)
        session = MonitorSession(
            ctx.ruleset,
            manager,
            group.values,
            f"g{group.representative}",
            regions=ctx.regions,
            strategy=ctx.strategy,
            mode=ctx.mode,
            scenario=ctx.scenario,
            audit=audit,
            use_index=ctx.use_index,
            max_combos=ctx.max_combos,
            suggestion_memo=memo,
            chase_memo=chase_memo,
            trace=False,  # the group-chase span covers the whole session
        )
        seed = [a for a in ctx.validated if a not in session.validated]
        if seed and not session.is_complete:
            session.validate({a: group.truth[a] for a in seed})
        session.run(OracleUser(group.truth), max_rounds=ctx.max_rounds)
        provenance = session.provenance
        events = tuple(audit.events)
        return GroupOutcome(
            members=group.members,
            values=session.current_values(),
            complete=session.is_complete,
            rounds=session.round_no,
            user_cells=sum(1 for s in provenance.values() if s == "user"),
            rule_cells=sum(1 for s in provenance.values() if s == "rule"),
            normalized_cells=sum(1 for e in events if e["source"] == "normalize"),
            conflicts=len(session.conflicts),
            audit_events=events,
        )


def _chase_group(
    group: PlanGroup, ctx: BatchContext, manager: MasterDataManager,
    audit: _TranscriptRecorder,
) -> GroupOutcome:
    """Rule-only repair, recording what a monitor session recorded:
    round 0 is ``ctx.round0`` rebound onto the group; round 1, while a
    seed attribute is unvalidated, assures the seed and chases once. No
    chase memo: the planner already groups rule-only rows on the seed
    values a memo would key on."""
    names = ctx.ruleset.input_schema.names
    result = rebind_chase(ctx.round0, group.values)
    values, validated, conflicts = result.values, result.validated, len(result.conflicts)
    record_steps(audit, None, result.steps, 0)
    seed = [a for a in dict.fromkeys(ctx.validated) if a not in validated]
    if seed and len(validated) < len(names):
        for a in seed:
            audit.record(None, a, values[a], values[a], "user", round_no=1)
        result = timed_chase(
            values, validated.union(seed), ctx.ruleset, manager, use_index=ctx.use_index
        )
        values, validated = result.values, result.validated
        conflicts += len(result.conflicts)
        record_steps(audit, None, result.steps, 1)
    else:
        seed = []
    events = tuple(audit.events)
    return GroupOutcome(
        members=group.members,
        values=values,
        complete=len(validated) == len(names),
        rounds=1 if seed else 0,
        user_cells=len(seed),
        rule_cells=len(validated) - len(seed),
        normalized_cells=sum(1 for e in events if e["source"] == "normalize"),
        conflicts=conflicts,
        audit_events=events,
    )


def _run_shard(
    shard: Shard,
    ctx: BatchContext,
    base: MasterDataManager,
    cache: LRUMemo | None,
    memo: LRUMemo | None = None,
    chase_memo: LRUMemo | None = None,
) -> ShardResult:
    """Resolve every group of one shard.

    With a probe ``cache`` (an ``io_bound`` store) the groups probe
    through a caching manager over the base manager's store; without
    one they probe the base manager directly. ``memo`` is the run's
    shared suggestion memo: a suggestion is a deterministic function of
    the validated (attr, value) pairs plus the engine configuration —
    constant across one batch run — so sharing it across shards
    reorders when inference work happens but never what any group
    observes (the bit-identity guarantee holds).
    """
    manager = base if cache is None else CachingMasterDataManager(base.store, cache)
    before = cache.stats if cache is not None else None
    start = time.perf_counter()
    # Process workers have no ambient span; the carrier in the context
    # re-parents this shard under the clean-run.
    with trace.activate(ctx.trace):
        with trace.span("shard", shard=shard.shard_id, groups=len(shard.groups)):
            outcomes = _resolve_groups(shard.groups, ctx, manager, memo, chase_memo)
    result = ShardResult(
        shard_id=shard.shard_id,
        outcomes=outcomes,
        elapsed_seconds=time.perf_counter() - start,
    )
    if cache is not None:
        after = cache.stats
        result.cache_hits = after.hits - before.hits
        result.cache_misses = after.misses - before.misses
        result.cache_evictions = after.evictions - before.evictions
    return result


def _resolve_groups(
    groups: Sequence[PlanGroup],
    ctx: BatchContext,
    manager: MasterDataManager,
    memo: LRUMemo | None,
    chase_memo: LRUMemo | None,
) -> tuple[GroupOutcome, ...]:
    """Resolve ``groups`` in order, prefetching first-round probes into
    the probe cache (an io-bound store) when there is a trusted seed.

    A group's first chase starts from its seed — the ``ctx.validated``
    values taken from its truth when it has one, else from its input —
    so its first-round probes are every rule that reads only seeded
    attributes and whose pattern the seed matches. The groups go in
    windows, each warmed by one ``probe_many``; later chase rounds, and
    keys the prediction missed, fall back to single probes. A window
    inserts at most half the cache, leaving the other half to single
    probes; an entry evicted anyway is just probed again. Every other
    store (and the oracle loop with no seed, whose first probes depend
    on the first suggestion) resolves the shard as one window with no
    prefetch.
    """
    first = []
    if ctx.validated and isinstance(manager, CachingMasterDataManager):
        seeded = frozenset(ctx.validated)
        first = [r for r in ctx.ruleset if r.reads <= seeded]
        budget = manager.cache.maxsize // 2
        if len(first) > budget:
            first = []  # too small a cache to hold even one group's probes
    per_window = budget // len(first) if first else max(len(groups), 1)
    outcomes: list[GroupOutcome] = []
    for start in range(0, len(groups), per_window):
        window = groups[start : start + per_window]
        if first:
            requests = []
            for group in window:
                seed = group.truth if group.truth is not None else group.values
                requests.extend(
                    (rule, seed)
                    for rule in first
                    if not rule.has_pattern or rule.pattern.matches(seed)
                )
            with trace.span("prefetch") as span:
                span.annotate(probes=manager.prefetch(requests, use_index=ctx.use_index))
        outcomes.extend(_resolve_group(g, ctx, manager, memo, chase_memo) for g in window)
    return tuple(outcomes)


def _probe_cache(ctx: BatchContext) -> LRUMemo | None:
    """A probe cache for an ``io_bound`` store; None for an in-process
    one, which answers repeats from its own memo."""
    return LRUMemo(ctx.cache_size) if ctx.master.store.io_bound else None


# -- process-worker plumbing --------------------------------------------------
# The context is shipped once per worker process via the pool initializer
# and parked in a module global; shard tasks then only carry the shard.

_PROCESS_CTX: BatchContext | None = None
_PROCESS_CACHE: LRUMemo | None = None
_PROCESS_MEMO: LRUMemo | None = None
_PROCESS_CHASE_MEMO: LRUMemo | None = None


def _init_process(ctx: BatchContext) -> None:
    global _PROCESS_CTX, _PROCESS_CACHE, _PROCESS_MEMO, _PROCESS_CHASE_MEMO
    _PROCESS_CTX = ctx
    # A spawned worker starts with tracing unconfigured; the carrier
    # ships the exporter config so worker spans reach the same file.
    if ctx.trace is not None and ctx.trace.path:
        trace.configure(ctx.trace.path, ctx.trace.sample)
    _PROCESS_CACHE = _probe_cache(ctx)
    _PROCESS_MEMO = LRUMemo(ctx.cache_size)
    _PROCESS_CHASE_MEMO = LRUMemo(ctx.cache_size)
    # Pickling stripped the in-process stores' indexes: rebuild them
    # before the first fix. A remote store only warms its normalisers.
    ctx.master.prebuild(ctx.ruleset)


def _process_shard(shard: Shard) -> ShardResult:
    assert _PROCESS_CTX is not None
    return _run_shard(
        shard,
        _PROCESS_CTX,
        _PROCESS_CTX.master,
        _PROCESS_CACHE,
        _PROCESS_MEMO,
        _PROCESS_CHASE_MEMO,
    )


class ShardExecutor:
    """Run shards serially (``workers=1``) or in worker processes,
    reporting results in completion order to an optional callback (the
    checkpoint journal)."""

    def __init__(
        self,
        ctx: BatchContext,
        *,
        workers: int = 1,
        cache: LRUMemo | None = None,
    ):
        if workers < 1:
            raise CerFixError(f"workers must be >= 1, got {workers}")
        self.ctx = ctx
        self.workers = workers
        #: The serial path's probe cache, None over an in-process store;
        #: exposed for reporting. A preloaded ``cache`` (cross-run
        #: persistence, see :func:`repro.batch.cache.load_probe_cache`)
        #: is used as-is.
        self.cache = cache if cache is not None else _probe_cache(ctx)
        #: ...and one suggestion memo (see :func:`_run_shard`) plus one
        #: chase-transcript memo for oracle sessions (see
        #: :func:`repro.core.chase.chase_memoized`).
        self.memo = LRUMemo(ctx.cache_size)
        self.chase_memo = LRUMemo(ctx.cache_size)

    def run(
        self,
        shards: Sequence[Shard],
        *,
        on_result: Callable[[ShardResult], None] | None = None,
    ) -> list[ShardResult]:
        """Execute ``shards``; returns results ordered by shard id.

        ``on_result`` fires once per shard as it completes (journal
        checkpointing); a worker failure propagates after already
        completed shards have been reported.
        """
        if not shards:
            return []
        if self.workers == 1:
            results = []
            for shard in shards:
                result = _run_shard(
                    shard, self.ctx, self.ctx.master, self.cache, self.memo,
                    self.chase_memo,
                )
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        results: dict[int, ShardResult] = {}
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_process,
            initargs=(self.ctx,),
        ) as pool:
            pending = {pool.submit(_process_shard, shard) for shard in shards}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()  # propagates worker failures
                    results[result.shard_id] = result
                    if on_result is not None:
                        on_result(result)
        return [results[s.shard_id] for s in shards]
