"""The shard executor: run a repair plan serially or in worker processes.

Each shard resolves its groups independently: a group with truth runs
a monitor session with an oracle user, and rule-only groups (no truth,
so no user and no session) are chased together, set at a time, from
the trusted ``validated`` attributes, skipping the chase from nothing
validated when no rule could fire in it. Either way a group's audit
trail is one compact transcript (:class:`~repro.audit.log.Segment` s of
the chase's own fix steps). Neither path mutates the master data, so a
group's result depends only on the group and the engine configuration,
never on scheduling or on its shard-mates: the process path is
*bit-identical* to the serial path.

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

import gc
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro.errors import CerFixError
from repro.audit.events import ChangeEvent
from repro.audit.log import Segment, transcript_events
from repro.batch.cache import CachingMasterDataManager, LRUMemo
from repro.batch.planner import PlanGroup, Shard
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.chase import FixStep, chase_many
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.monitor.session import MonitorSession
from repro.monitor.suggest import SuggestionStrategy
from repro.monitor.user import OracleUser
from repro.obs import trace
from repro.obs.metrics import get_registry

_CHASE_SECONDS = get_registry().histogram("cerfix.chase.seconds")

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


class GroupOutcome(NamedTuple):
    """One resolved group: the repaired values plus per-tuple statistics."""

    members: tuple[int, ...]
    values: dict[str, Any]  # repaired values, shared by every member
    complete: bool
    rounds: int
    user_cells: int
    rule_cells: int
    normalized_cells: int
    conflicts: int
    transcript: tuple[Segment, ...]  # the group's per-cell provenance

    def to_json(self) -> dict:
        out = self._asdict()
        out["members"] = list(self.members)
        # The journal's form: one dict per event, stamp keys only if stamped.
        out["audit_events"] = [
            dict(zip(_EVENT_KEYS, e if e[7] is not None else e[:7]))
            for e in transcript_events(out.pop("transcript"))
        ]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GroupOutcome":
        transcript = _TranscriptRecorder()
        for e in obj["audit_events"]:
            transcript.stamp = e.get("trace_id"), e.get("span_id")
            transcript.record(None, *map(e.__getitem__, _EVENT_KEYS[:4]), rule_id=e["rule_id"],
                              master_positions=e["master_positions"], round_no=e["round_no"])
        return cls(
            tuple(obj["members"]), dict(obj["values"]), *map(obj.__getitem__, cls._fields[2:-1]),
            transcript.transcript,
        )


#: An audit event's fields after its tuple id, the keys of its journal form.
_EVENT_KEYS = tuple(f.name for f in fields(ChangeEvent))[2:]


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
        counters = {k: getattr(self, k) for k in _SHARD_COUNTERS}
        return {"shard_id": self.shard_id, **counters,
                "outcomes": [o.to_json() for o in self.outcomes]}

    @classmethod
    def from_json(cls, obj: dict, *, resumed: bool = False) -> "ShardResult":
        outcomes = tuple(GroupOutcome.from_json(o) for o in obj["outcomes"])
        counters = [obj[k] for k in _SHARD_COUNTERS[:-1]] + [obj.get("cache_evictions", 0)]
        return cls(obj["shard_id"], outcomes, *counters, resumed=resumed)


_SHARD_COUNTERS = ("elapsed_seconds", "cache_hits", "cache_misses", "cache_evictions")


class _TranscriptRecorder:
    """An audit sink recording straight into a group's transcript.

    A group's audit trail (a session's, or a journal line's) only becomes
    the :class:`~repro.audit.log.Segment` s of
    :attr:`GroupOutcome.transcript`; recording through a full
    :class:`~repro.audit.log.AuditLog` (lock, sequence numbers, per-tuple
    index, frozen event objects) just to strip all of that back off was
    measurable at batch scale. seq/tuple_id are per-member and assigned
    when the pipeline records the group
    (:meth:`~repro.audit.log.AuditLog.record_group`).
    """

    __slots__ = ("segments", "stamp")

    def __init__(self):
        # Per segment: round, trace and span ids, user triples, fix steps.
        self.segments: list[list] = []
        # Built inside the group-chase span, so these are its ids: the
        # audit log keeps them, so provenance points at the span that
        # actually produced the fix, not the pipeline's assembly.
        self.stamp = trace.current_ids()

    def record(self, tuple_id, attr, old, new, source, *, rule_id=None, master_positions=(),
               round_no=0) -> None:
        # Another round or span, or a user's event after a fix, opens a segment.
        last = self.segments[-1] if self.segments else (None, *self.stamp)
        if last[0] != round_no or (last[1], last[2]) != self.stamp or (
            source == "user" and last[4]
        ):
            last = [round_no, *self.stamp, [], []]
            self.segments.append(last)
        if source == "user":
            last[3].append((attr, old, new))
        else:
            normalized = source == "normalize"
            last[4].append(FixStep(attr, old, new, rule_id, tuple(master_positions), normalized))

    @property
    def transcript(self) -> tuple[Segment, ...]:
        return tuple(Segment(r, tuple(u), tuple(s), t, sp) for r, t, sp, u, s in self.segments)


def _resolve_group(
    group: PlanGroup,
    ctx: BatchContext,
    manager: MasterDataManager,
    memo: LRUMemo | None = None,
    chase_memo: LRUMemo | None = None,
) -> GroupOutcome:
    """Clean one group's representative tuple with truth: an
    :class:`OracleUser` drives the full monitor loop (the same machinery
    as the point-of-entry stream). Rule-only groups go through
    :func:`_rule_pass` instead."""
    with trace.span(
        "group-chase", rep=group.representative, members=len(group.members)
    ):
        audit = _TranscriptRecorder()
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
        transcript = audit.transcript
        return GroupOutcome(
            members=group.members,
            values=session.current_values(),
            complete=session.is_complete,
            rounds=session.round_no,
            user_cells=sum(1 for s in provenance.values() if s == "user"),
            rule_cells=sum(1 for s in provenance.values() if s == "rule"),
            normalized_cells=sum(s.normalized for seg in transcript for s in seg.steps),
            conflicts=len(session.conflicts),
            transcript=transcript,
        )


def _rule_pass(
    groups: Sequence[PlanGroup], ctx: BatchContext, manager: MasterDataManager
) -> tuple[list[GroupOutcome], int]:
    """Rule-only repair of ``groups`` at once, recording what a monitor
    session recorded; returns the outcomes and the sweeps run. Round 0
    chases every group from nothing validated; round 1, for each group
    with a seed attribute still unvalidated, assures the seed and chases
    again. Each round is one :func:`~repro.core.chase.chase_many`, and
    round 0 runs only if some rule reads nothing: otherwise no rule is
    ready on nothing validated, and it would change nothing in one sweep.
    No chase memo: the planner already groups rule-only rows on the seed
    values a memo would key on."""
    names, seed_attrs = ctx.ruleset.input_schema.names, tuple(dict.fromkeys(ctx.validated))
    at = {a: names.index(a) for a in seed_attrs}
    span = trace.current_ids()  # the rule-pass span
    normalized = attrgetter("normalized")

    def chased(states):
        return chase_many(states, ctx.ruleset, manager, use_index=ctx.use_index)

    # Per group after round 0: its row, validated attributes, steps and conflicts.
    if any(not rule.reads for rule in ctx.ruleset):
        zero = chased([(g.row, ()) for g in groups])
        first = [(tuple(map(r.values.__getitem__, names)), r.validated, r.steps, len(r.conflicts))
                 for r in zero]
        sweeps = max((r.sweeps for r in zero), default=0)
    else:
        first, sweeps = [(g.row, frozenset(), (), 0) for g in groups], 1 if groups else 0
    seeds = [
        [a for a in seed_attrs if a not in validated] if len(validated) < len(names) else []
        for _, validated, _, _ in first
    ]
    second = chased([(g[0], g[1].union(s)) for g, s in zip(first, seeds) if s])
    sweeps, second = max((r.sweeps for r in second), default=sweeps), iter(second)
    outcomes = []
    for group, (row, validated, steps, conflicts), seed in zip(groups, first, seeds):
        transcript = (Segment(0, (), steps, *span),) if steps else ()
        if seed:
            result = next(second)
            users = tuple([(a, row[at[a]], row[at[a]]) for a in seed])
            transcript += (Segment(1, users, result.steps, *span),)
            values, validated = result.values, result.validated
            conflicts += len(result.conflicts)
            steps += result.steps
        else:
            values = dict(zip(names, row))
        outcomes.append(GroupOutcome(
            group.members, values, len(validated) == len(names), 1 if seed else 0, len(seed),
            len(validated) - len(seed), sum(map(normalized, steps)), conflicts, transcript,
        ))
    return outcomes, sweeps


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
    """Resolve ``groups`` in order: a plan's groups all have truth (one
    session each) or none do, and then they go through :func:`_rule_pass`
    under one ``rule-pass`` span."""
    if not groups or groups[0].truth is not None:
        return tuple(
            _resolve_group(g, ctx, manager, memo, chase_memo)
            for window in _windows(groups, ctx, manager)
            for g in window
        )
    outcomes: list[GroupOutcome] = []
    sweeps = 0
    with trace.span("rule-pass", groups=len(groups)) as span:
        for window in _windows(groups, ctx, manager):
            started = time.perf_counter()
            resolved, swept = _rule_pass(window, ctx, manager)
            _CHASE_SECONDS.observe(time.perf_counter() - started)
            outcomes.extend(resolved)
            sweeps = max(sweeps, swept)
        span.annotate(sweeps=sweeps)
    return tuple(outcomes)


def _windows(
    groups: Sequence[PlanGroup], ctx: BatchContext, manager: MasterDataManager
) -> Iterator[Sequence[PlanGroup]]:
    """``groups`` in windows, each with its first-round probes
    prefetched into the probe cache (an io-bound store) when there is a
    trusted seed.

    A group's first chase starts from its seed — the ``ctx.validated``
    values taken from its truth when it has one, else from its input —
    so its first-round probes are every rule that reads only seeded
    attributes and whose pattern the seed matches. Each window is warmed
    by one ``probe_many``; later chase rounds, and keys the prediction
    missed, fall back to the store (a rule pass fetches each (sweep,
    rule)'s misses together). A window inserts at most half the cache,
    leaving the other half to the rest; an entry evicted anyway is just
    probed again. Every other store (and the oracle loop with no seed,
    whose first probes depend on the first suggestion) resolves the
    shard as one window with no prefetch.
    """
    first = []
    if ctx.validated and isinstance(manager, CachingMasterDataManager):
        seeded = frozenset(ctx.validated)
        first = [r for r in ctx.ruleset if r.reads <= seeded]
        budget = manager.cache.maxsize // 2
        if len(first) > budget:
            first = []  # too small a cache to hold even one group's probes
    per_window = budget // len(first) if first else max(len(groups), 1)
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
        yield window


def _probe_cache(ctx: BatchContext) -> LRUMemo | None:
    """A probe cache for an ``io_bound`` store; None for an in-process
    one, which answers repeats from its own memo."""
    return LRUMemo(ctx.cache_size) if ctx.master.store.io_bound else None


# -- process-worker plumbing --------------------------------------------------
# The context is shipped once per worker process via the pool initializer
# and parked in a module global; shard tasks then only carry the shard
# and the trace carrier of the run that submitted them.

_PROCESS_CTX: BatchContext | None = None
_PROCESS_CACHE: LRUMemo | None = None
_PROCESS_MEMO: LRUMemo | None = None
_PROCESS_CHASE_MEMO: LRUMemo | None = None


def _init_process(ctx: BatchContext) -> None:
    global _PROCESS_CTX, _PROCESS_CACHE, _PROCESS_MEMO, _PROCESS_CHASE_MEMO
    # A worker forked during a paged DB run inherits its paused collector.
    gc.enable()
    _PROCESS_CTX = ctx
    _PROCESS_CACHE = _probe_cache(ctx)
    _PROCESS_MEMO = LRUMemo(ctx.cache_size)
    _PROCESS_CHASE_MEMO = LRUMemo(ctx.cache_size)
    # Pickling stripped the in-process stores' indexes: rebuild them
    # before the first fix. A remote store only warms its normalisers.
    ctx.master.prebuild(ctx.ruleset)


def _process_shard(shard: Shard, carrier: Any) -> ShardResult:
    assert _PROCESS_CTX is not None
    # A spawned worker starts with tracing unconfigured; the carrier
    # ships the exporter config so worker spans reach the same file.
    if carrier is not None and carrier.path and trace.export_path() != carrier.path:
        trace.configure(carrier.path, carrier.sample)
    return _run_shard(
        shard,
        replace(_PROCESS_CTX, trace=carrier),
        _PROCESS_CTX.master,
        _PROCESS_CACHE,
        _PROCESS_MEMO,
        _PROCESS_CHASE_MEMO,
    )


def worker_pool(ctx: BatchContext, workers: int) -> ProcessPoolExecutor:
    """Worker processes for ``ctx``: each receives the context (less its
    trace carrier, which goes with each shard) and rebuilds the master
    indexes once, when it starts, so one pool can serve every
    :meth:`ShardExecutor.run` call of a run that shares the context."""
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_process, initargs=(replace(ctx, trace=None),)
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
        pool: ProcessPoolExecutor | None = None,
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
        #: A :func:`worker_pool` for ``ctx`` to run on (``workers > 1``);
        #: without one, :meth:`run` starts its own and stops it when done.
        self.pool = pool

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
        pool = self.pool if self.pool is not None else worker_pool(self.ctx, self.workers)
        results: dict[int, ShardResult] = {}
        try:
            pending = {pool.submit(_process_shard, s, self.ctx.trace) for s in shards}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    result = future.result()  # propagates worker failures
                    results[result.shard_id] = result
                    if on_result is not None:
                        on_result(result)
        finally:
            if pool is not self.pool:
                pool.shutdown()
        return [results[s.shard_id] for s in shards]
