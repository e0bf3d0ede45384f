"""The probe micro-batcher: coalesced, batched master lookups.

Concurrent monitor sessions probe the master store with heavily
repeated keys — N users entering tuples that share a zip code all need
the same zip → (street, city) correction. The batcher sits between the
sessions' shared probe cache and the
:class:`~repro.master.store.MasterStore` and applies two amortisations:

**per-key request collapsing**
    the first miss for a key becomes its *leader*; every concurrent
    miss for the same key attaches to the leader's future instead of
    probing the store again — N sessions probing one key cost one
    store hit;
**micro-batching**
    pending leader misses are drained together (after a sub-millisecond
    window that lets concurrent misses pile up) and answered through
    one :meth:`~repro.master.store.MasterStore.probe_many` call.

Threading model: sessions enter through
:class:`CoalescingMasterDataManager` — a synchronous
:meth:`~repro.master.manager.MasterDataManager.match` that checks the
(thread-safe) shared cache first. Where a session runs depends on the
service's dispatch mode. For in-process stores (every store probing
RAM, including sqlite) the default runs sessions on the event loop
itself: a miss is answered by a direct store probe
(:meth:`ProbeBatcher.probe_sync`), since index reads never block the
loop meaningfully and one thread has no concurrency to coalesce. For an
``io_bound`` store (the remote shard cluster) sessions run on executor
threads, and only misses are bridged into the loop with
``run_coroutine_threadsafe``; the drain then dispatches the batched
``probe_many`` to the loop's default executor, because a real network
round trip must not stall request accept, and the micro-batch is
exactly the unit that amortises it. Executor dispatch over an
in-process store (an explicit override) drains inline on the loop,
which keeps the bridge deadlock-free by construction.

Determinism: probing is a pure function of (rule, key) over fixed
master data, so collapsing and batching can only change *speed*, never
output — the service parity suite pins this.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.core.rule import Constant, EditingRule
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager, MasterMatch
from repro.master.store import MasterStore
from repro.obs import trace
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.service.cache import SharedProbeCache
from repro.service.metrics import ServiceMetrics


class ProbeKeyer:
    """Normalised cache keys for a fixed rule set.

    The key space matches :class:`~repro.batch.cache.CachingMasterDataManager`:
    ``(rule id, key normalised with the rule's match operators)``, so
    'EH8 4AH' and 'eh8 4ah' share one entry. All keyers are built once
    up front — no lazy, racy per-thread construction.
    """

    def __init__(self, ruleset: RuleSet):
        self._probes: dict[str, HashIndex] = {
            rule.rule_id: HashIndex(rule.m_attrs, rule.ops)
            for rule in ruleset
            if not isinstance(rule.source, Constant)
        }

    def key(self, rule: EditingRule, values: Mapping[str, Any]) -> tuple:
        probe = self._probes.get(rule.rule_id)
        if probe is None:  # a rule outside the prebuilt set (defensive)
            probe = HashIndex(rule.m_attrs, rule.ops)
            self._probes[rule.rule_id] = probe
        raw = tuple(values[a] for a in rule.lhs_attrs)
        return (rule.rule_id, probe.key_of(raw))


class ProbeBatcher:
    """Coalesce concurrent probe misses into batched store lookups.

    Lives on the service's event loop; :meth:`bind_loop` must run
    before the first probe. ``window`` (seconds) is how long a drain
    waits for more misses to pile up — 0 still coalesces everything
    submitted in the same loop tick.
    """

    def __init__(
        self,
        store: MasterStore,
        cache: SharedProbeCache,
        *,
        window: float = 0.001,
        max_batch: int = 64,
        metrics: ServiceMetrics | None = None,
    ):
        self.store = store
        self.cache = cache
        self.window = window
        self.max_batch = max_batch
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: dict[tuple, asyncio.Future] = {}
        self._queue: list[tuple[tuple, EditingRule, Mapping[str, Any]]] = []
        self._drain_task: asyncio.Task | None = None

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    @property
    def loop(self) -> asyncio.AbstractEventLoop | None:
        return self._loop

    # -- the async path (runs on the loop) ---------------------------------

    async def probe(self, key: tuple, rule: EditingRule, values: Mapping[str, Any]) -> MasterMatch:
        """Resolve one cache miss, collapsing against in-flight keys."""
        pending = self._pending.get(key)
        if pending is not None:
            self.metrics.probe_coalesced()
            return await pending
        cached = self.cache.peek(key)  # a drain may have filled it meanwhile
        if cached is not None:
            return cached
        assert self._loop is not None, "ProbeBatcher.bind_loop() was never called"
        future: asyncio.Future = self._loop.create_future()
        self._pending[key] = future
        self._queue.append((key, rule, values))
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = self._loop.create_task(self._drain())
        return await future

    async def _drain(self) -> None:
        while self._queue:
            if self.window > 0:
                await asyncio.sleep(self.window)
            else:
                await asyncio.sleep(0)  # yield once: same-tick misses join
            batch, self._queue = self._queue[: self.max_batch], self._queue[self.max_batch:]
            if not batch:
                continue
            requests = [(rule, values) for _, rule, values in batch]
            try:
                with trace.span("probe", probes=len(batch)):
                    if self.store.io_bound:
                        # Network-backed stores (the remote shard cluster)
                        # block on real round trips; run them on the default
                        # executor so the loop keeps accepting sessions.
                        # In-memory stores stay inline — their probes are
                        # index reads, and a thread hop would cost more
                        # than it hides.
                        assert self._loop is not None
                        car = trace.carrier()
                        matches = await self._loop.run_in_executor(
                            None, lambda: self._probe_many_traced(car, requests)
                        )
                    else:
                        matches = self.store.probe_many(requests)
            except Exception as exc:  # propagate to every waiter, keep draining
                for key, _, _ in batch:
                    future = self._pending.pop(key, None)
                    if future is not None and not future.done():
                        future.set_exception(exc)
                continue
            self.metrics.batch_executed(len(batch))
            for (key, _, _), match in zip(batch, matches):
                self.cache.put(key, match)
                future = self._pending.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(match)

    def _probe_many_traced(self, car, requests):
        """Run the store's batch probe on an executor thread with the
        loop-side trace context re-activated — contextvars do not cross
        ``run_in_executor``, and the remote store's ``probe_many`` span
        (plus the shard RPC headers under it) must parent under the
        drain's ``probe`` span."""
        with trace.activate(car):
            return self.store.probe_many(requests)

    # -- the sync bridge (runs on executor threads) -------------------------

    def probe_sync(self, key: tuple, rule: EditingRule, values: Mapping[str, Any]) -> MasterMatch:
        """Blocking entry point for a session's cache miss.

        Loop-aware: under inline dispatch (the default for in-process
        stores) sessions run *on* the event loop thread, where a
        blocking bridge into the same loop would deadlock — those
        probes go straight to the store (the shared cache still
        amortises them; there is no concurrency to coalesce on one
        thread). Off-loop callers (executor dispatch) get the full
        coalescing/micro-batching path.
        """
        loop = self._loop
        if loop is None or not loop.is_running():
            # No loop (direct library use, unit tests): probe inline.
            match = self.store.probe(rule, values)
            self.cache.put(key, match)
            return match
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            match = self.store.probe(rule, values)
            self.cache.put(key, match)
            self.metrics.probe_direct()
            return match
        handle = asyncio.run_coroutine_threadsafe(self.probe(key, rule, values), loop)
        return handle.result()


class CoalescingMasterDataManager(MasterDataManager):
    """The sessions' view of master data inside the entry service.

    ``match`` consults the shared :class:`SharedProbeCache` first
    (thread-safe, hit/miss counters race-free), and routes misses
    through the :class:`ProbeBatcher`. One instance is shared by every
    concurrent session — unlike
    :class:`~repro.batch.cache.CachingMasterDataManager`, which is
    built one-per-shard-worker, this class has no single-owner-thread
    assumption anywhere.

    The cache is never invalidated: the service does not expose master
    updates, and :meth:`apply_update` refuses loudly rather than
    serving stale matches.
    """

    def __init__(
        self,
        source: Relation | MasterStore,
        cache: SharedProbeCache,
        batcher: ProbeBatcher,
        keyer: ProbeKeyer,
    ):
        super().__init__(source)
        self.cache = cache
        self.batcher = batcher
        self.keyer = keyer

    def match(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        if isinstance(rule.source, Constant):
            return super().match(rule, values, use_index=use_index)
        key = self.keyer.key(rule, values)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        return self.batcher.probe_sync(key, rule, values)

    def apply_update(self, add=(), remove=()):  # pragma: no cover - guarded path
        raise NotImplementedError(
            "the entry service shares one probe cache across sessions and "
            "never invalidates it; apply master updates on the engine and "
            "restart the service"
        )
