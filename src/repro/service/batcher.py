"""The probe micro-batcher: coalesced, batched master lookups.

Over an ``io_bound`` store (the remote shard cluster) concurrent
monitor sessions probe with heavily repeated keys — N users entering
tuples that share a zip code all need the same zip → (street, city)
correction, and every miss is a network round trip. The entry service
shares one :class:`~repro.batch.cache.CachingMasterDataManager` between
its sessions and answers that cache's misses here, with two
amortisations:

**per-key request collapsing**
    the first miss for a key becomes its *leader*; every concurrent
    miss for the same key attaches to the leader's future instead of
    probing the store again — N sessions probing one key cost one
    store hit;
**micro-batching**
    pending leader misses are drained together (after a sub-millisecond
    window that lets concurrent misses pile up) and answered through
    one :meth:`~repro.master.store.MasterStore.probe_many` call.

Threading model: sessions over a remote store run on executor threads,
and :meth:`ProbeBatcher.probe_sync` bridges each miss into the loop with
``run_coroutine_threadsafe``. The drain runs the batched ``probe_many``
on the loop's default executor, because a real network round trip must
not stall request accept, and the micro-batch is exactly the unit that
amortises it. In-process stores never reach the batcher: their probes
are memo or index lookups, answered by the store itself.

Determinism: probing is a pure function of (rule, key) over fixed
master data, so collapsing and batching can only change *speed*, never
output — the service parity suite pins this.
"""

from __future__ import annotations

import asyncio
from typing import Any, Mapping

from repro.core.rule import EditingRule
from repro.master.manager import MasterMatch
from repro.master.store import MasterStore
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry


class ProbeBatcher:
    """Coalesce concurrent probe misses into batched store lookups.

    Lives on the service's event loop; :meth:`bind_loop` must run
    before the first probe. ``window`` (seconds) is how long a drain
    waits for more misses to pile up — 0 still coalesces everything
    submitted in the same loop tick. Coalesced probes, drained batches
    and the store probes they made count in ``metrics`` (the service's
    registry) as ``cerfix.service.probes.*``.
    """

    def __init__(
        self,
        store: MasterStore,
        *,
        window: float = 0.001,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
    ):
        self.store = store
        self.window = window
        self.max_batch = max_batch
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._coalesced = metrics.counter("cerfix.service.probes.coalesced")
        self._batches = metrics.counter("cerfix.service.probes.batches")
        self._store_probes = metrics.counter("cerfix.service.probes.store_probes")
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: dict[tuple, asyncio.Future] = {}
        self._queue: list[tuple[tuple, EditingRule, Mapping[str, Any]]] = []
        self._drain_task: asyncio.Task | None = None

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    # -- the async path (runs on the loop) ---------------------------------

    async def probe(self, key: tuple, rule: EditingRule, values: Mapping[str, Any]) -> MasterMatch:
        """Resolve one cache miss, collapsing against in-flight keys."""
        pending = self._pending.get(key)
        if pending is not None:
            self._coalesced.inc()
            return await pending
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
                    # The store call may block on real round trips: run it
                    # on the default executor so the loop keeps accepting.
                    assert self._loop is not None
                    car = trace.carrier()
                    matches = await self._loop.run_in_executor(
                        None, lambda: self._probe_many_traced(car, requests)
                    )
            except Exception as exc:  # propagate to every waiter, keep draining
                for key, _, _ in batch:
                    future = self._pending.pop(key, None)
                    if future is not None and not future.done():
                        future.set_exception(exc)
                continue
            self._batches.inc()
            self._store_probes.inc(len(batch))
            for (key, _, _), match in zip(batch, matches):
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
        """Blocking entry point for a session's cache miss, called from
        an executor thread while the bound loop runs (the
        :class:`~repro.batch.cache.CachingMasterDataManager` ``fetch``
        hook)."""
        assert self._loop is not None, "ProbeBatcher.bind_loop() was never called"
        return asyncio.run_coroutine_threadsafe(self.probe(key, rule, values), self._loop).result()
