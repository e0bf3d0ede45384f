"""Shared, concurrency-safe caches for the entry service.

The batch layer's :class:`~repro.batch.cache.ProbeCache` was built for
one batch run: the *store* is thread-safe, but the hit/miss counters
live on per-shard managers that each own exactly one thread. The entry
service shares one cache between every concurrent session, so both the
store **and** the statistics must be race-free. This module provides:

:class:`SharedProbeCache`
    a read-through probe cache whose :class:`~repro.batch.cache.CacheStats`
    accumulate under the same lock as the store — safe to read and
    write from executor threads and the event loop alike;
:class:`LRUMemo`
    a generic bounded LRU (the suggestion memo — see
    :meth:`repro.monitor.session.MonitorSession.suggestion` — and the
    chase memo, see :func:`repro.core.chase.chase_memoized`);
:class:`MemoView`
    a token-prefixed view of an :class:`LRUMemo`, so entries computed
    under one configuration epoch (e.g. one set of precomputed
    regions) can never answer queries from another.

Everything here is *deterministic-value* caching: the cached objects
(frozen :class:`~repro.master.manager.MasterMatch` results, frozen
:class:`~repro.monitor.suggest.Suggestion` objects) are pure functions
of their keys, so a cache can only change speed, never output — the
differential parity suite pins that down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro.batch.cache import CacheStats, ProbeCache
from repro.master.manager import MasterMatch

_MISS = object()


class SharedProbeCache:
    """A :class:`ProbeCache` plus race-free aggregate statistics.

    The batch layer keeps hit/miss counters on per-shard managers (one
    owner thread each); the service has no such owner, so counters move
    *into* the cache, guarded by one lock together with the LRU store.
    ``get`` counts a hit or a miss; ``peek`` does neither (used by the
    batcher to re-check for a racing fill without double counting).
    """

    def __init__(self, maxsize: int = 8192):
        self._cache = ProbeCache(maxsize)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @property
    def maxsize(self) -> int:
        return self._cache.maxsize

    def get(self, key: tuple) -> MasterMatch | None:
        match = self._cache.get(key)
        with self._lock:
            if match is not None:
                self._hits += 1
            else:
                self._misses += 1
        return match

    def peek(self, key: tuple) -> MasterMatch | None:
        """The cached match without touching the hit/miss counters."""
        return self._cache.get(key)

    def put(self, key: tuple, match: MasterMatch) -> None:
        self._cache.put(key, match)

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._cache.evictions,
            )

    def __len__(self) -> int:
        return len(self._cache)

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"SharedProbeCache({len(self)}/{self.maxsize} entries, "
            f"{s.hits} hits / {s.misses} misses)"
        )


class LRUMemo:
    """A bounded, thread-safe LRU mapping of hashable keys to values.

    The service uses one as the shared *suggestion memo*: a suggestion
    is a deterministic function of the validated (attribute, value)
    pairs and the engine configuration, so concurrent sessions over
    duplicate-heavy traffic amortise the inference cost — the same way
    the probe cache amortises master lookups. A second one is the
    shared *chase memo*, amortising the chase the same way.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"memo maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._store.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._store.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:
        return f"LRUMemo({len(self)}/{self.maxsize} entries)"


class MemoView:
    """A token-scoped view of an :class:`LRUMemo`.

    The suggestion memo key does not mention the precomputed regions a
    session was created with (sessions capture them by reference). The
    service therefore scopes every session's memo to a *regions epoch*
    token: recomputing regions bumps the epoch, so sessions created
    afterwards read and write a fresh key space while older sessions
    keep hitting entries consistent with the regions they captured.
    """

    def __init__(self, memo: LRUMemo, token: Hashable):
        self._memo = memo
        self._token = token

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._memo.get((self._token, key), default)

    def put(self, key: Hashable, value: Any) -> None:
        self._memo.put((self._token, key), value)
