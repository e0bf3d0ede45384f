"""The probe cache: memoised master-data lookups for batch cleaning.

Batch workloads probe the master data with heavily repeated keys — a
relation of customer transactions re-derives the same zip → (street,
city) correction for every tuple sharing that zip. The
:class:`ProbeCache` is a bounded LRU over :class:`MasterMatch` results
keyed on ``(rule id, normalised key values)``; the
:class:`CachingMasterDataManager` drops it transparently between the
chase/monitor machinery and a base :class:`MasterDataManager`.

Cache keys are normalised with the rule's match operators (``digits``,
``alnum``, …), so two raw keys that the index would bucket together
('EH8 4AH' / 'eh8 4ah') also share one cache entry. Cached values are
frozen :class:`MasterMatch` objects and probing is deterministic, so a
hit returns byte-for-byte what the base manager would have computed —
the cache can only change speed, never output.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.rule import Constant, EditingRule
from repro.master.manager import MasterDataManager, MasterMatch
from repro.master.store import MasterStore
from repro.relational.index import HashIndex
from repro.relational.relation import Relation


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters for one cache (or an aggregate)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probes if self.probes else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def to_json(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ProbeCache:
    """A bounded, thread-safe LRU store of probe results.

    Threading model (enforced by construction, documented here so it
    stays that way):

    * the **store** (entries + eviction counter) is guarded by one
      lock — ``get``/``put`` are safe from any number of threads;
    * **hit/miss counters** are *not* kept here. In the batch layer
      they live on the per-shard :class:`CachingMasterDataManager`,
      each of which is owned by exactly one worker thread for its
      lifetime (see :func:`repro.batch.executor._run_shard`) and
      guards its increments anyway, so per-shard statistics stay exact
      even when the store is shared. The entry service, which has no
      single-owner managers, uses
      :class:`repro.service.cache.SharedProbeCache` — the wrapper that
      accumulates :class:`CacheStats` under the same lock as the store
      and is safe to call from executor threads and an asyncio event
      loop alike;
    * **prefetch** (:meth:`CachingMasterDataManager.prefetch`) fills the
      store through the same ``put`` from the shard's own worker thread,
      one window of predicted keys at a time — a prefetched entry is an
      ordinary entry, evictable like any other.

    Cached values are frozen and probing is deterministic, so sharing
    a cache can reorder *when* work happens but never what any caller
    observes.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[tuple, MasterMatch] = OrderedDict()
        self._lock = threading.Lock()
        self._evictions = 0

    def get(self, key: tuple) -> MasterMatch | None:
        """The cached match for ``key``, or None (marks it most-recent)."""
        with self._lock:
            match = self._store.get(key)
            if match is not None:
                self._store.move_to_end(key)
            return match

    def put(self, key: tuple, match: MasterMatch) -> None:
        with self._lock:
            self._store[key] = match
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self._evictions += 1

    @property
    def evictions(self) -> int:
        return self._evictions

    def snapshot(self) -> list[tuple[tuple, MasterMatch]]:
        """The current entries, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._store.items())

    def preload(self, entries: Sequence[tuple[tuple, MasterMatch]]) -> int:
        """Seed the cache from a snapshot; returns the resident count.

        Overflow past ``maxsize`` drops the oldest entries without
        counting as evictions — nothing was ever displaced at runtime.
        """
        with self._lock:
            for key, match in entries:
                self._store[key] = match
                self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
            return len(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return f"ProbeCache({len(self)}/{self.maxsize} entries, {self._evictions} evictions)"


class CachingMasterDataManager(MasterDataManager):
    """A :class:`MasterDataManager` whose :meth:`match` consults a
    :class:`ProbeCache` first.

    Store-agnostic: pass a bare :class:`Relation` (wrapped in the single
    backend) or any :class:`~repro.master.store.MasterStore` — the cache
    sits *above* the store, so a hit costs the same whatever backend is
    underneath, and a miss is answered by whichever backend the batch
    run configured. Shares the base store (and therefore its lazily
    built probe structures); constant rules bypass the cache — they
    never touch master data. Intended to live for one batch run: the
    cache is never invalidated, so do not mutate the master data
    underneath it.

    Each instance is built for (and owned by) one shard worker, but the
    hit/miss counters are guarded anyway: accumulation must stay exact
    even if a future caller shares an instance between threads, and the
    uncontended lock costs nanoseconds next to a probe. ``misses``
    counts every key the store was asked for — by a :meth:`match` that
    missed or by a :meth:`prefetch` — so it always equals the store's
    own probe count; ``hits`` counts lookups the cache answered.
    """

    def __init__(self, source: Relation | MasterStore, cache: ProbeCache):
        super().__init__(source)
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self._stats_lock = threading.Lock()
        self._probes: dict[str, HashIndex] = {}  # rule_id -> key normaliser
        #: (rule_id, raw lhs values) -> normalized cache key. Normalizing
        #: a probe key is pure, and batch traffic re-probes the same few
        #: raw keys constantly, so skip re-normalizing on repeats.
        self._key_memo: dict[tuple, tuple] = {}

    def _cache_key(self, rule: EditingRule, values: Mapping[str, Any]) -> tuple:
        raw = tuple(values[a] for a in rule.lhs_attrs)
        try:
            key = self._key_memo.get((rule.rule_id, raw))
        except TypeError:  # unhashable value in the probe key
            key = None
            memo_key = None
        else:
            memo_key = (rule.rule_id, raw)
        if key is not None:
            return key
        probe = self._probes.get(rule.rule_id)
        if probe is None:
            probe = HashIndex(rule.m_attrs, rule.ops)
            self._probes[rule.rule_id] = probe
        key = (rule.rule_id, probe.key_of(raw))
        if memo_key is not None:
            if len(self._key_memo) >= 65536:
                self._key_memo.clear()
            self._key_memo[memo_key] = key
        return key

    def match(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        if isinstance(rule.source, Constant):
            return super().match(rule, values, use_index=use_index)
        key = self._cache_key(rule, values)
        cached = self.cache.get(key)
        if cached is not None:
            with self._stats_lock:
                self.hits += 1
            return cached
        with self._stats_lock:
            self.misses += 1
        match = super().match(rule, values, use_index=use_index)
        self.cache.put(key, match)
        return match

    def prefetch(
        self,
        requests: Sequence[tuple[EditingRule, Mapping[str, Any]]],
        *,
        use_index: bool = True,
    ) -> int:
        """Warm the cache for ``requests`` with one ``probe_many`` call.

        Constant rules, keys already resident (touched, so they stay
        resident) and keys repeated within the batch are skipped; the
        rest cross the store boundary together — on a remote store one
        round trip per shard instead of one per key. Returns the number
        of keys the store was asked for. ``probe_many`` is bit-identical
        to per-key probes, so a later :meth:`match` hit returns exactly
        what a miss would have computed.
        """
        wanted: dict[tuple, tuple[EditingRule, Mapping[str, Any]]] = {}
        for rule, values in requests:
            if isinstance(rule.source, Constant):
                continue
            key = self._cache_key(rule, values)
            if key not in wanted and self.cache.get(key) is None:
                wanted[key] = (rule, values)
        if not wanted:
            return 0
        matches = self.store.probe_many(list(wanted.values()), use_index=use_index)
        with self._stats_lock:
            self.misses += len(wanted)
        for key, match in zip(wanted, matches):
            self.cache.put(key, match)
        return len(wanted)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses, evictions=self.cache.evictions)

    def __repr__(self) -> str:
        return (
            f"CachingMasterDataManager({self.relation!r}, "
            f"{self.hits} hits / {self.misses} misses)"
        )


# ---------------------------------------------------------------------------
# Cross-run persistence
# ---------------------------------------------------------------------------

#: On-disk snapshot format; bump on any incompatible layout change.
CACHE_SNAPSHOT_FORMAT = 1


def save_probe_cache(
    cache: ProbeCache,
    path: str | Path,
    *,
    master_digest: str,
    rule_ids: Sequence[str],
) -> int:
    """Persist ``cache`` for a future batch run; returns entries written.

    The snapshot is stamped with the master *content* digest and the
    rule-id set, and :func:`load_probe_cache` refuses a snapshot whose
    stamps disagree with the loading run — a cached
    :class:`~repro.master.manager.MasterMatch` is only valid against the
    exact master data and rules that produced it. The write is atomic
    (temp file + rename), so a crash mid-save leaves the previous
    snapshot intact.
    """
    path = Path(path)
    entries = cache.snapshot()
    payload = {
        "format": CACHE_SNAPSHOT_FORMAT,
        "master": master_digest,
        "rules": tuple(sorted(rule_ids)),
        "entries": entries,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return len(entries)


def load_probe_cache(
    path: str | Path,
    *,
    master_digest: str,
    rule_ids: Sequence[str],
    maxsize: int = 4096,
) -> tuple[ProbeCache | None, str]:
    """Load a snapshot written by :func:`save_probe_cache`.

    Returns ``(cache, note)``: a warm :class:`ProbeCache` when the
    snapshot is present, readable and stamped for this exact
    (master content, rule set) pair, else ``(None, why)`` — a stale or
    corrupt snapshot degrades to a cold start, never to wrong answers.
    """
    path = Path(path)
    if not path.exists():
        return None, f"cold start (no snapshot at {path})"
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        fmt = payload["format"]
        master = payload["master"]
        rules = payload["rules"]
        entries = payload["entries"]
    except Exception as exc:  # truncated, corrupt, or foreign pickle
        return None, f"cold start (unreadable snapshot: {exc})"
    if fmt != CACHE_SNAPSHOT_FORMAT:
        return None, f"cold start (snapshot format {fmt} != {CACHE_SNAPSHOT_FORMAT})"
    if master != master_digest:
        return None, "cold start (master data changed since the snapshot)"
    if rules != tuple(sorted(rule_ids)):
        return None, "cold start (rule set changed since the snapshot)"
    cache = ProbeCache(maxsize)
    resident = cache.preload(entries)
    return cache, f"warm start ({resident} entries from {path})"
