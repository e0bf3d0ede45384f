"""Caches: one bounded LRU, and the probe cache over remote stores.

:class:`LRUMemo` is the one cache class: a bounded, thread-safe LRU
that counts its own hits, misses and evictions. It backs the suggestion
memo, the chase memo and — only where a probe is expensive — the probe
cache.

A probe on an in-process store (single, sqlite) is a memo or
index lookup, so batch, stream, monitor and service all call the store
directly. An ``io_bound`` store (the remote shard cluster) pays a
network round trip per probe; there the :class:`CachingMasterDataManager`
sits between the chase/monitor machinery and the store, keyed on
``(rule id, normalised key values)``. The batch executor adds
first-round prefetch and cross-run persistence
(:func:`save_probe_cache`/:func:`load_probe_cache`); the entry service
routes its misses through the micro-batcher.

Cache keys are normalised with the rule's match operators (``digits``,
``alnum``, …), so two raw keys that the index would bucket together
('EH8 4AH' / 'eh8 4ah') also share one cache entry. Cached values are
frozen :class:`MasterMatch` objects and probing is deterministic, so a
hit returns byte-for-byte what the store would have computed — the
cache can only change speed, never output.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence

from repro.core.rule import Constant, EditingRule
from repro.master.manager import MasterDataManager, MasterMatch
from repro.master.store import MasterStore
from repro.relational.index import HashIndex
from repro.relational.relation import Relation

_MISS = object()


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


class LRUMemo:
    """A bounded, thread-safe LRU mapping that counts its own lookups.

    One class serves every cache in the program: the probe cache in
    front of an ``io_bound`` store, the suggestion memo and the chase
    memo. ``get`` counts a hit or a miss and ``put`` counts the
    evictions it causes, all under the same lock as the entries, so
    :attr:`stats` stays exact whether one worker thread, many executor
    threads or the event loop use it.

    Cached values are frozen and pure functions of their keys, so
    sharing a cache can reorder *when* work happens but never what any
    caller observes.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (marked most-recent), else ``default``."""
        with self._lock:
            value = self._store.get(key, _MISS)
            if value is _MISS:
                self._misses += 1
                return default
            self._store.move_to_end(key)
            self._hits += 1
            return value

    def touch(self, key: Hashable) -> bool:
        """Mark ``key`` most-recent if resident; counts no lookup."""
        with self._lock:
            if key not in self._store:
                return False
            self._store.move_to_end(key)
            return True

    def count_misses(self, n: int) -> None:
        """Count ``n`` misses answered outside :meth:`get` (a bulk fetch)."""
        with self._lock:
            self._misses += n

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
                self._evictions += 1

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses, evictions=self._evictions)

    def snapshot(self) -> list[tuple[Hashable, Any]]:
        """The current entries, oldest first (a consistent copy)."""
        with self._lock:
            return list(self._store.items())

    def preload(self, entries: Sequence[tuple[Hashable, Any]]) -> int:
        """Seed the cache from a snapshot; returns the resident count.

        Overflow past ``maxsize`` drops the oldest entries without
        counting as evictions — nothing was ever displaced at runtime.
        """
        with self._lock:
            for key, value in entries:
                self._store[key] = value
                self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)
            return len(self._store)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:
        return f"LRUMemo({len(self)}/{self.maxsize} entries, {self._evictions} evictions)"


class MemoView:
    """A token-scoped view of an :class:`LRUMemo`.

    The suggestion memo key does not mention the precomputed regions a
    session was created with (sessions capture them by reference). The
    entry service therefore scopes every session's memo to a *regions
    epoch* token: recomputing regions bumps the epoch, so sessions
    created afterwards read and write a fresh key space while older
    sessions keep hitting entries consistent with the regions they
    captured.
    """

    def __init__(self, memo: LRUMemo, token: Hashable):
        self._memo = memo
        self._token = token

    def get(self, key: Hashable, default: Any = None) -> Any:
        return self._memo.get((self._token, key), default)

    def put(self, key: Hashable, value: Any) -> None:
        self._memo.put((self._token, key), value)


class CachingMasterDataManager(MasterDataManager):
    """A :class:`MasterDataManager` whose :meth:`match` consults an
    :class:`LRUMemo` probe cache first.

    Built only over an ``io_bound`` store, where a miss is a network
    round trip; an in-process store answers from its own memo, so
    callers probe it directly. Shares the base store; constant rules
    bypass the cache — they never touch master data. The cache is never
    invalidated, so do not mutate the master data underneath it.

    A miss is answered by ``fetch(key, rule, values)`` when given — the
    entry service passes its :class:`~repro.service.batcher.ProbeBatcher`
    here, which collapses concurrent misses per key and micro-batches
    them — else by the store's own probe. The batch executor builds one
    instance per shard over the run's shared cache; the entry service
    builds one for all sessions. The cache counts every lookup, so its
    ``misses`` equal the keys the store was asked for, by a
    :meth:`match` that missed or by a :meth:`prefetch`.
    """

    def __init__(
        self,
        source: Relation | MasterStore,
        cache: LRUMemo,
        *,
        fetch: Callable[[tuple, EditingRule, Mapping[str, Any]], MasterMatch] | None = None,
    ):
        super().__init__(source)
        self.cache = cache
        self._fetch = fetch
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
            return cached
        if self._fetch is not None:
            match = self._fetch(key, rule, values)
        else:
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
        resident, but not counted as hits: the later :meth:`match` is
        the lookup) and keys repeated within the batch are skipped; the
        rest cross the store boundary together — on a remote store one
        round trip per shard instead of one per key — and count as
        misses. Returns the number of keys the store was asked for. ``probe_many`` is bit-identical
        to per-key probes, so a later :meth:`match` hit returns exactly
        what a miss would have computed.
        """
        wanted: dict[tuple, tuple[EditingRule, Mapping[str, Any]]] = {}
        for rule, values in requests:
            if isinstance(rule.source, Constant):
                continue
            key = self._cache_key(rule, values)
            if key not in wanted and not self.cache.touch(key):
                wanted[key] = (rule, values)
        if not wanted:
            return 0
        matches = self.store.probe_many(list(wanted.values()), use_index=use_index)
        for key, match in zip(wanted, matches):
            self.cache.put(key, match)
        self.cache.count_misses(len(wanted))
        return len(wanted)

    def __repr__(self) -> str:
        return f"CachingMasterDataManager({self.store!r}, {self.cache!r})"


# ---------------------------------------------------------------------------
# Cross-run persistence
# ---------------------------------------------------------------------------

#: On-disk snapshot format; bump on any incompatible layout change.
CACHE_SNAPSHOT_FORMAT = 1


def save_probe_cache(
    cache: LRUMemo,
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
    and durable (temp file, fsync, rename), so a crash mid-save leaves
    the previous snapshot intact.
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
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return len(entries)


def load_probe_cache(
    path: str | Path,
    *,
    master_digest: str,
    rule_ids: Sequence[str],
    maxsize: int = 4096,
) -> tuple[LRUMemo | None, str]:
    """Load a snapshot written by :func:`save_probe_cache`.

    Returns ``(cache, note)``: a warm :class:`LRUMemo` when the
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
    cache = LRUMemo(maxsize)
    resident = cache.preload(entries)
    return cache, f"warm start ({resident} entries from {path})"
