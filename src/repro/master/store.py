"""Master stores: pluggable backends behind the master data manager.

Every certain fix rests on one query shape — *probe the master relation
for an editing rule's match key and demand a unique correction value* —
and everything above the probe (chase, monitor, batch executor) is
agnostic to how the master tuples are stored. :class:`MasterStore` pins
that seam down as an interface with three backends:

``single``  :class:`SingleRelationStore`
    The original design: one in-memory :class:`Relation` with lazy
    :class:`~repro.relational.index.HashIndex` es. Right for master data
    that fits comfortably in one process.

``sharded``  :class:`ShardedMasterStore`
    The master relation's probe structures hash-partitioned by match
    key across N shards. Because every probe keys on one rule's match
    columns, the normalised key routes the probe to exactly one shard;
    all master rows carrying that key live in the same shard, so a
    routed lookup returns exactly what a global index would — same
    global positions, same order. Partitions build lazily per index
    spec and per shard, so pickled copies (process-pool workers) carry
    only the raw tuples and rebuild just the shards their probes route
    to.

``sqlite``  :class:`SqliteMasterStore`
    An in-memory store whose content is snapshotted into a SQLite file.
    Batch runs survive process restarts with the master data itself,
    not just the shard outcomes in the checkpoint journal: a resumed
    run can reload the exact snapshot the journal fingerprint was
    computed against.

``remote``  :class:`~repro.master.remote.RemoteMasterStore`
    The sharded store's routing pointed at N shard-server *processes*
    (possibly on other hosts) speaking HTTP/JSON — see
    :mod:`repro.master.remote` and :mod:`repro.master.shardserver`.
    Probes cross the network; coalescing/batching through
    :meth:`MasterStore.probe_many` amortises real round trips.

The contract every backend obeys (the differential parity suite in
``tests/test_store_parity.py`` enforces it): given the same master
content, :meth:`MasterStore.probe` returns **bit-identical**
:class:`MasterMatch` results — same global row positions, in the same
order, same distinct-value order. Backends may only change speed and
residency, never output.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import MasterDataError
from repro.core.rule import EditingRule
from repro.core.ruleset import RuleSet
from repro.relational.index import HashIndex
from repro.relational.relation import Relation, _rebuild_relation
from repro.relational.schema import Schema, schema_from_json, schema_to_json

#: Backend names accepted wherever a store is selected by string
#: (CerFix, BatchCleaner, ``cerfix clean --store``, instance documents).
STORE_BACKENDS = ("single", "sharded", "sqlite", "remote")


@dataclass(frozen=True)
class MasterMatch:
    """The outcome of probing the master data for one rule.

    ``positions`` are the matching master row positions (always *global*
    positions in the canonical relation, whatever the backend);
    ``values`` the distinct correction values they carry for the rule's
    source column. The fix is certain only when ``len(values) == 1``
    (uniqueness gate); ``len(values) > 1`` is an ambiguity the
    consistency checker can also surface statically.
    """

    positions: tuple[int, ...]
    values: tuple[Any, ...]

    @property
    def is_empty(self) -> bool:
        return not self.positions

    @property
    def is_unique(self) -> bool:
        return len(self.values) == 1

    @property
    def value(self) -> Any:
        if not self.is_unique:
            raise MasterDataError(f"no unique correction value: {self.values!r}")
        return self.values[0]


def require_scalar_cells(values: Iterable[Any], context: str) -> None:
    """Reject cell values that do not round-trip JSON losslessly.

    Shared by every store that serialises master content (the sqlite
    snapshot, the shard-server wire protocol): anything but a JSON
    scalar must fail loudly at the boundary rather than come back
    silently altered.
    """
    for v in values:
        if v is not None and not isinstance(v, (str, int, float, bool)):
            raise MasterDataError(
                f"cannot serialise cell value {v!r} ({context}): "
                f"only JSON scalar values round-trip losslessly"
            )


def _relation_digest(relation: Relation) -> str:
    digest = hashlib.sha256()
    digest.update(repr(tuple(relation.schema.names)).encode("utf-8"))
    for t in relation.tuples():
        digest.update(repr(t).encode("utf-8"))
    return digest.hexdigest()


def _distinct_in_position_order(
    relation: Relation, source_col: int, positions: Sequence[int]
) -> tuple[Any, ...]:
    """Distinct correction values in first-occurrence (position) order —
    the order every backend must reproduce for bit-identical matches."""
    raw = relation.raw_tuples()
    distinct: list[Any] = []
    for pos in positions:
        v = raw[pos][source_col]
        if v not in distinct:
            distinct.append(v)
    return tuple(distinct)


def _scan_positions(relation: Relation, rule: EditingRule, key: tuple) -> list[int]:
    """Index-free probe over the canonical relation (the E6 ablation);
    shared by every backend so the scan path cannot diverge."""
    probe = HashIndex(rule.m_attrs, rule.ops)
    target = probe.key_of(key)
    positions = [relation.schema.position(a) for a in rule.m_attrs]
    out = []
    for i, t in enumerate(relation.raw_tuples()):
        if probe.key_of(tuple(t[p] for p in positions)) == target:
            out.append(i)
    return out


class MasterStore:
    """Abstract master-data backend.

    Concrete stores keep the canonical relation reachable as
    :attr:`relation` (diagnostics, certainty analysis and master updates
    read whole columns), and serve the one probe shape through
    :meth:`probe`. ``rule.source`` is always a
    :class:`~repro.core.rule.MasterColumn` here — constant rules never
    reach a store (the manager short-circuits them).
    """

    backend = "abstract"

    #: True for backends whose probes perform blocking I/O (network
    #: round trips). Only these get a probe cache
    #: (:class:`~repro.batch.cache.CachingMasterDataManager`): the batch
    #: executor prefetches first-round probes into it and can persist
    #: it across runs, and the entry service runs sessions on an
    #: executor and coalesces their misses into micro-batched
    #: :meth:`probe_many` calls off the event loop. Every other store
    #: answers its probes in process, repeats from its own memo or
    #: index, and is probed directly.
    io_bound = False

    #: The canonical master relation, in global position order.
    relation: Relation

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def __len__(self) -> int:
        return len(self.relation)

    # -- probing (must be overridden or routed) ---------------------------

    def probe(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        raise NotImplementedError

    def probe_many(
        self,
        requests: Sequence[tuple[EditingRule, Mapping[str, Any]]],
        *,
        use_index: bool = True,
    ) -> list[MasterMatch]:
        """Answer a batch of probes in one call (request order preserved).

        Two callers funnel probes through this method so an ``io_bound``
        store crosses the network once per batch instead of once per
        probe: the entry service's micro-batcher
        (:class:`~repro.service.batcher.ProbeBatcher`, concurrent cache
        misses) and the batch executor's first-round prefetch
        (:meth:`~repro.batch.cache.CachingMasterDataManager.prefetch`).
        Neither runs over an in-process store. The default
        implementation loops over :meth:`probe`; backends with cheaper
        grouped access (e.g. per-shard routing, one SQL round trip) can
        override it — results must stay bit-identical to per-probe calls.
        """
        return [self.probe(rule, values, use_index=use_index) for rule, values in requests]

    def _match_at(self, rule: EditingRule, positions: tuple[int, ...]) -> MasterMatch:
        """Assemble the :class:`MasterMatch` for already-found positions —
        the one place the distinct-value ordering is defined, so backends
        cannot diverge on it."""
        col = self.schema.position(rule.source.name)  # type: ignore[union-attr]
        return MasterMatch(
            positions=positions,
            values=_distinct_in_position_order(self.relation, col, positions),
        )

    def _scan_probe(self, rule: EditingRule, key: tuple) -> MasterMatch:
        return self._match_at(rule, tuple(_scan_positions(self.relation, rule, key)))

    def _ambiguities(
        self, rule: EditingRule, duplicate_keys: Mapping[tuple, Sequence[int]]
    ) -> dict[tuple, tuple[Any, ...]]:
        """Filter duplicate keys down to those whose rows disagree on the
        correction value (shared ambiguity rendering for all backends)."""
        col = self.schema.position(rule.source.name)  # type: ignore[union-attr]
        raw = self.relation.raw_tuples()
        out: dict[tuple, tuple[Any, ...]] = {}
        for key, positions in duplicate_keys.items():
            values = {raw[p][col] for p in positions}
            if len(values) > 1:
                out[key] = tuple(sorted(map(str, values)))
        return out

    # -- index lifecycle ---------------------------------------------------

    def prebuild(self, ruleset: RuleSet) -> None:
        """Eagerly build every probe structure the rule set will touch.

        Required before multi-threaded probing (lazy builds are not
        synchronised across stores' internals beyond their own locks);
        optional otherwise.
        """
        raise NotImplementedError

    def prepare_worker(self, ruleset: RuleSet) -> None:
        """Backend hook for a freshly unpickled process-pool worker.

        Default: same as :meth:`prebuild` (a worker probes from one
        thread, but the single store's indexes were stripped by pickling
        and eager rebuild moves the cost out of the first fix). Stores
        that can rebuild selectively override this to stay lazy.
        """
        self.prebuild(ruleset)

    # -- diagnostics -------------------------------------------------------

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        """Keys of ``rule``'s master index whose matches disagree on the
        correction value (the static ambiguity diagnostic)."""
        raise NotImplementedError

    def stats(self) -> dict[str, Any]:
        """Backend-shaped residency/probe statistics (for reports/UIs)."""
        return {"backend": self.backend, "tuples": len(self)}

    # -- maintenance -------------------------------------------------------

    def apply_update(
        self,
        add: Iterable[Mapping[str, Any]] = (),
        remove: Iterable[int] = (),
    ) -> tuple[int, int]:
        """Apply master-data changes; returns ``(added, removed)``.

        Mutating through the store (not the raw relation) lets backends
        keep derived structures and persistence in sync.
        """
        removed = sorted(set(remove))
        if removed:
            self.relation.delete_rows(removed)
        added = [dict(r) for r in add]
        if added:
            self.relation.extend(added)
        return len(added), len(removed)

    def content_digest(self) -> str:
        """SHA-256 over schema + tuples: identifies master *content*.

        Backend-independent by design — a checkpoint journal written
        against one backend stays resumable under another as long as the
        master tuples are the same. Memoized on the relation's mutation
        version, so a paged clean hashes the master once, and any write
        to it still changes the digest.
        """
        relation = self.relation
        memo = getattr(self, "_digest_memo", None)
        if memo is None or memo[0] is not relation or memo[1] != relation._version:
            memo = self._digest_memo = (relation, relation._version, _relation_digest(relation))
        return memo[2]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.relation!r})"


class SingleRelationStore(MasterStore):
    """The original backend: one relation, lazy global hash indexes.

    Probe results are memoised per ``(rule, raw key)``: master data is
    static between updates, so a repeated probe (the monitor stream
    re-entering the same population, a chase re-testing a rule each
    sweep) is a dict hit instead of normalise + index lookup + distinct-
    value assembly. The memo is validated against the relation's
    mutation version on every probe, so any write — through the store or
    directly to the relation — invalidates it."""

    backend = "single"

    _MEMO_MAX = 65536

    def __init__(self, relation: Relation):
        self.relation = relation
        self._probe_memo: dict = {}
        self._memo_version = relation._version

    def __getstate__(self) -> dict:
        # The memo is a derived cache; shipping it to process-pool
        # workers would dwarf the relation itself.
        return {"relation": self.relation}

    def __setstate__(self, state: dict) -> None:
        self.relation = state["relation"]
        self._probe_memo = {}
        self._memo_version = self.relation._version

    def probe(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        key = tuple(values[a] for a in rule.lhs_attrs)
        memo = self._probe_memo
        if self._memo_version != self.relation._version:
            memo.clear()
            self._memo_version = self.relation._version
        # Two-level memo: the outer dict is keyed by id(rule) — hashing
        # the rule dataclass itself costs more than the probe it saves —
        # with the rule kept alive in the entry so the id cannot be
        # recycled while the entry exists.
        entry = memo.get(id(rule))
        if entry is None or entry[0] is not rule:
            inner: dict = {}
            memo[id(rule)] = (rule, inner)
        else:
            inner = entry[1]
        try:
            hit = inner.get((key, use_index))
        except TypeError:  # unhashable cell value: probe uncached
            hit = None
            key_hashable = False
        else:
            key_hashable = True
        if hit is not None:
            return hit
        if not use_index:
            match = self._scan_probe(rule, key)
        else:
            index = self.relation.index_on(rule.m_attrs, rule.ops)
            match = self._match_at(rule, tuple(index.lookup(key)))
        if key_hashable:
            if len(inner) >= self._MEMO_MAX:
                inner.clear()
            inner[(key, use_index)] = match
        return match

    def prebuild(self, ruleset: RuleSet) -> None:
        for attrs, ops in ruleset.index_specs():
            self.relation.index_on(attrs, ops)

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        index = self.relation.index_on(rule.m_attrs, rule.ops)
        return self._ambiguities(rule, index.duplicate_keys())


def shard_of(key: tuple, n_shards: int) -> int:
    """Deterministic shard routing for one normalised match key.

    Uses a content hash (not Python's randomised ``hash()``) so routing
    agrees across processes and interpreter runs — process-pool workers
    and journal resumes must route a key to the same shard the parent
    would.
    """
    if n_shards == 1:
        return 0
    h = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "big") % n_shards


class _SpecPartition:
    """One index spec's rows, hash-partitioned by normalised key.

    The partitioning pass is one O(|master|) sweep that deals each row's
    normalised key into its shard bucket; per-shard lookup dicts then
    build lazily on first probe of that shard, so a process-pool worker
    whose probes route to two shards never pays for the other N-2.
    Within a bucket, rows keep global position order — that is what
    makes a routed lookup byte-identical to a global index lookup.
    """

    __slots__ = ("attrs", "ops", "n_shards", "_normalizer", "_buckets", "_indexes")

    def __init__(self, relation: Relation, attrs: tuple[str, ...], ops: tuple[str, ...], n_shards: int):
        self.attrs = attrs
        self.ops = ops
        self.n_shards = n_shards
        self._normalizer = HashIndex(attrs, ops)  # key normalisation only
        #: per shard: list of (normalised key, global position), in order
        self._buckets: list[list[tuple[tuple, int]]] = [[] for _ in range(n_shards)]
        #: per shard: key -> [global positions], built lazily from the bucket
        self._indexes: list[dict[tuple, list[int]] | None] = [None] * n_shards
        cols = [relation.schema.position(a) for a in attrs]
        for pos, t in enumerate(relation.raw_tuples()):
            key = self._normalizer.key_of(tuple(t[c] for c in cols))
            self._buckets[shard_of(key, n_shards)].append((key, pos))

    def key_of(self, raw: Sequence[Any]) -> tuple:
        return self._normalizer.key_of(raw)

    def index_for(self, shard_id: int) -> dict[tuple, list[int]]:
        index = self._indexes[shard_id]
        if index is None:
            index = {}
            for key, pos in self._buckets[shard_id]:
                index.setdefault(key, []).append(pos)
            self._indexes[shard_id] = index
        return index

    def build_all(self) -> None:
        for shard_id in range(self.n_shards):
            self.index_for(shard_id)

    def built_shards(self) -> int:
        return sum(1 for i in self._indexes if i is not None)

    def rows_by_shard(self) -> list[int]:
        return [len(b) for b in self._buckets]

    def duplicate_keys(self) -> dict[tuple, list[int]]:
        out: dict[tuple, list[int]] = {}
        for shard_id in range(self.n_shards):
            for key, positions in self.index_for(shard_id).items():
                if len(positions) > 1:
                    out[key] = positions
        return out


class ShardedMasterStore(MasterStore):
    """Master probe structures hash-partitioned by match key.

    ``shards`` fixes the partition count. Each rule's index spec
    ``(match attrs, match ops)`` gets its own partition of the relation:
    the same row generally lands in different shards under different
    specs, because each spec routes by *its* match key — exactly the
    property that lets a probe touch one shard and still see every row
    carrying its key.

    Probing is bit-identical to :class:`SingleRelationStore` (the parity
    suite pins this): positions come back in global order because shard
    buckets preserve it, and a key's rows can never straddle shards.

    Pickling ships only ``(schema, tuples, shards)`` — partitions and
    per-shard lookup dicts are derived caches that rebuild lazily, so a
    process-pool worker materialises only the shards its probes route
    to.
    """

    backend = "sharded"

    def __init__(self, relation: Relation, shards: int = 4):
        if shards < 1:
            raise MasterDataError(f"shard count must be >= 1, got {shards}")
        self.relation = relation
        self.shards = shards
        self._partitions: dict[tuple, _SpecPartition] = {}
        self._probes_by_shard = [0] * shards
        self._lock = threading.Lock()

    def __reduce__(self):
        return (_rebuild_sharded, (self.schema, self.relation.tuples(), self.shards))

    def _partition(self, attrs: tuple[str, ...], ops: tuple[str, ...]) -> _SpecPartition:
        spec = (attrs, ops)
        part = self._partitions.get(spec)
        if part is None:
            with self._lock:
                part = self._partitions.get(spec)
                if part is None:
                    part = _SpecPartition(self.relation, attrs, ops, self.shards)
                    self._partitions[spec] = part
        return part

    def probe(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        if not use_index:
            return self._scan_probe(rule, tuple(values[a] for a in rule.lhs_attrs))
        match = self.probe_routed(rule, values)[1]
        assert match is not None  # no expect_shard -> always probed
        return match

    def route(self, rule: EditingRule, values: Mapping[str, Any]) -> int:
        """The shard id ``rule``'s probe against ``values`` routes to.

        The client side of the remote store and the shard server both
        compute routing through this method (or :meth:`probe_routed`),
        so a request can never be *served* by a shard the client would
        not have *sent* it to — disagreement surfaces as a loud
        misroute, never a wrong answer.
        """
        part = self._partition(rule.m_attrs, rule.ops)
        key = tuple(values[a] for a in rule.lhs_attrs)
        return shard_of(part.key_of(key), self.shards)

    def probe_routed(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
        expect_shard: int | None = None,
    ) -> tuple[int, MasterMatch | None]:
        """Route and probe with one key normalisation: ``(shard, match)``.

        The shard server's hot path — it must both verify the routing
        and answer the probe, and normalising the key twice (once in
        :meth:`route`, again in :meth:`probe`) would double the
        per-probe normaliser work. With ``expect_shard`` set, a key
        routing elsewhere returns ``(shard, None)`` *without* probing:
        a misrouted request must not lazily build (and retain) another
        shard's index on this server, nor touch index structures from
        handler threads that are only ever supposed to read them.
        """
        key = tuple(values[a] for a in rule.lhs_attrs)
        if not use_index:
            # The scan ablation must not build the spec partition (an
            # O(|master|) sweep whose buckets it would never read) just
            # to learn the shard id — a throwaway normaliser is enough.
            normalised = HashIndex(rule.m_attrs, rule.ops).key_of(key)
            shard_id = shard_of(normalised, self.shards)
            if expect_shard is not None and shard_id != expect_shard:
                return shard_id, None
            return shard_id, self._scan_probe(rule, key)
        part = self._partition(rule.m_attrs, rule.ops)
        normalised = part.key_of(key)
        shard_id = shard_of(normalised, self.shards)
        if expect_shard is not None and shard_id != expect_shard:
            return shard_id, None
        # Unlocked bump: the counter is a diagnostic, and a GIL-atomic
        # list-element increment is accurate enough — taking the store
        # lock here would serialise every probe of every service thread.
        self._probes_by_shard[shard_id] += 1
        return shard_id, self._match_at(
            rule, tuple(part.index_for(shard_id).get(normalised, ()))
        )

    def prebuild(self, ruleset: RuleSet) -> None:
        """Partition and build every shard of every spec — required
        before multi-threaded probing (the thread executor backend)."""
        for attrs, ops in ruleset.index_specs():
            self._partition(attrs, ops).build_all()

    def build_shard(self, ruleset: RuleSet, shard_id: int) -> int:
        """Partition every spec but build only ``shard_id``'s lookup
        dicts (what a shard server warms at startup: it will only ever
        be asked for keys routing to its own shard). Returns the number
        of per-spec shard indexes built."""
        if not 0 <= shard_id < self.shards:
            raise MasterDataError(
                f"shard id {shard_id} out of range for {self.shards} shards"
            )
        built = 0
        for attrs, ops in ruleset.index_specs():
            self._partition(attrs, ops).index_for(shard_id)
            built += 1
        return built

    def prepare_worker(self, ruleset: RuleSet) -> None:
        """Stay lazy: a worker probes single-threaded, and building
        nothing up front is what keeps unrouted shards unbuilt."""

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        part = self._partition(rule.m_attrs, rule.ops)
        return self._ambiguities(rule, part.duplicate_keys())

    def apply_update(self, add=(), remove=()) -> tuple[int, int]:
        counts = super().apply_update(add, remove)
        self._partitions.clear()  # derived caches: rebuild against new content
        return counts

    def stats(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "tuples": len(self),
            "shards": self.shards,
            "specs_partitioned": len(self._partitions),
            "shard_indexes_built": sum(p.built_shards() for p in self._partitions.values()),
            "probes_by_shard": list(self._probes_by_shard),
        }

    def __repr__(self) -> str:
        return f"ShardedMasterStore({self.relation!r}, shards={self.shards})"


def _rebuild_sharded(schema: Schema, tuples: list[tuple], shards: int) -> "ShardedMasterStore":
    return ShardedMasterStore(_rebuild_relation(schema, tuples), shards)


# -- sqlite snapshots ---------------------------------------------------------


class SqliteMasterStore(MasterStore):
    """An in-memory store persisted as a SQLite snapshot.

    Probing runs against the in-memory relation (SQL cannot apply the
    match-operator normalisers, and the probe path must stay
    bit-identical to the other backends); SQLite supplies durability:
    the snapshot — schema, rows in position order, and the content
    digest — survives process restarts, so a journal-resumed batch run
    can reload exactly the master data its checkpoints were computed
    against.

    ``SqliteMasterStore(path, relation=rel)`` writes (or refreshes) the
    snapshot; ``SqliteMasterStore(path)`` loads it. Updates through
    :meth:`apply_update` write through to the file.

    Cell values must be JSON scalars (str/int/float/bool/None) — the
    only values that round-trip the snapshot losslessly. Anything else
    is rejected loudly at save time rather than silently altered, and
    a load re-verifies the recorded content digest, so a snapshot can
    never resurrect master data that differs from what was saved.
    """

    backend = "sqlite"

    def __init__(self, path: str | Path, relation: Relation | None = None):
        self.path = Path(path)
        self._digest: str | None = None
        if relation is not None:
            self.relation = relation
            self.save()
        else:
            self.relation = self._load()
        self._inner = SingleRelationStore(self.relation)

    def __reduce__(self):
        # Ship content, not the file handle: a process-pool worker on the
        # same host could re-read the file, but shipping the tuples keeps
        # the probe path identical on hosts where the path is absent.
        return (
            _rebuild_sqlite,
            (str(self.path), self.schema, self.relation.tuples()),
        )

    # -- persistence -------------------------------------------------------

    def _encode_row(self, pos: int, row: tuple) -> str:
        require_scalar_cells(row, f"master row {pos}")
        return json.dumps(list(row))

    def save(self) -> None:
        """Write the current relation as the snapshot (atomic replace)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # No connection outlives the call: the store must stay picklable
        # and must never hold the file open across a worker fork.
        digest = self.content_digest()
        # Encode (and validate) every row before touching the file, so a
        # rejected value cannot leave a half-written snapshot behind.
        payload = [
            (pos, self._encode_row(pos, t))
            for pos, t in enumerate(self.relation.tuples())
        ]
        conn = sqlite3.connect(self.path)
        try:
            with conn:  # one transaction: the old snapshot or the new one
                conn.execute("DROP TABLE IF EXISTS cerfix_meta")
                conn.execute("DROP TABLE IF EXISTS cerfix_master")
                conn.execute("CREATE TABLE cerfix_meta (key TEXT PRIMARY KEY, value TEXT)")
                conn.execute("CREATE TABLE cerfix_master (pos INTEGER PRIMARY KEY, row TEXT)")
                conn.execute(
                    "INSERT INTO cerfix_meta VALUES ('schema', ?)",
                    (json.dumps(schema_to_json(self.schema)),),
                )
                conn.execute("INSERT INTO cerfix_meta VALUES ('digest', ?)", (digest,))
                conn.executemany("INSERT INTO cerfix_master VALUES (?, ?)", payload)
        finally:
            conn.close()
        self._digest = digest

    def _load(self) -> Relation:
        if not self.path.exists():
            raise MasterDataError(f"no master snapshot at {self.path}")
        conn = sqlite3.connect(self.path)
        try:
            (schema_json,) = conn.execute(
                "SELECT value FROM cerfix_meta WHERE key = 'schema'"
            ).fetchone()
            stored = conn.execute(
                "SELECT value FROM cerfix_meta WHERE key = 'digest'"
            ).fetchone()
            rows = conn.execute("SELECT row FROM cerfix_master ORDER BY pos").fetchall()
        except (sqlite3.Error, TypeError) as exc:
            raise MasterDataError(f"cannot read master snapshot {self.path}: {exc}") from None
        finally:
            conn.close()
        try:
            schema = schema_from_json(json.loads(schema_json))
            relation = Relation(schema, [tuple(json.loads(r)) for (r,) in rows])
        except (ValueError, KeyError, TypeError) as exc:
            # Truncated/hand-edited snapshots must fail as loudly as a
            # missing one, through the error type the CLI prettifies.
            raise MasterDataError(
                f"cannot read master snapshot {self.path}: corrupt payload ({exc})"
            ) from None
        # Verify the recorded digest against the reloaded content: a
        # snapshot must never resurrect master data that differs from
        # what was saved (the journal fingerprint depends on it).
        digest = _relation_digest(relation)
        if stored is None or stored[0] != digest:
            raise MasterDataError(
                f"master snapshot {self.path} failed its content-digest check "
                f"(recorded {stored[0] if stored else None!r}, reloaded {digest!r})"
            )
        self._digest = digest
        return relation

    def stored_digest(self) -> str | None:
        """The content digest recorded in the snapshot file, if any."""
        if not self.path.exists():
            return None
        conn = sqlite3.connect(self.path)
        try:
            row = conn.execute(
                "SELECT value FROM cerfix_meta WHERE key = 'digest'"
            ).fetchone()
        except sqlite3.Error:
            return None
        finally:
            conn.close()
        return row[0] if row else None

    # -- delegation to the in-memory probe path ---------------------------

    def probe(self, rule, values, *, use_index: bool = True) -> MasterMatch:
        return self._inner.probe(rule, values, use_index=use_index)

    def prebuild(self, ruleset: RuleSet) -> None:
        self._inner.prebuild(ruleset)

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        return self._inner.ambiguous_keys(rule)

    def apply_update(self, add=(), remove=()) -> tuple[int, int]:
        # Validate the incoming cells *before* mutating: a rejected value
        # must not leave the in-memory relation diverged from the snapshot
        # (save() would raise after the relation already grew).
        added = [dict(r) for r in add]
        for r in added:
            require_scalar_cells(r.values(), "master update")
        counts = super().apply_update(added, remove)
        self.save()  # write-through: the snapshot tracks the live relation
        return counts

    def stats(self) -> dict[str, Any]:
        # The cached digest tracks save()/load() exactly, so the status
        # path never touches the file (it can be polled by a UI).
        if self._digest is None:
            self._digest = self.content_digest()
        return {
            "backend": self.backend,
            "tuples": len(self),
            "path": str(self.path),
            "persisted_digest": self._digest,
        }

    def __repr__(self) -> str:
        return f"SqliteMasterStore({str(self.path)!r}, {self.relation!r})"


def _rebuild_sqlite(path: str, schema: Schema, tuples: list[tuple]) -> "SqliteMasterStore":
    store = SqliteMasterStore.__new__(SqliteMasterStore)
    store.path = Path(path)
    store._digest = None  # recomputed lazily; content shipped verbatim
    store.relation = _rebuild_relation(schema, tuples)
    store._inner = SingleRelationStore(store.relation)
    return store


def make_store(
    relation: Relation | None,
    backend: str = "single",
    *,
    shards: int = 4,
    path: str | Path | None = None,
    urls: Sequence[Any] | None = None,
) -> MasterStore:
    """Build a master store over ``relation`` for a backend name.

    The string form is what configuration surfaces speak (``CerFix``'s
    ``store=`` argument, ``cerfix clean --store``, the instance
    document's ``store`` section). The ``remote`` backend takes shard
    server ``urls`` instead of a relation — one entry per shard, each
    either a url string or a list of replica urls (client-side
    failover; see :class:`~repro.master.remote.RemoteMasterStore`); the
    master content lives on the servers. When a ``relation`` is also
    given, its content digest is verified against what the cluster
    serves (a cluster serving *different* master data must fail loudly,
    never probe wrongly).
    """
    from repro.obs.metrics import get_registry

    if backend == "remote":
        from repro.master.remote import RemoteMasterStore

        if not urls:
            raise MasterDataError(
                "the remote master store needs shard server urls "
                "(store_urls=[...] / --shard-urls)"
            )
        store = RemoteMasterStore(urls)
        if relation is not None:
            local = _relation_digest(relation)
            if local != store.content_digest():
                store.close()
                raise MasterDataError(
                    f"remote shard cluster serves different master content "
                    f"(local digest {local[:12]}…, remote "
                    f"{store.content_digest()[:12]}…); repoint the urls or "
                    f"restart the shard servers on the right master data"
                )
        get_registry().register_source("store", store.stats)
        return store
    if relation is None:
        raise MasterDataError(f"master store backend {backend!r} needs a master relation")
    if backend == "single":
        store = SingleRelationStore(relation)
    elif backend == "sharded":
        store = ShardedMasterStore(relation, shards=shards)
    elif backend == "sqlite":
        if path is None:
            raise MasterDataError("the sqlite master store needs a snapshot path")
        store = SqliteMasterStore(path, relation)
    else:
        raise MasterDataError(
            f"unknown master store backend {backend!r} (expected one of {STORE_BACKENDS})"
        )
    # Every configuration-surface store rides along in the registry dump
    # (held weakly, last-wins on the name — see MetricsRegistry).
    get_registry().register_source("store", store.stats)
    return store


def resolve_master(
    master: Any,
    store: str | None,
    *,
    shards: int = 4,
    path: str | Path | None = None,
    urls: Sequence[str] | None = None,
) -> Any:
    """Apply a ``store=`` backend selection to a ``master`` argument.

    The shared front door for every constructor that accepts both a
    master (relation / store / manager) and a ``store`` backend name
    (:class:`repro.engine.CerFix`, ``repro.batch.pipeline.BatchCleaner``)
    — one place defines when the selection applies and how it fails.
    ``store="remote"`` additionally accepts ``master=None`` (the master
    content lives on the shard servers).
    """
    if store is None:
        return master
    if master is not None and not isinstance(master, Relation):
        raise MasterDataError(
            "store= selects a backend for a bare master relation; "
            "got an already-wrapped master"
        )
    return make_store(master, store, shards=shards, path=path, urls=urls)
