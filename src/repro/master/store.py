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

``sqlite``  :class:`SqliteMasterStore`
    An in-memory store whose content is snapshotted into a SQLite file.
    Batch runs survive process restarts with the master data itself,
    not just the shard outcomes in the checkpoint journal: a resumed
    run can reload the exact snapshot the journal fingerprint was
    computed against.

``remote``  :class:`~repro.master.remote.RemoteMasterStore`
    Probes hash-routed by match key (:func:`shard_of`) to N shard-server
    *processes* (possibly on other hosts) speaking HTTP/JSON — see
    :mod:`repro.master.remote` and :mod:`repro.master.shardserver`.
    Because every probe keys on one rule's match columns, all master
    rows carrying that key live on the same shard, so a routed lookup
    returns exactly what a global index would. Probes cross the
    network; coalescing/batching through :meth:`MasterStore.probe_many`
    amortises real round trips.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import MasterDataError
from repro.core.rule import EditingRule
from repro.core.ruleset import RuleSet
from repro.relational.index import HashIndex
from repro.relational.relation import Relation
from repro.relational.schema import Schema, schema_from_json, schema_to_json

#: Backend names accepted wherever a store is selected by string
#: (CerFix, BatchCleaner, ``cerfix clean --store``, instance documents).
STORE_BACKENDS = ("single", "sqlite", "remote")


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


_SCALAR_TYPES = (str, int, float, bool, type(None))


def require_scalar_cells(values: Iterable[Any], context: str) -> None:
    """Reject cell values that do not round-trip JSON losslessly.

    Shared by every store that serialises master content (the sqlite
    snapshot, the shard-server wire protocol): anything but a JSON
    scalar must fail loudly at the boundary rather than come back
    silently altered.
    """
    for v in values:
        if not isinstance(v, _SCALAR_TYPES):
            raise MasterDataError(
                f"cannot serialise cell value {v!r} ({context}): "
                f"only JSON scalar values round-trip losslessly"
            )


def require_scalar_relation(relation: Relation, context: str) -> None:
    """:func:`require_scalar_cells` over every cell of ``relation``,
    checking the types of each column's distinct values; only a column
    whose dictionary holds a non-scalar has its cells scanned."""
    for name in relation.schema.names:
        types = set(map(type, relation.dictionary(name)))
        if not all(issubclass(t, _SCALAR_TYPES) for t in types):
            require_scalar_cells(relation.column(name), context)


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

    def probe_rows(
        self,
        rule: EditingRule,
        rows: Sequence[Mapping[str, Any]],
        *,
        use_index: bool = True,
    ) -> list[MasterMatch]:
        """:meth:`probe` for one ``rule`` against each of ``rows``, in order;
        in-process stores override it to answer the batch in one call."""
        return [self.probe(rule, values, use_index=use_index) for values in rows]

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
        optional otherwise. A freshly unpickled process worker calls it
        too, so the indexes pickling stripped are rebuilt before its
        first fix.
        """
        raise NotImplementedError

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
        return self._probe_rows(rule, (values,), use_index)[0]

    def probe_rows(
        self,
        rule: EditingRule,
        rows: Sequence[Mapping[str, Any]],
        *,
        use_index: bool = True,
    ) -> list[MasterMatch]:
        if type(self).probe is not SingleRelationStore.probe:  # honour an override
            return super().probe_rows(rule, rows, use_index=use_index)
        return self._probe_rows(rule, rows, use_index)

    def _probe_rows(self, rule: EditingRule, rows, use_index: bool) -> list[MasterMatch]:
        memo = self._probe_memo
        if self._memo_version != self.relation._version:
            memo.clear()
            self._memo_version = self.relation._version
        # Two-level memo: the outer dict is keyed by id(rule) — hashing
        # the rule dataclass itself costs more than the probe it saves —
        # with the rule kept alive in the entry so the id cannot be
        # recycled while the entry exists. Both levels are resolved once
        # per call, the index on the call's first miss.
        entry = memo.get(id(rule))
        if entry is None or entry[0] is not rule:
            inner: dict = {}
            memo[id(rule)] = (rule, inner)
        else:
            inner = entry[1]
        attrs, index, out = rule.lhs_attrs, None, []
        for values in rows:
            key = tuple([values[a] for a in attrs])
            try:
                hit = inner.get((key, use_index))
                key_hashable = True
            except TypeError:  # unhashable cell value: probe uncached
                hit, key_hashable = None, False
            if hit is None:
                if not use_index:
                    hit = self._scan_probe(rule, key)
                else:
                    if index is None:
                        index = self.relation.index_on(rule.m_attrs, rule.ops)
                    hit = self._match_at(rule, tuple(index.lookup(key)))
                if key_hashable:
                    if len(inner) >= self._MEMO_MAX:
                        inner.clear()
                    inner[(key, use_index)] = hit
            out.append(hit)
        return out

    def prebuild(self, ruleset: RuleSet) -> None:
        for attrs, ops in ruleset.index_specs():
            self.relation.index_on(attrs, ops)

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        index = self.relation.index_on(rule.m_attrs, rule.ops)
        return self._ambiguities(rule, index.duplicate_keys())


def shard_of(key: tuple, n_shards: int) -> int:
    """Deterministic shard routing for one normalised match key.

    Uses a content hash (not Python's randomised ``hash()``) so routing
    agrees across processes and interpreter runs: the remote client
    (:meth:`~repro.master.remote.RemoteMasterStore.route`) and every
    shard server (:class:`~repro.master.shardserver.ShardServerApp`)
    must route a key to the same shard.
    """
    if n_shards == 1:
        return 0
    h = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(h, "big") % n_shards


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

    def probe_rows(self, rule, rows, *, use_index: bool = True) -> list[MasterMatch]:
        return self._inner.probe_rows(rule, rows, use_index=use_index)

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
    store.relation = Relation(schema, tuples)
    store._inner = SingleRelationStore(store.relation)
    return store


def make_store(
    relation: Relation | None,
    backend: str = "single",
    *,
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
    return make_store(master, store, path=path, urls=urls)
