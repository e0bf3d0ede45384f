"""The CerFix engine facade — the library's main entry point.

Bundles the Fig. 1 architecture: rule engine (a validated
:class:`~repro.core.ruleset.RuleSet`), master data manager, region
finder, data monitor and data auditing, behind one object:

>>> from repro import CerFix
>>> from repro.scenarios import uk_customers as uk
>>> engine = CerFix(uk.paper_ruleset(), uk.paper_master())
>>> report = engine.check_consistency()          # rule engine static analysis
>>> session = engine.session(uk.fig3_tuple(), "t1")   # data monitor
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import MasterDataError
from repro.audit.log import AuditLog
from repro.batch.pipeline import BatchCleaner, BatchResult
from repro.core.certainty import CertaintyMode, Scenario, is_certain_region
from repro.core.chase import ChaseResult, chase
from repro.core.consistency import ConsistencyReport, check_consistency
from repro.core.region import RankedRegion, Region
from repro.core.region_finder import find_certain_regions
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.master.store import MasterStore, resolve_master
from repro.monitor.session import MonitorSession
from repro.obs.metrics import get_registry
from repro.monitor.stream import StreamProcessor, StreamReport
from repro.monitor.suggest import SuggestionStrategy
from repro.monitor.user import User
from repro.relational.relation import Relation


@dataclass(frozen=True)
class MasterUpdateReport:
    """The outcome of a master-data update (see CerFix.update_master)."""

    added: int
    removed: int
    regions_kept: tuple
    regions_dropped: tuple  # (RankedRegion, CertaintyReport) pairs

    def describe(self) -> str:
        lines = [
            f"master update: +{self.added} / -{self.removed} tuples; "
            f"{len(self.regions_kept)} regions kept, {len(self.regions_dropped)} dropped"
        ]
        for ranked, report in self.regions_dropped:
            lines.append(f"  dropped {ranked.region.render()}: {report.describe()}")
        return "\n".join(lines)


class CerFix:
    """A configured CerFix instance.

    Parameters mirror the demo's initialisation step: the rule set (which
    carries both schemas) and the master data. ``mode`` / ``scenario``
    pick the certainty semantics (see DESIGN.md §1); ``strategy`` the
    suggestion policy of the data monitor.

    ``master`` may be a bare :class:`Relation` (stored under the default
    single-relation backend), any
    :class:`~repro.master.store.MasterStore`, or a ready
    :class:`MasterDataManager`. ``store`` selects a backend by name for
    the bare-relation form — ``"single"``, ``"sqlite"`` (with
    ``store_path``) or ``"remote"`` (with ``store_urls``, one entry
    per shard — a shard-server url, or a list of replica urls for
    client-side failover; the master content then lives on the
    servers, so ``master`` may be ``None`` — when a relation *is* given
    its content digest is verified against the cluster, every replica
    included).
    Every backend produces bit-identical
    fixes (the conformance suite enforces this), so the choice is
    purely about scale, durability and topology.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        master: Relation | MasterDataManager | MasterStore | None,
        *,
        mode: CertaintyMode = CertaintyMode.STRICT,
        scenario: Scenario | None = None,
        strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
        audit: AuditLog | None = None,
        use_index: bool = True,
        max_combos: int = 50_000,
        store: str | None = None,
        store_path: Any = None,
        store_urls: Any = None,
    ):
        self.ruleset = ruleset
        master = resolve_master(master, store, path=store_path, urls=store_urls)
        if master is None:
            raise MasterDataError(
                "master data is required (master=None is only valid with "
                "store='remote', where the shard servers hold the content)"
            )
        self.master = master if isinstance(master, MasterDataManager) else MasterDataManager(master)
        self.mode = mode
        self.scenario = scenario
        self.strategy = strategy
        self.audit = audit if audit is not None else AuditLog()
        self.use_index = use_index
        self.max_combos = max_combos
        self.regions: tuple[RankedRegion, ...] = ()
        if use_index:
            self.master.prebuild(ruleset)
        # One registry dump tells the whole story: audit-log size and
        # master-store shape ride along with the engine/batch counters.
        # Sources are held weakly and keyed last-wins, so short-lived
        # engines (tests) neither leak nor fight over the slots.
        registry = get_registry()
        registry.register_source("audit", self.audit.stats)
        registry.register_source("store", self.master.store.stats)

    # -- rule engine ---------------------------------------------------------

    def check_consistency(self, **kwargs) -> ConsistencyReport:
        """Static analysis: do the rules contradict each other w.r.t. the
        master data? (Runs on rule import in the demo.)"""
        return check_consistency(self.ruleset, self.master, **kwargs)

    # -- region finder ---------------------------------------------------------

    def precompute_regions(self, k: int = 5, **kwargs) -> tuple[RankedRegion, ...]:
        """Compute and cache the top-k certain regions (the demo's
        initial suggestions)."""
        kwargs.setdefault("mode", self.mode)
        kwargs.setdefault("scenario", self.scenario)
        self.regions = tuple(find_certain_regions(self.ruleset, self.master, k=k, **kwargs))
        return self.regions

    def certify_region(self, region: Region, **kwargs):
        """Exact certainty check for a user-proposed region."""
        kwargs.setdefault("mode", self.mode)
        kwargs.setdefault("scenario", self.scenario)
        return is_certain_region(
            region.attrs, region.tableau, self.ruleset, self.master, **kwargs
        )

    # -- data monitor ----------------------------------------------------------

    def session(
        self,
        values: Mapping[str, Any],
        tuple_id: str = "t",
        *,
        master: MasterDataManager | None = None,
        **kwargs,
    ) -> MonitorSession:
        """Open an interactive monitoring session for one input tuple.

        ``master`` overrides the manager the session probes through —
        over a remote store the async entry service injects its shared
        probe-cache manager here (see :meth:`serve_async`); by default
        the engine's own manager is used. Caching managers are
        probe-transparent, so the override can only change speed, never
        the fix.
        """
        kwargs.setdefault("regions", self.regions)
        kwargs.setdefault("strategy", self.strategy)
        kwargs.setdefault("mode", self.mode)
        kwargs.setdefault("scenario", self.scenario)
        kwargs.setdefault("audit", self.audit)
        kwargs.setdefault("use_index", self.use_index)
        kwargs.setdefault("max_combos", self.max_combos)
        manager = master if master is not None else self.master
        return MonitorSession(self.ruleset, manager, values, tuple_id, **kwargs)

    def fix(
        self,
        values: Mapping[str, Any],
        user: User,
        tuple_id: str = "t",
        *,
        max_rounds: int | None = None,
        **kwargs,
    ) -> MonitorSession:
        """Run a full monitor loop with a user model; returns the session."""
        session = self.session(values, tuple_id, **kwargs)
        session.run(user, max_rounds=max_rounds)
        return session

    def stream(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        user_factory: Callable[[str, Mapping[str, Any] | None], User] | None = None,
        tuple_ids: Sequence[str] | None = None,
        max_rounds: int | None = None,
    ) -> StreamReport:
        """Monitor a stream of incoming tuples (point-of-entry cleaning)."""
        processor = StreamProcessor(
            self.ruleset,
            self.master,
            regions=self.regions,
            strategy=self.strategy,
            mode=self.mode,
            scenario=self.scenario,
            audit=self.audit,
            use_index=self.use_index,
            max_rounds=max_rounds,
        )
        return processor.process(
            dirty, truth, user_factory=user_factory, tuple_ids=tuple_ids
        )

    def clean_relation(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        workers: int = 1,
        shards: int | None = None,
        dedupe: bool = True,
        validated: Sequence[str] = (),
        journal_path: Any = None,
        cache_path: Any = None,
        tuple_ids: Sequence[str] | None = None,
        max_rounds: int | None = None,
        cache_size: int = 4096,
    ) -> BatchResult:
        """Clean a whole relation through the batch pipeline.

        The batch counterpart of :meth:`stream`: duplicate repair
        signatures are resolved once, and the plan is sharded across
        ``workers`` (``workers=1`` is the deterministic serial path;
        ``workers > 1`` runs that many worker processes, with
        bit-identical output). Probes on an in-process store go
        straight to the store; over a remote store they go through a
        ``cache_size``-entry LRU probe cache, and ``cache_path``
        persists that cache across runs (warm-started only when master
        content and rule set are unchanged). ``journal_path``
        checkpoints per-shard progress in a JSON-lines file so an
        interrupted run resumes without recleaning its finished shards.
        Returns a :class:`BatchResult` carrying the repaired relation
        and the :class:`BatchReport`; per-cell provenance lands in
        :attr:`audit`.
        """
        cleaner = BatchCleaner(
            self.ruleset,
            self.master,
            mode=self.mode,
            scenario=self.scenario,
            strategy=self.strategy,
            regions=self.regions,
            audit=self.audit,
            use_index=self.use_index,
            max_combos=self.max_combos,
            cache_size=cache_size,
        )
        return cleaner.clean(
            dirty,
            truth,
            workers=workers,
            shards=shards,
            dedupe=dedupe,
            validated=validated,
            journal_path=journal_path,
            cache_path=cache_path,
            tuple_ids=tuple_ids,
            max_rounds=max_rounds,
        )

    def clean_table(
        self,
        db: Any,
        *,
        table: str = "dirty",
        page_rows: int | None = None,
        dry_run: bool = False,
        resume: str | None = None,
        workers: int = 1,
        shards: int | None = None,
        dedupe: bool = True,
        validated: Sequence[str] = (),
        max_rounds: int | None = None,
        cache_size: int = 4096,
    ):
        """Clean a dirty relation where it lives: in a database table.

        The DB-native counterpart of :meth:`clean_relation` — ``db`` is
        a sqlite path (or a :class:`~repro.dirty.backend.DbBackend`) and
        the table streams through the batch pipeline in fixed-size
        pages (``page_rows``, or ``CERFIX_PAGE_ROWS``), so relations
        larger than memory clean end to end with fixes bit-identical to
        the in-memory path. Every cell change is archived reversibly in
        the same file; ``dry_run=True`` reports without committing
        anything (the connection is read-only), ``resume=<run-id>``
        continues an interrupted run at page granularity: committed
        pages are skipped and the page that was in flight re-runs from
        scratch. The archive is the run's provenance record: nothing is
        recorded into :attr:`audit`. A committing run frees no disk
        blocks (sqlite keeps its rollback journal, see
        :mod:`repro.dirty.backend`). Undo a committed or crashed run
        with :meth:`undo`. Returns a
        :class:`~repro.dirty.cleaner.DbCleanResult`.
        """
        from repro.dirty.cleaner import DbCleaner
        from repro.dirty.table import DirtyTable

        batch = BatchCleaner(
            self.ruleset,
            self.master,
            mode=self.mode,
            scenario=self.scenario,
            strategy=self.strategy,
            regions=self.regions,
            use_index=self.use_index,
            max_combos=self.max_combos,
            cache_size=cache_size,
        )
        cleaner = DbCleaner(batch, DirtyTable(db, table), page_rows=page_rows)
        return cleaner.clean(
            workers=workers,
            shards=shards,
            dedupe=dedupe,
            validated=tuple(validated),
            max_rounds=max_rounds,
            dry_run=dry_run,
            resume=resume,
        )

    def undo(self, db: Any, run_id: str, *, table: str = "dirty"):
        """Restore the exact pre-run table of a recorded clean run.

        Digest-verified both ways: refuses if the table was modified
        after the run committed, and only commits the restore once the
        rebuilt table matches the recorded pre-run digest. Re-undoing an
        already-undone run is a no-op. Returns the updated
        :class:`~repro.dirty.archive.RunRecord`.
        """
        from repro.dirty.cleaner import undo_run
        from repro.dirty.table import DirtyTable

        return undo_run(DirtyTable(db, table), run_id)

    def serve_async(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options,
    ):
        """Start the entry service (what ``cerfix serve`` runs) on a
        background event-loop thread; returns the running
        :class:`~repro.service.http.AsyncCerFixServer` (``.url`` carries
        the bound address, ``.close()`` stops it).

        The service multiplexes concurrent monitor sessions over this
        engine behind shared suggestion and chase memos and bounded
        queues with 429 backpressure — see :mod:`repro.service`. The
        store kind picks where session work runs: on the loop for
        in-process stores, which are probed directly, and on an executor
        for a remote one, whose probes go through a shared
        ``cache_size``-entry probe cache and a micro-batcher.
        ``service_options`` forward to
        :class:`~repro.service.app.AsyncCerFixService` (``max_sessions``,
        ``cache_size``, ``batch_window_ms``, …).
        """
        from repro.service.app import AsyncCerFixService
        from repro.service.http import AsyncCerFixServer

        service = AsyncCerFixService(self, **service_options)
        return AsyncCerFixServer(service, host=host, port=port).start()

    # -- master data maintenance ---------------------------------------------

    def update_master(
        self,
        add: Iterable[Mapping[str, Any]] = (),
        remove: Iterable[int] = (),
        **kwargs,
    ) -> "MasterUpdateReport":
        """Apply master-data changes and re-certify the cached regions.

        Master data evolves (that is the point of MDM); a change can
        silently invalidate a precomputed certain region — e.g. a new
        person sharing a mobile number makes ϕ4 ambiguous. This method
        applies the changes, re-runs the exact certainty test on every
        cached region, keeps the survivors and reports the casualties
        with their counterexamples.

        Removal uses current row positions; audit provenance recorded
        earlier refers to the pre-update master (snapshot semantics).
        Changes go through the store, so persistent backends (sqlite)
        write through and derived probe structures invalidate.
        """
        n_added, n_removed = self.master.apply_update(add=add, remove=remove)
        if self.use_index:
            self.master.prebuild(self.ruleset)
        kept: list[RankedRegion] = []
        dropped: list[tuple[RankedRegion, Any]] = []
        for ranked in self.regions:
            report = self.certify_region(ranked.region, **kwargs)
            if report.certain and not report.vacuous:
                kept.append(ranked)
            else:
                dropped.append((ranked, report))
        self.regions = tuple(kept)
        return MasterUpdateReport(
            added=n_added,
            removed=n_removed,
            regions_kept=tuple(kept),
            regions_dropped=tuple(dropped),
        )

    # -- low-level escape hatch --------------------------------------------------

    def chase_once(self, values: Mapping[str, Any], validated: Iterable[str], **kwargs) -> ChaseResult:
        """One chase run, outside any session (no audit side effects)."""
        kwargs.setdefault("use_index", self.use_index)
        return chase(values, validated, self.ruleset, self.master, **kwargs)

    def __repr__(self) -> str:
        return (
            f"CerFix({len(self.ruleset)} rules, master {len(self.master)} tuples, "
            f"mode={self.mode.value}, strategy={self.strategy.value})"
        )
