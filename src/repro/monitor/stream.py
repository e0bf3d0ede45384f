"""Point-of-entry stream processing.

CerFix "finds certain fixes for input tuples at the point of data entry";
the stream processor models exactly that: a sequence of incoming tuples,
one monitor session each, a (simulated) user per tuple, and a shared
audit log. Its report carries the per-tuple round counts and the
user/auto cell split that Fig. 4 and the 20%/80% claim are about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import MonitorError
from repro.audit.log import AuditLog
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.monitor.session import MonitorSession
from repro.monitor.suggest import SuggestionStrategy
from repro.monitor.user import OracleUser, User
from repro.relational.relation import Relation


@dataclass(frozen=True)
class TupleOutcome:
    """One tuple's journey through the monitor."""

    tuple_id: str
    complete: bool
    rounds: int
    user_cells: int
    rule_cells: int
    changed_cells: int
    conflicts: int

    @property
    def total_validated(self) -> int:
        return self.user_cells + self.rule_cells


@dataclass
class StreamReport:
    """Aggregate outcome of a monitoring stream."""

    outcomes: list[TupleOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def tuples(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        """Tuples with a certain fix: fully validated, no conflicts."""
        return sum(1 for o in self.outcomes if o.complete and not o.conflicts)

    @property
    def user_cells(self) -> int:
        return sum(o.user_cells for o in self.outcomes)

    @property
    def rule_cells(self) -> int:
        return sum(o.rule_cells for o in self.outcomes)

    @property
    def user_share(self) -> float:
        """Fraction of validated cells the *user* provided (paper: ~20%)."""
        total = self.user_cells + self.rule_cells
        return self.user_cells / total if total else 0.0

    @property
    def auto_share(self) -> float:
        """Fraction of validated cells CerFix fixed itself (paper: ~80%)."""
        total = self.user_cells + self.rule_cells
        return self.rule_cells / total if total else 0.0

    @property
    def mean_rounds(self) -> float:
        done = [o.rounds for o in self.outcomes if o.complete]
        return sum(done) / len(done) if done else 0.0

    @property
    def throughput(self) -> float:
        """Tuples per second."""
        return self.tuples / self.elapsed_seconds if self.elapsed_seconds else 0.0


class _SuggestionMemo:
    """A bounded get/put memo shared by one stream's sessions.

    Point-of-entry traffic is duplicate-heavy (the same population
    re-enters transactions), and a suggestion is a deterministic
    function of the validated (attr, value) pairs plus the engine
    configuration — which is constant across one stream run, so the
    memo-key hygiene the session API requires holds by construction
    (same ruleset, master, regions, scenario for every session).
    """

    __slots__ = ("_store", "_maxsize")

    def __init__(self, maxsize: int = 65536):
        self._store: dict = {}
        self._maxsize = maxsize

    def get(self, key, default=None):
        return self._store.get(key, default)

    def put(self, key, value) -> None:
        if len(self._store) >= self._maxsize:
            self._store.clear()
        self._store[key] = value


class StreamProcessor:
    """Run monitor sessions over a relation of incoming dirty tuples."""

    def __init__(
        self,
        ruleset: RuleSet,
        master: MasterDataManager,
        *,
        regions: Sequence[RankedRegion] = (),
        strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
        mode: CertaintyMode = CertaintyMode.STRICT,
        scenario: Scenario | None = None,
        audit: AuditLog | None = None,
        use_index: bool = True,
        max_rounds: int | None = None,
    ):
        self.ruleset = ruleset
        self.master = master
        self.regions = tuple(regions)
        self.strategy = strategy
        self.mode = mode
        self.scenario = scenario
        self.audit = audit if audit is not None else AuditLog()
        self.use_index = use_index
        self.max_rounds = max_rounds

    def process(
        self,
        dirty: Relation,
        truth: Relation | None = None,
        *,
        user_factory: Callable[[str, Mapping[str, Any] | None], User] | None = None,
        tuple_ids: Sequence[str] | None = None,
    ) -> StreamReport:
        """Monitor every tuple of ``dirty``.

        By default each tuple gets an :class:`OracleUser` backed by the
        corresponding ``truth`` row (required then); pass ``user_factory``
        for other user models. Sessions that stall (user out of answers)
        are recorded as incomplete, not raised.
        """
        if user_factory is None:
            if truth is None:
                raise MonitorError("process() needs either truth rows or a user_factory")
            user_factory = lambda tid, t: OracleUser(t)  # noqa: E731
        if truth is not None and len(truth) != len(dirty):
            raise MonitorError(
                f"truth has {len(truth)} rows but the dirty stream has {len(dirty)}"
            )
        report = StreamReport()
        memo = _SuggestionMemo()
        start = time.perf_counter()
        for i, row in enumerate(dirty.rows()):
            tid = tuple_ids[i] if tuple_ids is not None else f"t{i}"
            truth_values = truth.row(i).to_dict() if truth is not None else None
            session = MonitorSession(
                self.ruleset,
                self.master,
                row.to_dict(),
                tid,
                regions=self.regions,
                strategy=self.strategy,
                mode=self.mode,
                scenario=self.scenario,
                audit=self.audit,
                use_index=self.use_index,
                suggestion_memo=memo,
            )
            user = user_factory(tid, truth_values)
            session.run(user, max_rounds=self.max_rounds)
            provenance = session.provenance
            changed = sum(1 for e in self.audit.by_tuple(tid) if e.changed)
            report.outcomes.append(
                TupleOutcome(
                    tuple_id=tid,
                    complete=session.is_complete,
                    rounds=session.round_no,
                    user_cells=sum(1 for s in provenance.values() if s == "user"),
                    rule_cells=sum(1 for s in provenance.values() if s == "rule"),
                    changed_cells=changed,
                    conflicts=len(session.conflicts),
                )
            )
        report.elapsed_seconds = time.perf_counter() - start
        return report
