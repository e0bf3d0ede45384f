"""Monitor sessions: the per-tuple interaction state machine of Fig. 3.

A session holds one input tuple's working copy, the set of validated
attributes and the round history. Each round: the monitor offers a
:class:`~repro.monitor.suggest.Suggestion`; the user validates some
attributes (the suggested ones or others — step (2) of the paper allows
both); the session chases editing rules against master data, expanding
the validated set; repeat until a certain fix is reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import MonitorError
from repro.audit.log import AuditLog
from repro.core.certainty import CertaintyMode, Scenario
from repro.core.chase import ConflictWitness, FixStep, chase, chase_memoized
from repro.core.region import RankedRegion
from repro.core.ruleset import RuleSet
from repro.master.manager import MasterDataManager
from repro.monitor.suggest import Suggestion, SuggestionStrategy, compute_suggestion
from repro.obs import trace as tracing
from repro.obs.metrics import get_registry

#: Chase latency in the process-wide registry: fixed-bucket observe, so
#: the hot path pays two clock reads and one short lock per chase.
_CHASE_SECONDS = get_registry().histogram("cerfix.chase.seconds")


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one interaction round."""

    round_no: int
    suggestion: Suggestion | None
    user_assignments: tuple[tuple[str, Any], ...]
    steps: tuple[FixStep, ...]
    newly_validated: tuple[str, ...]
    conflicts: tuple[ConflictWitness, ...]


class MonitorSession:
    """Interactive certain fixing of one input tuple.

    >>> # session = MonitorSession(ruleset, master, tuple_values, "t1")
    >>> # while not session.is_complete:
    >>> #     s = session.suggestion()
    >>> #     session.validate({a: true_value(a) for a in s.attrs})
    >>> # fixed = session.current_values()

    ``strict=True`` raises on the first conflict; otherwise conflicts are
    recorded on the round and surfaced via :attr:`conflicts`.
    """

    def __init__(
        self,
        ruleset: RuleSet,
        master: MasterDataManager,
        values: Mapping[str, Any],
        tuple_id: str = "t",
        *,
        regions: Sequence[RankedRegion] = (),
        strategy: SuggestionStrategy = SuggestionStrategy.CORE_FIRST,
        mode: CertaintyMode = CertaintyMode.STRICT,
        scenario: Scenario | None = None,
        audit: AuditLog | None = None,
        strict: bool = False,
        use_index: bool = True,
        max_combos: int = 50_000,
        costs: Mapping[str, float] | None = None,
        suggestion_memo: Any = None,
        chase_memo: Any = None,
        trace: bool = True,
    ):
        schema = ruleset.input_schema
        missing = [n for n in schema.names if n not in values]
        if missing:
            raise MonitorError(f"tuple {tuple_id!r} is missing attributes {missing}")
        self.ruleset = ruleset
        self.master = master
        self.tuple_id = tuple_id
        self.regions = tuple(regions)
        self.strategy = strategy
        self.mode = mode
        self.scenario = scenario
        self.audit = audit if audit is not None else AuditLog()
        self.strict = strict
        self.use_index = use_index
        self.max_combos = max_combos
        self.costs = dict(costs) if costs else None
        #: Optional cross-session suggestion memo (``get``/``put``). A
        #: suggestion is a deterministic function of the validated
        #: (attr, value) pairs plus the engine configuration, so
        #: sessions over duplicate-heavy traffic can share inference
        #: work. The caller owns key-space hygiene for everything not
        #: in the key (regions, scenario, master content) — see
        #: :class:`repro.batch.cache.MemoView`. Disabled when
        #: per-attribute ``costs`` are in play.
        self._suggestion_memo = suggestion_memo if costs is None else None
        #: Optional cross-session chase memo (see
        #: :func:`repro.core.chase.chase_memoized`): transcripts are
        #: shared across sessions whose validated (attr, value) states
        #: coincide. Same hygiene contract as the suggestion memo; not
        #: sound under strict mode (a strict chase aborts mid-sweep).
        self._chase_memo = chase_memo if not strict else None

        self._state: dict[str, Any] = {n: values[n] for n in schema.names}
        self._all_attrs: frozenset[str] = frozenset(schema.names)
        self._validated: frozenset[str] = frozenset()
        self._provenance: dict[str, str] = {}  # attr -> "user" | "rule"
        self.rounds: list[RoundRecord] = []
        self._round_count = 0  # rounds with round_no > 0, i.e. len minus the entry round
        self._suggestion_cache: tuple[frozenset[str], Suggestion | None] | None = None
        #: Per-session span gate: the batch executor opens one
        #: group-chase span per group and passes ``trace=False`` here,
        #: so a 5k-row run exports thousands of spans, not millions.
        self._trace = trace

        # Round 0: rules applicable with nothing validated (constant rules
        # with empty patterns) fire immediately on entry.
        with tracing.span("session-open", tuple=tuple_id) if trace else tracing.NOOP:
            self._run_chase(round_no=0, suggestion=None, assignments={})

    # -- state views -------------------------------------------------------

    @property
    def schema(self):
        return self.ruleset.input_schema

    @property
    def validated(self) -> frozenset[str]:
        return self._validated

    @property
    def provenance(self) -> dict[str, str]:
        """attr -> "user" | "rule" for every validated attribute."""
        return dict(self._provenance)

    @property
    def is_complete(self) -> bool:
        """True iff every attribute is validated — a certain fix."""
        return self._validated >= self._all_attrs

    @property
    def round_no(self) -> int:
        return self._round_count

    @property
    def conflicts(self) -> tuple[ConflictWitness, ...]:
        return tuple(c for r in self.rounds for c in r.conflicts)

    def current_values(self) -> dict[str, Any]:
        """The working copy (certain fix once :attr:`is_complete`)."""
        return dict(self._state)

    def fixed_values(self) -> dict[str, Any]:
        """The certain fix; raises unless the session is complete."""
        if not self.is_complete:
            raise MonitorError(
                f"tuple {self.tuple_id!r}: no certain fix yet — "
                f"unvalidated attributes {sorted(frozenset(self.schema.names) - self._validated)}"
            )
        return dict(self._state)

    # -- the interaction loop ----------------------------------------------

    def suggestion(self) -> Suggestion | None:
        """Step (1)/(3): what the monitor recommends validating next."""
        if self.is_complete:
            return None
        if self._suggestion_cache is not None and self._suggestion_cache[0] == self._validated:
            return self._suggestion_cache[1]
        memo_key = self._memo_key()
        if memo_key is not None:
            memoised = self._suggestion_memo.get(memo_key)
            if memoised is not None:
                self._suggestion_cache = (self._validated, memoised)
                return memoised
        with tracing.span("suggest", tuple=self.tuple_id) if self._trace else tracing.NOOP:
            suggestion = compute_suggestion(
                self._state,
                self._validated,
                self.ruleset,
                self.master,
                strategy=self.strategy,
                regions=self.regions,
                mode=self.mode,
                scenario=self.scenario,
                max_combos=self.max_combos,
                costs=self.costs,
            )
        self._suggestion_cache = (self._validated, suggestion)
        if memo_key is not None and suggestion is not None:
            self._suggestion_memo.put(memo_key, suggestion)
        return suggestion

    def _memo_key(self) -> tuple | None:
        """The cross-session memo key, or None when memoisation is off.

        Suggestions read only *validated* values (unvalidated cells are
        treated as unknown by every strategy), so the key is the sorted
        validated (attr, value) pairs plus strategy and mode. Unhashable
        values opt the session out rather than raising.
        """
        if self._suggestion_memo is None:
            return None
        try:
            items = tuple(sorted((a, self._state[a]) for a in self._validated))
            hash(items)
        except TypeError:
            return None
        return (items, self.strategy.value, self.mode.value)

    def validate(self, assignments: Mapping[str, Any]) -> RoundRecord:
        """The user validates attributes, supplying their correct values.

        Values may equal the current (confirmation) or differ (the user
        corrects the cell). Re-validating an already-validated attribute
        with a *different* value is rejected: it would contradict an
        earlier certain fix.
        """
        with tracing.span("interaction", tuple=self.tuple_id) if self._trace else tracing.NOOP:
            return self._validate(assignments)

    def _validate(self, assignments: Mapping[str, Any]) -> RoundRecord:
        if self.is_complete:
            raise MonitorError(f"tuple {self.tuple_id!r} already has a certain fix")
        if not assignments:
            raise MonitorError("validate() needs at least one attribute")
        suggestion = self.suggestion()
        for attr in assignments:
            if attr not in self.schema:
                raise MonitorError(f"unknown attribute {attr!r}")
            if attr in self._validated and assignments[attr] != self._state[attr]:
                raise MonitorError(
                    f"attribute {attr!r} was already validated as {self._state[attr]!r}; "
                    f"refusing the contradictory value {assignments[attr]!r}"
                )
        round_no = self.round_no + 1
        user_items = []
        for attr, value in assignments.items():
            if attr in self._validated:
                continue
            old = self._state[attr]
            self._state[attr] = value
            self._validated |= {attr}
            self._provenance[attr] = "user"
            self.audit.record(
                self.tuple_id, attr, old, value, "user", round_no=round_no
            )
            user_items.append((attr, value))
        record = self._run_chase(
            round_no=round_no, suggestion=suggestion, assignments=dict(user_items)
        )
        return record

    def assure(self, attrs: Iterable[str]) -> RoundRecord:
        """Validate the *current* values of ``attrs`` (they are correct)."""
        return self.validate({a: self._state[a] for a in attrs})

    def run(self, user: "UserLike", max_rounds: int | None = None) -> bool:
        """Drive the loop with a user model; True iff a certain fix was
        reached. Stops early when the user has nothing more to offer."""
        limit = max_rounds if max_rounds is not None else len(self.schema) + 1
        while not self.is_complete and self.round_no < limit:
            suggestion = self.suggestion()
            if suggestion is None:
                break
            assignments = user.respond(suggestion, self)
            if not assignments:
                break
            self.validate(assignments)
        return self.is_complete

    # -- internals -----------------------------------------------------------

    def _run_chase(
        self,
        round_no: int,
        suggestion: Suggestion | None,
        assignments: Mapping[str, Any],
    ) -> RoundRecord:
        before = self._validated
        # Through this module's ``chase``/``chase_memoized``, so a wrapper
        # installed there (a profiler, a traced bench) sees every chase.
        started = time.perf_counter()
        if self._chase_memo is not None:
            result = chase_memoized(
                self._state, self._validated, self.ruleset, self.master, self._chase_memo,
                use_index=self.use_index,
            )
        else:
            result = chase(
                self._state, self._validated, self.ruleset, self.master,
                strict=self.strict, use_index=self.use_index,
            )
        _CHASE_SECONDS.observe(time.perf_counter() - started)
        self._state = result.values
        self._validated = result.validated
        for step in result.steps:
            self.audit.record(
                self.tuple_id, step.attr, step.old, step.new,
                "normalize" if step.normalized else "rule",
                rule_id=step.rule_id, master_positions=step.master_positions, round_no=round_no,
            )
        for attr in result.validated - before - frozenset(assignments):
            self._provenance.setdefault(attr, "rule")
        record = RoundRecord(
            round_no=round_no,
            suggestion=suggestion,
            user_assignments=tuple(assignments.items()),
            steps=result.steps,
            newly_validated=tuple(sorted(result.validated - before)),
            conflicts=result.conflicts,
        )
        if round_no > 0 or record.steps or record.conflicts:
            self.rounds.append(record)
            if round_no > 0:
                self._round_count += 1
        return record


# Typing helper for session.run(); any object with .respond(suggestion,
# session) -> Mapping works (see repro.monitor.user).
class UserLike:
    def respond(self, suggestion: Suggestion, session: MonitorSession) -> Mapping[str, Any]:
        raise NotImplementedError
