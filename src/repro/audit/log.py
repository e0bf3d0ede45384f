"""The audit log: an append-only store of change events."""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.audit.events import ChangeEvent
from repro.obs import trace as tracing


class Segment(NamedTuple):
    """A run of one batch group's audit events sharing a round and span:
    user validations as ``(attr, old, new)``, then the chase's
    :class:`~repro.core.chase.FixStep` s. A transcript is a tuple of them."""

    round_no: int
    users: tuple[tuple[str, Any, Any], ...]
    steps: tuple  # FixSteps: attr, old, new, rule_id, master_positions, normalized
    trace_id: str | None = None
    span_id: str | None = None


def transcript_events(transcript: Iterable[Segment]) -> Iterator[tuple]:
    """A transcript's events in order, each as :class:`ChangeEvent`'s
    fields from ``attr`` on."""
    for seg in transcript:
        r, trace_id, span_id = seg.round_no, seg.trace_id, seg.span_id
        for attr, old, new in seg.users:
            yield attr, old, new, "user", None, (), r, trace_id, span_id
        for s in seg.steps:
            source = "normalize" if s.normalized else "rule"
            yield s.attr, s.old, s.new, source, s.rule_id, s.master_positions, r, trace_id, span_id


class _Group(NamedTuple):
    """One batch group's provenance, stored once for all its members.

    Member ``m``'s ``j``-th event has sequence number
    ``base + m * size + j``: the order a member-by-member replay of the
    transcript would have assigned, and the ``old`` and ``new`` it gives
    (see :meth:`AuditLog.record_group`)."""

    base: int
    size: int  # events in the transcript
    transcript: Sequence[Segment]
    tuple_ids: Sequence[str]
    rows: Sequence[Sequence[Any]]  # per member: its input row
    answers: Sequence[Sequence[Any]] | None  # per member: its truth row
    columns: Mapping[str, int]  # attribute → position in a row
    shared: frozenset[str]  # attributes whose user events keep the group's value
    stamp: tuple  # (trace_id, span_id) for events the worker left unstamped

    def member_events(self, m: int) -> list[ChangeEvent]:
        tid = self.tuple_ids[m]
        seq = self.base + m * self.size
        row = list(self.rows[m])
        answer = self.answers[m] if self.answers is not None else row
        out = []
        events = enumerate(transcript_events(self.transcript))
        for j, (attr, _, new, source, rule_id, positions, round_no, trace_id, span_id) in events:
            if trace_id is None:
                trace_id, span_id = self.stamp
            col = self.columns[attr]
            old = row[col]
            if source == "user" and attr not in self.shared:
                new = answer[col]
            row[col] = new
            out.append(ChangeEvent(
                seq + j, tid, attr, old, new, source, rule_id,
                tuple(positions), round_no, trace_id, span_id,
            ))
        return out


class AuditLog:
    """Append-only change history with simple secondary views.

    One log typically serves a whole monitoring stream; events carry the
    tuple id, so per-tuple traces and per-attribute statistics are just
    filters over it.

    :meth:`record` appends one event (monitor sessions, the entry
    service); :meth:`record_group` appends a batch group's transcript
    once for all its member tuples, expanded into per-tuple
    :class:`ChangeEvent` objects only when read — :meth:`by_tuple` just
    the asked member, whole-log views each group once, in sequence
    order — so readers see exactly what a member-by-member replay would
    have recorded.

    Thread-safe: the async entry service records events from many
    concurrent sessions into one log, and a batch clean may record into
    it alongside them, so both appends share one lock and one sequence
    counter, and every read works over an atomic snapshot. Global
    sequence order then reflects the actual interleaving; *per-tuple*
    order is what the certain-fix semantics guarantee (a session is
    only ever touched by one thread at a time).
    """

    def __init__(self):
        self._reset(())

    def _reset(self, events: Iterable[ChangeEvent]) -> None:
        self._entries: list[ChangeEvent | _Group] = list(events)  # in seq order
        self._by_tuple: dict[str, list] = {}  # events and (group, member) refs
        for event in self._entries:
            self._by_tuple.setdefault(event.tuple_id, []).append(event)
        self._seq = len(self._entries)
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        return {"events": list(self.events)}

    def __setstate__(self, state: dict) -> None:
        self._reset(state["events"])

    def record(
        self,
        tuple_id: str,
        attr: str,
        old: Any,
        new: Any,
        source: str,
        *,
        rule_id: str | None = None,
        master_positions: Iterable[int] = (),
        round_no: int = 0,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> ChangeEvent:
        """Append one event; the sequence number is assigned here.

        When tracing is enabled and no explicit ids are given, the
        event is stamped with the active span."""
        if trace_id is None:
            trace_id, span_id = tracing.current_ids()
        with self._lock:
            event = ChangeEvent(
                self._seq, tuple_id, attr, old, new, source, rule_id,
                tuple(master_positions), round_no, trace_id, span_id,
            )
            self._seq += 1
            self._entries.append(event)
            self._by_tuple.setdefault(tuple_id, []).append(event)
        return event

    def record_group(
        self,
        transcript: Sequence[Segment],
        tuple_ids: Sequence[str],
        rows: Sequence[Sequence[Any]],
        answers: Sequence[Sequence[Any]] | None,
        columns: Mapping[str, int],
        shared: frozenset[str] = frozenset(),
    ) -> None:
        """Append one batch group's transcript for every member tuple.

        ``transcript`` is the worker's tuple of :class:`Segment` s (kept
        by reference). Reads replay it over member ``m``'s input row
        ``rows[m]``, whose attributes sit at ``columns``: each ``old`` is
        its current cell, and a user event on an attribute outside
        ``shared`` takes the member's answer ``answers[m][column]``
        (without answers, the current cell) as its ``new``. Events the
        worker left unstamped take the span active here, as
        :meth:`record` would stamp them."""
        size = sum(len(seg.users) + len(seg.steps) for seg in transcript)
        if not size:
            return
        stamp = tracing.current_ids()
        with self._lock:
            group = _Group(self._seq, size, transcript, tuple_ids, rows, answers, columns, shared,
                           stamp)
            self._seq += size * len(tuple_ids)
            self._entries.append(group)
            for m, tid in enumerate(tuple_ids):
                self._by_tuple.setdefault(tid, []).append((group, m))

    @property
    def events(self) -> tuple[ChangeEvent, ...]:
        with self._lock:
            entries = list(self._entries)
        out: list[ChangeEvent] = []
        for entry in entries:
            if isinstance(entry, ChangeEvent):
                out.append(entry)
            else:
                for m in range(len(entry.tuple_ids)):
                    out.extend(entry.member_events(m))
        return tuple(out)

    def filter(self, predicate: Callable[[ChangeEvent], bool]) -> list[ChangeEvent]:
        return [e for e in self.events if predicate(e)]

    def by_tuple(self, tuple_id: str) -> list[ChangeEvent]:
        """All events for one tuple, in order — the demo's per-tuple trace.

        Served from a per-tuple index maintained on append, so the
        monitoring stream's per-row trace stays O(events for that tuple)
        instead of O(all events) — the difference between linear and
        quadratic total stream cost. Only this tuple's share of a batch
        group is expanded."""
        with self._lock:
            refs = list(self._by_tuple.get(tuple_id, ()))
        out: list[ChangeEvent] = []
        for ref in refs:
            if isinstance(ref, ChangeEvent):
                out.append(ref)
            else:
                group, m = ref
                out.extend(group.member_events(m))
        return out

    def by_attr(self, attr: str) -> list[ChangeEvent]:
        """All events for one attribute (column) — the Fig. 4 column view."""
        return self.filter(lambda e: e.attr == attr)

    def stats(self) -> dict:
        """Registry-source summary (see :mod:`repro.obs.metrics`)."""
        with self._lock:
            return {"events": self._seq, "tuples": len(self._by_tuple)}

    def tuple_ids(self) -> list[str]:
        """Distinct tuple ids, in first-seen order (the per-tuple index's)."""
        with self._lock:
            return list(self._by_tuple)

    # -- persistence -------------------------------------------------------

    def to_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8") as f:
            for event in self.events:
                f.write(json.dumps(event.to_json(), default=str))
                f.write("\n")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "AuditLog":
        with Path(path).open(encoding="utf-8") as f:
            events = [
                ChangeEvent.from_json(json.loads(line)) for line in f if line.strip()
            ]
        log = cls()
        log._reset(events)
        return log

    def __len__(self) -> int:
        with self._lock:
            return self._seq

    def __iter__(self) -> Iterator[ChangeEvent]:
        return iter(self.events)
