"""The master data manager.

Master data (reference data) is "a single repository of high-quality data
… assumed consistent and accurate" (paper §2, citing [9]). The manager is
the facade the chase, monitor and batch layers talk to; storage itself
lives behind the :class:`~repro.master.store.MasterStore` interface
(single in-memory relation, sqlite-persisted, or remote shard servers —
see :mod:`repro.master.store`). The manager serves exactly one query shape —
*given an editing rule and an input tuple's validated values, which
master tuples match, and do they agree on the correction value?* — and
handles the one case no store ever sees: constant-sourced rules, whose
"fix" never touches master data.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.core.rule import Constant, EditingRule
from repro.core.ruleset import RuleSet
from repro.master.store import (
    MasterMatch,
    MasterStore,
    SingleRelationStore,
)
from repro.relational.relation import Relation
from repro.relational.row import Row

__all__ = ["MasterDataManager", "MasterMatch"]


class MasterDataManager:
    """Indexed access to one master relation, behind a pluggable store.

    Accepts either a bare :class:`Relation` (wrapped in the default
    :class:`~repro.master.store.SingleRelationStore`) or any
    :class:`~repro.master.store.MasterStore` backend.

    >>> from repro.relational import Relation, Schema
    >>> rel = Relation(Schema("m", ["zip", "AC"]), [("EH8 4AH", "131")])
    >>> mgr = MasterDataManager(rel)
    >>> len(mgr)
    1
    """

    def __init__(self, source: Relation | MasterStore):
        self.store = source if isinstance(source, MasterStore) else SingleRelationStore(source)

    @property
    def relation(self) -> Relation:
        """The canonical master relation (global position order)."""
        return self.store.relation

    @property
    def schema(self):
        return self.store.schema

    def __len__(self) -> int:
        return len(self.store)

    # -- rule probing ------------------------------------------------------

    def prebuild(self, ruleset: RuleSet) -> None:
        """Eagerly build every probe structure the rule set will touch.

        Optional — structures build lazily on first probe — but useful to
        move the build cost out of the first point-of-entry fix
        (benchmark E6 measures both), and required before probing one
        store from several threads.
        """
        self.store.prebuild(ruleset)

    def match(
        self,
        rule: EditingRule,
        values: Mapping[str, Any],
        *,
        use_index: bool = True,
    ) -> MasterMatch:
        """Probe the master data for ``rule`` against input ``values``.

        ``values`` must contain every attribute of the rule's LHS; the
        chase guarantees this by only probing rules whose reads are
        validated. ``use_index=False`` forces a scan (the E6 ablation).
        """
        if isinstance(rule.source, Constant):
            return MasterMatch(positions=(), values=(rule.source.value,))
        return self.store.probe(rule, values, use_index=use_index)

    def match_many(
        self,
        rule: EditingRule,
        rows: Sequence[Mapping[str, Any]],
        *,
        use_index: bool = True,
    ) -> list[MasterMatch]:
        """:meth:`match` for one master-sourced ``rule`` against each of
        ``rows``, in order (the set-at-a-time chase's probe): one
        :meth:`~repro.master.store.MasterStore.probe_rows` call."""
        return self.store.probe_rows(rule, rows, use_index=use_index)

    def row(self, position: int) -> Row:
        """The master tuple at ``position`` (for audit provenance)."""
        return self.relation.row(position)

    # -- diagnostics -------------------------------------------------------

    def ambiguous_keys(self, rule: EditingRule) -> dict[tuple, tuple[Any, ...]]:
        """Keys of ``rule``'s master index whose matches disagree on the
        correction value.

        An input tuple hitting such a key can never be fixed by this rule
        (the uniqueness gate blocks it); surfacing them statically is part
        of the rule engine's consistency analysis.
        """
        if isinstance(rule.source, Constant):
            return {}
        return self.store.ambiguous_keys(rule)

    # -- maintenance -------------------------------------------------------

    def apply_update(
        self,
        add: Iterable[Mapping[str, Any]] = (),
        remove: Iterable[int] = (),
    ) -> tuple[int, int]:
        """Apply master-data changes through the store (so persistent
        backends write through and derived caches invalidate)."""
        return self.store.apply_update(add, remove)

    def content_digest(self) -> str:
        """Backend-independent SHA-256 of the master content."""
        return self.store.content_digest()

    def __repr__(self) -> str:
        return f"MasterDataManager({self.store!r})"
