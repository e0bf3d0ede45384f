"""Hash indexes over relations.

A :class:`HashIndex` maps a (possibly normalised) key — the projection of a
row onto an attribute list — to the list of row positions carrying that
key. Indexes are what make editing-rule application O(1) per lookup
instead of a master-data scan; the scalability benchmark (E6) ablates
exactly this.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.relational.normalize import normalize_value


class HashIndex:
    """An equality index on ``attrs`` with per-attribute match operators.

    ``ops`` has one normaliser name per attribute (default ``exact``). Keys
    are normalised both at build time and at probe time, so approximate
    (MD-style) matching costs the same as exact matching.
    """

    __slots__ = ("attrs", "ops", "_buckets", "_size")

    def __init__(self, attrs: Sequence[str], ops: Sequence[str] | None = None):
        self.attrs = tuple(attrs)
        self.ops = tuple(ops) if ops is not None else ("exact",) * len(self.attrs)
        if len(self.ops) != len(self.attrs):
            raise ValueError(f"index on {self.attrs}: got {len(self.ops)} ops for {len(self.attrs)} attrs")
        self._buckets: dict[tuple, list[int]] = {}
        self._size = 0

    def key_of(self, values: Sequence[Any]) -> tuple:
        """Normalise a raw key (projection values) into a bucket key."""
        return tuple(normalize_value(v, op) for v, op in zip(values, self.ops))

    def add(self, position: int, values: Sequence[Any]) -> None:
        """Index ``values`` (the row's projection on ``attrs``) at ``position``."""
        self._buckets.setdefault(self.key_of(values), []).append(position)
        self._size += 1

    def build(self, projections: Iterable[Sequence[Any]]) -> "HashIndex":
        """Bulk-load from an iterable of row projections; returns ``self``."""
        for pos, values in enumerate(projections):
            self.add(pos, values)
        return self

    def build_prenormalized(self, keys: Iterable[tuple]) -> "HashIndex":
        """Bulk-load from *already normalised* bucket keys; returns ``self``.

        The columnar :class:`~repro.relational.relation.Relation` derives
        keys from per-column normalised arrays — each distinct column value
        is normalised once at intern time, not once per row — so the bulk
        build is pure id-array composition. Callers guarantee each key
        equals :meth:`key_of` of the corresponding raw projection; probes
        still go through :meth:`key_of`, so bucket contents are identical
        to a :meth:`build` over the raw projections.
        """
        buckets = self._buckets
        pos = -1
        for pos, key in enumerate(keys):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [pos]
            else:
                bucket.append(pos)
        self._size += pos + 1
        return self

    def lookup(self, values: Sequence[Any]) -> list[int]:
        """Row positions whose projection normalises to the same key."""
        return self._buckets.get(self.key_of(values), [])

    def keys(self) -> Iterable[tuple]:
        """All distinct (normalised) keys present."""
        return self._buckets.keys()

    def items(self) -> Iterable[tuple[tuple, list[int]]]:
        """Every (normalised key, row positions) bucket."""
        return self._buckets.items()

    def duplicate_keys(self) -> dict[tuple, list[int]]:
        """Keys carried by more than one row — ambiguity diagnostics."""
        return {k: v for k, v in self._buckets.items() if len(v) > 1}

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        spec = ", ".join(
            a if op == "exact" else f"{a}~{op}" for a, op in zip(self.attrs, self.ops)
        )
        return f"HashIndex({spec}; {len(self._buckets)} keys, {self._size} entries)"
