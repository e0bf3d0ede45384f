"""CSV and JSON-lines I/O for relations.

The demo's "data connection" is a JDBC url; ours is flat files. CSV is the
interchange format for the ``cerfix`` CLI (``cerfix generate`` writes it,
``cerfix fix --input`` reads it); JSON-lines is used for audit-log export.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.errors import RelationError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema


def _parse_cell(text: str, dtype: str) -> Any:
    if dtype == "int":
        try:
            return int(text)
        except ValueError:
            # Dirty data is expected input; keep the raw string rather than
            # failing the whole load, so the cleaning layer can see it.
            return text
    return text


def read_csv(path: str | Path, schema: Schema | None = None, relation_name: str | None = None) -> Relation:
    """Load a relation from ``path``.

    With a ``schema``, the CSV header must contain every schema attribute
    (extra columns are ignored, order is free). Without one, a fresh
    all-string schema is inferred from the header.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise RelationError(f"{path}: empty file, no header") from None
        if schema is None:
            schema = Schema(relation_name or path.stem, [Attribute(h) for h in header])
            picks = list(range(len(header)))
            dtypes = ["str"] * len(header)
        else:
            positions = {h: i for i, h in enumerate(header)}
            missing = [n for n in schema.names if n not in positions]
            if missing:
                raise RelationError(f"{path}: header missing schema attributes {missing}")
            picks = [positions[n] for n in schema.names]
            dtypes = [schema.attribute(n).dtype for n in schema.names]
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if max(picks) >= len(record):
                raise RelationError(f"{path}:{lineno}: row has {len(record)} fields, need {max(picks) + 1}")
            rows.append(tuple(_parse_cell(record[p], dt) for p, dt in zip(picks, dtypes)))
    return Relation(schema, rows)


def write_csv(relation: Relation, path: str | Path) -> None:
    """Write ``relation`` to ``path`` with a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(relation.schema.names)
        writer.writerows(relation.tuples())


def read_jsonl(path: str | Path, schema: Schema) -> Relation:
    """Load a relation from JSON-lines (one object per line)."""
    path = Path(path)
    relation = Relation(schema)
    with path.open(encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RelationError(f"{path}:{lineno}: bad JSON ({exc})") from None
            relation.append(obj)
    return relation


def write_jsonl(relation: Relation, path: str | Path) -> None:
    """Write ``relation`` as JSON-lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        for row in relation.rows():
            f.write(json.dumps(row.to_dict(), default=str))
            f.write("\n")
