"""The checkpoint journal: crash-safe progress for batch runs.

A batch run over millions of rows must survive interruption without
recleaning what it already finished. The journal is a sequence of JSON
lines: a header line binding it to one plan fingerprint, then one line
per completed shard carrying everything the pipeline needs to assemble
that shard's contribution (repaired values, statistics, audit events).

On resume the pipeline loads the journal, keeps shards whose header
matches the current plan fingerprint, and executes only the rest. A
journal written under a different input relation, sharding, or engine
configuration fingerprints differently and is discarded wholesale — a
stale checkpoint can never leak rows into a fresh run. A torn final
line (the classic mid-write crash) is dropped silently.

The journal is an append-only JSONL file written by
``clean_relation(journal_path=...)``; each shard's line is flushed and
fsynced as the shard completes. The paged DB cleaner keeps no journal:
it recovers at page granularity from its run record (see
:mod:`repro.dirty.cleaner`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.batch.executor import ShardResult


class CheckpointJournal:
    """Per-shard checkpointing for one batch run, in a JSONL file.

    >>> journal = CheckpointJournal(path)
    >>> done = journal.open(plan.fingerprint)   # {} on a fresh/stale journal
    >>> journal.record(shard_result)            # append + flush one shard
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._fingerprint: str | None = None

    def load(self, fingerprint: str) -> dict[int, ShardResult]:
        """Completed shards recorded for ``fingerprint`` (stale → empty)."""
        if not self.path.exists():
            return {}
        done: dict[int, ShardResult] = {}
        header_ok = False
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail from a mid-write crash; ignore the rest
            if obj.get("kind") == "header":
                if obj.get("fingerprint") != fingerprint:
                    return {}
                header_ok = True
            elif obj.get("kind") == "shard" and header_ok:
                result = ShardResult.from_json(obj, resumed=True)
                done[result.shard_id] = result
        return done if header_ok else {}

    def open(self, fingerprint: str) -> dict[int, ShardResult]:
        """Load resumable shards and (re)initialise the file for appends.

        A fresh or stale journal is rewritten with a new header; a
        matching one is compacted to header + valid shard lines (torn
        tails dropped) so subsequent appends are clean.
        """
        done = self.load(fingerprint)
        self._fingerprint = fingerprint
        lines = [json.dumps({"kind": "header", "fingerprint": fingerprint})]
        lines += [_shard_line(done[shard_id]) for shard_id in sorted(done)]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic rewrite: a crash mid-compaction must not destroy the
        # checkpoints being compacted, so write aside and rename over.
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(line + "\n" for line in lines)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path)
        return done

    def record(self, result: ShardResult) -> None:
        """Append one completed shard and flush it to disk."""
        if self._fingerprint is None:
            raise RuntimeError("journal.record() before journal.open()")
        with self.path.open("a", encoding="utf-8") as f:
            f.write(_shard_line(result) + "\n")
            f.flush()
            os.fsync(f.fileno())


def _shard_line(result: ShardResult) -> str:
    return json.dumps({"kind": "shard", **result.to_json()})
