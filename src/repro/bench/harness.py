"""Benchmark harness utilities.

Each bench module under ``benchmarks/`` reproduces one paper artefact
(DESIGN.md §3). pytest-benchmark handles the timing statistics; this
module handles the *paper-shaped* outputs: result rows are printed and
also written under ``benchmarks/out/`` so the tables survive pytest's
output capture and can be pasted into EXPERIMENTS.md.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.explorer.render import format_table

#: The repo root (BENCH_*.json trajectory files land here).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Where bench tables land (created on demand, relative to the repo root).
OUT_DIR = REPO_ROOT / "benchmarks" / "out"


@dataclass
class BenchResult:
    """A titled table of result rows for one experiment."""

    experiment: str
    headers: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *row: Any) -> None:
        self.rows.append(tuple(row))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        body = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            body += "\n" + "\n".join(f"# {n}" for n in self.notes)
        return body

    def to_json(self) -> dict:
        """A machine-readable snapshot (rows keyed by header name)."""
        return {
            "experiment": self.experiment,
            "headers": list(self.headers),
            "rows": [dict(zip(self.headers, row)) for row in self.rows],
            "notes": list(self.notes),
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": _cpu_count(),
            },
        }


def save_table(result: BenchResult, filename: str) -> Path:
    """Print the table and persist it under ``benchmarks/out/``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / filename
    text = result.render()
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)
    return path


def _cpu_count() -> int:
    import os

    return os.cpu_count() or 1


def save_json(result: BenchResult, filename: str, out_dir: Path | None = None) -> Path:
    """Persist the table as ``BENCH_*.json`` for the perf trajectory.

    JSON snapshots default to the repo root (unlike the text tables
    under ``benchmarks/out/``) so successive PRs leave a machine-
    readable performance trail next to the code they measured.
    """
    out_dir = out_dir if out_dir is not None else REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / filename
    path.write_text(
        json.dumps(result.to_json(), indent=2, default=str) + "\n", encoding="utf-8"
    )
    return path


def time_call(fn: Callable[[], Any], repeat: int = 3) -> tuple[float, Any]:
    """(best wall-clock seconds, last return value) over ``repeat`` runs.
    Each run starts after a full collection: one owed by earlier work is
    not charged to whichever run happens to trigger it."""
    best = float("inf")
    value = None
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def run_rows(
    result: BenchResult,
    params: Iterable[Any],
    fn: Callable[[Any], Sequence[Any]],
) -> BenchResult:
    """Run ``fn`` per parameter, appending its row to ``result``."""
    for p in params:
        result.add(*fn(p))
    return result
