"""Benchmark harness utilities.

Each bench module under ``benchmarks/`` reproduces one paper artefact
or holds one fence. This module handles their outputs: result tables
are printed and written under ``benchmarks/out/`` (so they survive
pytest's output capture), and the dump-writing benches also save a
``BENCH_*.json`` snapshot that ``benchmarks/check_bench_json.py`` checks.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.explorer.render import format_table

#: The repo root (BENCH_*.json trajectory files land here).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Where bench tables land (created on demand, relative to the repo root).
OUT_DIR = REPO_ROOT / "benchmarks" / "out"


@dataclass
class BenchResult:
    """A titled table of result rows for one experiment.

    ``key`` names the label columns that identify a row; every other
    column is a metric and holds a number. ``floor`` names the metric
    ``check_bench_json.py --baseline`` compares across runs (higher is
    better), and ``anchor`` the ``{column: value}`` rows whose fresh
    drop scales the other rows' expectations.
    """

    experiment: str
    headers: tuple[str, ...]
    key: tuple[str, ...] = ()
    floor: str | None = None
    anchor: dict[str, Any] = field(default_factory=dict)
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
        out = {
            "experiment": self.experiment,
            "key": list(self.key),
            "headers": list(self.headers),
            "rows": [dict(zip(self.headers, row)) for row in self.rows],
            "notes": list(self.notes),
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "cpus": _cpu_count(),
            },
        }
        if self.floor is not None:
            out["floor"] = {"metric": self.floor, "anchor": dict(self.anchor)}
        return out


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
    """The CPUs this process may run on (its affinity mask), not the
    host's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def save_json(result: BenchResult, filename: str, out_dir: Path | None = None) -> Path:
    """Persist the table as ``BENCH_*.json``, at the repo root unless
    ``out_dir`` is given, beside the code it measured."""
    path = (out_dir if out_dir is not None else REPO_ROOT) / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result.to_json(), indent=2) + "\n", encoding="utf-8")
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

