"""The bench-dump checker: one schema check and one baseline check.

``benchmarks/check_bench_json.py`` is what stands between a silently
broken benchmark (empty dump, a measurement stored as text, a perf
regression) and a green CI run, so it gets its own tests. Dumps here
are written by the bench harness itself; the baseline check keys rows
on the columns the dump names, scales each row by its anchor row's
fresh/committed ratio (capped at 1.0), and fails closed when the dumps
share no key. The obs fence lives in its bench as an ``assert``; it is
tested here on synthetic rows.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import BenchResult, save_json

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


check_bench_json = _load("check_bench_json")
bench_obs_overhead = _load("bench_obs_overhead")


def _dump(path: Path, rows: list[tuple]) -> Path:
    """A dump keyed on (rows, mode, workers) with a tuples/s floor
    anchored on the ``stream`` rows."""
    result = BenchResult(
        "demo",
        ("rows", "mode", "workers", "seconds", "tuples/s"),
        key=("rows", "mode", "workers"),
        floor="tuples/s",
        anchor={"mode": "stream"},
    )
    for row in rows:
        result.add(*row)
    return save_json(result, path.name, out_dir=path.parent)


def _row(mode: str, workers: int, tput: float, rows: int = 300) -> tuple:
    return (rows, mode, workers, round(rows / tput, 4), tput)


def _check(fresh: Path, base: Path) -> list[str]:
    return check_bench_json.check_baseline(fresh, base, 0.30)


def test_harness_dump_passes_the_schema_check(tmp_path):
    dump = _dump(tmp_path / "dump.json", [_row("stream", 1, 1000), _row("batch", 2, 2500)])
    assert check_bench_json.check_file(dump) == []


def test_string_metric_cell_fails_the_schema_check(tmp_path):
    dump = _dump(tmp_path / "dump.json", [_row("stream", 1, 1000)])
    obj = json.loads(dump.read_text())
    obj["rows"][0]["tuples/s"] = "1000"
    dump.write_text(json.dumps(obj))
    problems = check_bench_json.check_file(dump)
    assert len(problems) == 1 and "'tuples/s' is '1000', not a number" in problems[0]
    # a key column may hold text; a boolean is not a measurement
    obj["rows"][0]["tuples/s"] = True
    dump.write_text(json.dumps(obj))
    assert check_bench_json.check_file(dump)


def test_empty_row_set_fails_the_schema_check(tmp_path):
    dump = _dump(tmp_path / "dump.json", [])
    problems = check_bench_json.check_file(dump)
    assert problems and "silently-empty" in problems[0]


def test_within_tolerance_passes(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000), _row("batch", 1, 2000)])
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 800), _row("batch", 1, 1500)])
    assert _check(fresh, base) == []


def test_deep_drop_fails(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000), _row("batch", 1, 2000)])
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 950), _row("batch", 1, 900)])
    problems = _check(fresh, base)
    assert len(problems) == 1
    assert "'batch'" in problems[0]


def test_tolerance_edges(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000)])
    at_edge = _dump(tmp_path / "edge.json", [_row("stream", 1, 700)])
    below = _dump(tmp_path / "below.json", [_row("stream", 1, 699)])
    assert _check(at_edge, base) == []
    assert _check(below, base)


def test_only_same_size_rows_compared(tmp_path):
    # quick sweep (300 rows) vs a committed full sweep that kept the
    # 300-row point: only the matching key is compared — the fast 5k
    # row neither raises the bar nor hides a same-size drop
    base = _dump(
        tmp_path / "base.json",
        [_row("stream", 1, 600, rows=300), _row("stream", 1, 1000, rows=5000)],
    )
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 550, rows=300)])
    assert _check(fresh, base) == []
    slow = _dump(tmp_path / "slow.json", [_row("stream", 1, 300, rows=300)])
    assert _check(slow, base)


def test_disjoint_configurations_fail_closed(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000, rows=5000)])
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 1000, rows=300)])
    problems = _check(fresh, base)
    assert problems and "no comparable" in problems[0]


def test_unreadable_baseline_fails(tmp_path):
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 1000)])
    assert _check(fresh, tmp_path / "nope.json")


def test_dump_without_a_floor_fails_the_baseline_check(tmp_path):
    result = BenchResult("demo", ("mode", "tuples/s"), key=("mode",))
    result.add("stream", 1000)
    dump = save_json(result, "nofloor.json", out_dir=tmp_path)
    assert check_bench_json.check_file(dump) == []
    assert _check(dump, dump)


def test_main_wires_baseline_and_exit_codes(tmp_path, capsys):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000)])
    good = _dump(tmp_path / "good.json", [_row("stream", 1, 980)])
    bad = _dump(tmp_path / "bad.json", [_row("stream", 1, 100)])
    assert check_bench_json.main([str(good), "--baseline", str(base)]) == 0
    assert check_bench_json.main([str(bad), "--baseline", str(base)]) == 1
    out = capsys.readouterr().out
    assert "below 70% of the baseline" in out


def test_main_rejects_bad_tolerance(tmp_path):
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 1000)])
    with pytest.raises(SystemExit):
        check_bench_json.main([str(fresh), "--max-regression", "1.5"])


def test_batch_rows_are_stream_anchored(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 4000), _row("batch", 1, 7000)])
    # a slower machine: stream at ~72% of baseline, batch scaled
    # proportionally — no batch-layer regression, so no failure
    fresh = _dump(tmp_path / "fresh.json", [_row("stream", 1, 2900), _row("batch", 1, 4300)])
    assert _check(fresh, base) == []
    # same stream, but batch collapsed below the scaled floor: the
    # batch layer itself regressed and the guard says so
    broken = _dump(tmp_path / "broken.json", [_row("stream", 1, 2900), _row("batch", 1, 2000)])
    problems = _check(broken, base)
    assert len(problems) == 1
    assert "anchored x0.72" in problems[0]


def test_anchor_scaling_is_capped_at_one(tmp_path):
    base = _dump(tmp_path / "base.json", [_row("stream", 1, 1000), _row("batch", 1, 2000)])
    # a faster anchor never raises the bar: batch is held to 70% of its
    # committed 2000, not of 2000 x 3
    fast = _dump(tmp_path / "fast.json", [_row("stream", 1, 3000), _row("batch", 1, 1500)])
    assert _check(fast, base) == []
    slow = _dump(tmp_path / "slow.json", [_row("stream", 1, 3000), _row("batch", 1, 1300)])
    problems = _check(slow, base)
    assert len(problems) == 1 and "anchored" not in problems[0]


def _obs_rows(baseline: float, disabled: float, scraped: float) -> list[dict]:
    return [
        {"rows": 300, "mode": mode, "workers": 1, "tuples/s": tput}
        for mode, tput in (
            ("baseline", baseline),
            ("disabled", disabled),
            ("scraped", scraped),
            ("enabled", baseline * 0.7),  # tracing on may cost something
        )
    ]


def test_obs_fence_holds_within_two_percent():
    bench_obs_overhead.assert_obs_fence(_obs_rows(1000, 980, 985))


@pytest.mark.parametrize("slow", ["disabled", "scraped"])
def test_obs_fence_trips_beyond_two_percent(slow):
    tput = {"disabled": 990.0, "scraped": 990.0, slow: 979.0}
    with pytest.raises(AssertionError, match=f"{slow}: .* below the instrumented-out"):
        bench_obs_overhead.assert_obs_fence(_obs_rows(1000, tput["disabled"], tput["scraped"]))
