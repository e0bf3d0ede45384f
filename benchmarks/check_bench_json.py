"""Validate ``BENCH_*.json`` dumps: one schema check, one baseline check.

Schema: a dump names its ``key`` columns (the labels that identify a
row); every other cell is a JSON number. It also needs an
``experiment``, non-empty ``headers``, at least one row holding exactly
those headers (a hollow dump means a skipped fixture or a swallowed
error) and a ``machine`` stamp with python/platform/cpus.

Baseline (``--baseline``): over the row keys the first file shares with
a committed dump, the metric the dump names as its ``floor`` (higher is
better) must keep ``1 - --max-regression`` of the committed value. A
row outside the dump's ``anchor`` rows has its expectation scaled first
by its anchor row's fresh/committed ratio, capped at 1.0: a slower
machine lowers the bar in proportion, while a row that fell against its
anchor in the same run still fails. Dumps that share no key fail.

Usage::

    python benchmarks/check_bench_json.py --all   # every BENCH_*.json in cwd
    python benchmarks/check_bench_json.py BENCH_remote.json \\
        --baseline committed_BENCH_remote.json --max-regression 0.30
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def check_file(path: Path) -> list[str]:
    """All schema violations found in one dump (empty = good)."""
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable: {exc}"]
    if not isinstance(obj, dict):
        return [f"top level is {type(obj).__name__}, expected object"]
    problems = []
    if not isinstance(obj.get("experiment"), str) or not obj["experiment"].strip():
        problems.append("'experiment' missing or empty")
    headers, key = obj.get("headers"), obj.get("key")
    if (
        not isinstance(headers, list)
        or not headers
        or not all(isinstance(h, str) and h.strip() for h in headers)
    ):
        return problems + ["'headers' must be a non-empty list of non-empty strings"]
    if not isinstance(key, list) or not set(key) <= set(headers):
        return problems + [f"'key' must list header columns, got {key!r}"]
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("'rows' missing or empty — a silently-empty bench dump")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(headers):
            problems.append(f"row {i} does not hold exactly the headers {headers}")
            continue
        for column, value in row.items():
            if column in key:
                if value is None or value == "":
                    problems.append(f"row {i} has an empty key cell {column!r}")
            elif not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"row {i} metric {column!r} is {value!r}, not a number")
    floor = obj.get("floor")
    if floor is not None and (
        not isinstance(floor, dict)
        or floor.get("metric") not in set(headers) - set(key)
        or not set(floor.get("anchor", {})) <= set(key)
    ):
        problems.append(f"'floor' must name a metric column and key-column anchors, got {floor!r}")
    machine = obj.get("machine")
    if not isinstance(machine, dict) or not all(
        machine.get(k) for k in ("python", "platform", "cpus")
    ):
        problems.append("'machine' must record python/platform/cpus")
    return problems


def _floor_values(path: Path) -> tuple[tuple, dict[tuple, float]]:
    """A dump's (key, floor) spec and its floor metric per row key."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    key, floor = obj["key"], obj["floor"]
    return (key, floor), {tuple(row[k] for k in key): row[floor["metric"]] for row in obj["rows"]}


def check_baseline(fresh_path: Path, baseline_path: Path, max_regression: float) -> list[str]:
    """Floor-metric drops beyond tolerance, per shared row key (empty = good)."""
    try:
        (key, floor), fresh = _floor_values(fresh_path)
        base_spec, base = _floor_values(baseline_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"no comparable floor in {fresh_path} or {baseline_path}: {exc!r}"]
    if base_spec != (key, floor):
        return [f"{fresh_path} and {baseline_path} name different keys or floors"]
    anchor = floor.get("anchor", {})
    shared = sorted(set(fresh) & set(base), key=repr)
    if not shared:
        return [
            f"no comparable {tuple(key)} rows between {fresh_path} and "
            f"{baseline_path} — refresh the committed baseline with a sweep "
            f"that includes the quick geometry"
        ]
    problems = []
    floor_share = 1.0 - max_regression
    for row_key in shared:
        anchor_key = tuple(anchor.get(k, v) for k, v in zip(key, row_key))
        f_anchor, b_anchor = fresh.get(anchor_key), base.get(anchor_key)
        scale = 1.0
        if anchor_key != row_key and f_anchor and b_anchor:
            scale = min(1.0, f_anchor / b_anchor)
        expected = base[row_key] * scale
        anchored = f" (anchored x{scale:.2f})" if scale != 1.0 else ""
        if fresh[row_key] < expected * floor_share:
            problems.append(
                f"{dict(zip(key, row_key))}: {floor['metric']} {fresh[row_key]:g} is "
                f"below {floor_share:.0%} of the baseline {expected:g}{anchored}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path, help="BENCH_*.json dumps")
    parser.add_argument(
        "--all", action="store_true", help="check every BENCH_*.json in the current directory"
    )
    parser.add_argument("--baseline", type=Path, help="committed dump to hold the first file to")
    parser.add_argument(
        "--max-regression", type=float, default=0.30, help="tolerated drop (default 0.30)"
    )
    args = parser.parse_args(argv)
    files = list(args.files)
    if args.all:
        files.extend(sorted(Path().glob("BENCH_*.json")))
    files = list(dict.fromkeys(files))  # --all may repeat a named file
    if not files:
        parser.error("no files given (pass dumps or --all)")
    if not 0.0 <= args.max_regression < 1.0:
        parser.error(f"--max-regression must be in [0, 1), got {args.max_regression}")

    checks = [(path, check_file(path)) for path in files]
    if args.baseline is not None:
        problems = check_baseline(files[0], args.baseline, args.max_regression)
        checks.append((f"{files[0]} vs baseline {args.baseline}", problems))
    failed = 0
    for label, problems in checks:
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for problem in problems:
            print(f"  - {problem}")
        failed += bool(problems)
    if failed:
        print(f"{failed} bench check(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
