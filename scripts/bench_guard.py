#!/usr/bin/env python
"""CI benchmark-regression guard for the engine hot path.

Re-runs the exact ``benchmarks/bench_engine_perf.py`` fig-8 recipe (fixed
seeds, one warm-up run excluded, best-of-N) and fails when the measured
``epoch_ticks_per_s`` drops more than ``--tolerance`` (default 20%) below
the committed ``BENCH_engine.json`` baseline.  Every measured round must
reproduce the first round's metrics (the recipe is deterministic).

A second check bounds the durability layer: the same recipe runs
journal-off vs journal-on, and the guard fails if write-ahead journaling
costs more than ``--journal-tolerance`` (default 10%) of epoch ticks/s —
journaling must stay a cheap observer, never a tax on the hot path.

The tolerance absorbs runner-to-runner noise; a real regression from an
algorithmic change (e.g. breaking the array core's score cache) costs far
more than 20%.  Refresh the baseline by re-running::

    PYTHONPATH=src python -m pytest \
        benchmarks/bench_engine_perf.py::test_perf_kernel_hot_path_incremental

on a quiet machine and committing the regenerated BENCH_engine.json.

With ``--rss-ceiling MB`` the guard instead checks the *streaming replay*
record (``BENCH_replay.json``, produced by ``scripts/bench_replay.py``):
the recorded peak RSS must stay under the ceiling, and the replay must
actually have streamed past its admission window (a task count at or
below ``max_live_tasks`` proves nothing about retirement).  This mode
reads the record only — CI runs the replay first, then the guard.

By default the guard *discovers* every ``BENCH_*.json`` at the repo root
and dispatches on record shape: an ``incremental`` key marks an engine
hot-path baseline, a ``peak_rss_bytes`` key marks a streaming-replay
record (checked against ``--replay-ceiling``, default 400 MB).  Adding a
new baseline file is enough to put it under guard — no workflow edit.
``--rss-ceiling`` keeps the legacy single-record mode for CI jobs that
produce a fresh replay record in the same job.

Exit codes: 0 ok, 1 regression, 2 missing/invalid baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))


def check_replay_rss(record_path: pathlib.Path, ceiling_mb: float) -> int:
    """Bounded-memory check over a ``bench_replay.py`` record."""
    try:
        record = json.loads(record_path.read_text())
        peak_mb = record["peak_rss_bytes"] / (1024.0 * 1024.0)
        tasks = record["tasks"]
        window = record["max_live_tasks"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"bench-guard: unusable replay record {record_path}: {exc}")
        return 2
    if tasks <= window:
        print(
            f"bench-guard: replay record proves nothing — {tasks} tasks "
            f"never exceeded the {window}-task window"
        )
        return 2
    verdict = "ok" if peak_mb <= ceiling_mb else "FAIL"
    print(
        f"bench-guard: {verdict} — replay peaked at {peak_mb:.1f} MB RSS "
        f"(ceiling {ceiling_mb:.0f} MB) over {tasks} tasks through a "
        f"{window}-task window ({record.get('tasks_per_s', 0):.0f} tasks/s)"
    )
    return 0 if peak_mb <= ceiling_mb else 1


def classify_baseline(path: pathlib.Path) -> str:
    """'engine', 'replay' or 'unknown', keyed on the record's shape."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return "unknown"
    if not isinstance(record, dict):
        return "unknown"
    if "incremental" in record:
        return "engine"
    if "peak_rss_bytes" in record:
        return "replay"
    return "unknown"


def discover_baselines(root: pathlib.Path) -> list[pathlib.Path]:
    """All committed ``BENCH_*.json`` baselines, in stable name order."""
    return sorted(root.glob("BENCH_*.json"))


def check_engine(baseline_path: pathlib.Path, args) -> int:
    """Hot-path throughput floor + journal-cost checks."""
    try:
        baseline = json.loads(baseline_path.read_text())
        base_rate = baseline["incremental"]["epoch_ticks_per_s"]
    except (OSError, KeyError, ValueError) as exc:
        print(f"bench-guard: unusable baseline {baseline_path}: {exc}")
        return 2

    from bench_engine_perf import measure_hot_path, measure_journal_overhead

    inc = measure_hot_path(rounds=args.rounds)
    rate = inc["ticks"] / inc["wall"]
    floor = base_rate * (1.0 - args.tolerance)
    stats = inc["core"].stats()
    verdict = "ok" if rate >= floor else "FAIL"
    print(
        f"bench-guard: {verdict} — measured {rate:.1f} epoch ticks/s "
        f"(baseline {base_rate:.1f}, floor {floor:.1f}, "
        f"score-cache hit rate {stats['hit_rate']:.1%})"
    )
    if rate < floor:
        return 1

    # Durability cost: write-ahead journaling must stay a cheap observer.
    # (Paired-median estimator; see measure_journal_overhead's docstring.)
    journal = measure_journal_overhead()
    j_off, j_on = journal["off"], journal["on"]
    off_rate = j_off["ticks"] / j_off["wall"]
    on_rate = j_on["ticks"] / j_on["wall"]
    overhead = journal["overhead_fraction"]
    base_overhead = baseline.get("journal", {}).get("overhead_fraction")
    verdict = "ok" if overhead <= args.journal_tolerance else "FAIL"
    print(
        f"bench-guard: {verdict} — journaling costs {overhead:.1%} of epoch "
        f"ticks/s ({off_rate:.1f} -> {on_rate:.1f}, cap "
        f"{args.journal_tolerance:.0%}"
        + (f", baseline {base_overhead:.1%}" if base_overhead is not None else "")
        + f", {j_on['journal_bytes']} journal bytes)"
    )
    return 0 if overhead <= args.journal_tolerance else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=REPO / "BENCH_engine.json",
        help="committed baseline JSON (default: repo-root BENCH_engine.json)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed fractional drop below baseline (default 0.20)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="measured rounds per mode, best taken (default 3)",
    )
    parser.add_argument(
        "--journal-tolerance", type=float, default=0.10,
        help=(
            "max fractional epoch-ticks/s cost of write-ahead journaling "
            "vs journal-off (default 0.10)"
        ),
    )
    parser.add_argument(
        "--rss-ceiling", type=float, default=None, metavar="MB",
        help=(
            "check the streaming-replay record instead of the engine hot "
            "path: fail if its recorded peak RSS exceeds this many MB"
        ),
    )
    parser.add_argument(
        "--replay-baseline", type=pathlib.Path,
        default=REPO / "BENCH_replay.json",
        help="replay record JSON for --rss-ceiling "
        "(default: repo-root BENCH_replay.json)",
    )
    parser.add_argument(
        "--replay-ceiling", type=float, default=400.0, metavar="MB",
        help=(
            "RSS ceiling applied to discovered replay baselines "
            "(default 400 MB)"
        ),
    )
    args = parser.parse_args(argv)

    # Legacy single-record mode: check one freshly produced replay record.
    if args.rss_ceiling is not None:
        return check_replay_rss(args.replay_baseline, args.rss_ceiling)

    baselines = discover_baselines(REPO)
    if not baselines:
        # Nothing committed — fall back to the classic engine check so a
        # misconfigured checkout fails loudly rather than vacuously passing.
        return check_engine(args.baseline, args)

    worst = 0
    for path in baselines:
        kind = classify_baseline(path)
        print(f"bench-guard: {path.name} -> {kind} check")
        if kind == "engine":
            rc = check_engine(path, args)
        elif kind == "replay":
            rc = check_replay_rss(path, args.replay_ceiling)
        else:
            print(
                f"bench-guard: {path.name} has no recognizable baseline "
                "shape (expected 'incremental' or 'peak_rss_bytes')"
            )
            rc = 2
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
