"""Engine performance micro-benchmarks.

The hpc-parallel guides' first rule: measure before optimizing.  These
benches track the simulator's own speed so a future "optimization" (or
regression) is visible:

* end-to-end run throughput in simulated-tasks per wall-second;
* offline planning throughput (heuristic list scheduler) in tasks/s;
* epoch cost with a non-trivial preemption policy attached;
* the kernel hot path at fig-8 scale — epoch ticks per wall-second
  through the struct-of-arrays array core and the delta-driven view
  cache (the numbers land in ``BENCH_engine.json`` at the repo root, and
  ``scripts/bench_guard.py`` re-runs the same recipe in CI to catch
  regressions against that committed baseline).

Unlike the figure benches these use multiple rounds — the point *is* the
timing distribution.

Run directly for a human-readable summary (including the score-cache hit
rate), or with ``--profile`` for a cProfile breakdown of the epoch loop::

    PYTHONPATH=src python benchmarks/bench_engine_perf.py [--profile]
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.cluster import palmetto_cluster
from repro.config import SimConfig
from repro.core import DSPPreemption, DSPScheduler, HeuristicScheduler
from repro.experiments import build_workload_for_cluster, default_config

CLUSTER = palmetto_cluster(10)
CONFIG = default_config()
WORKLOAD = build_workload_for_cluster(
    10, CLUSTER, scale=30.0, seed=41, config=CONFIG, demand_fraction=0.8
)
SIM = SimConfig(epoch=60.0, scheduling_period=300.0)

#: Fig-8's smallest sweep point (50 jobs at scale 40) — big enough that
#: epoch handling dominates, small enough for a multi-round benchmark.
FIG8_JOBS = 50
FIG8_SCALE = 40.0
#: The hot-path recipe ticks the epoch loop at 5 s (vs the end-to-end
#: benches' 60 s) so the measured wall time is dominated by the code the
#: bench is about — per-tick scheduling work — rather than by the fixed
#: per-run costs (scheduling rounds, arrival/finish handling).
FIG8_SIM = SimConfig(epoch=5.0, scheduling_period=300.0)
BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"


@pytest.mark.benchmark(group="perf")
def test_perf_offline_planning(benchmark):
    """Heuristic list-scheduling throughput (plan tasks/second)."""

    def plan():
        scheduler = HeuristicScheduler(CLUSTER, CONFIG)
        return scheduler.schedule(list(WORKLOAD.jobs))

    result = benchmark(plan)
    assert len(result) == WORKLOAD.num_tasks


@pytest.mark.benchmark(group="perf")
def test_perf_end_to_end_null_policy(benchmark):
    """Full simulation without preemption: the engine's event-loop floor."""
    from repro.sim import NullPreemption, SimEngine

    def run():
        engine = SimEngine(
            CLUSTER, WORKLOAD.jobs,
            DSPScheduler(CLUSTER, CONFIG, ilp_task_limit=0),
            preemption=NullPreemption(), dsp_config=CONFIG, sim_config=SIM,
        )
        return engine.run()

    m = benchmark.pedantic(run, rounds=3, iterations=1)
    assert m.tasks_completed == WORKLOAD.num_tasks


def _fig8_hot_path(journal_path=None):
    """One DSP-preemption run at fig-8 scale.

    *journal_path* enables the write-ahead run journal (the durability
    overhead the guard bounds).  Returns (metrics dict, epoch ticks
    observed on the bus, wall seconds, array core).  This
    is the recipe ``scripts/bench_guard.py`` imports — keep it
    deterministic (fixed seed, no warm-up inside).
    """
    from repro.sim import EpochTick, SimEngine

    workload = build_workload_for_cluster(
        FIG8_JOBS, CLUSTER, scale=FIG8_SCALE, seed=7,
        config=CONFIG, demand_fraction=0.8,
    )
    engine = SimEngine(
        CLUSTER, workload.jobs,
        DSPScheduler(CLUSTER, CONFIG, ilp_task_limit=0),
        preemption=DSPPreemption(CONFIG), dsp_config=CONFIG,
        sim_config=FIG8_SIM,
        journal=journal_path,
    )
    ticks = 0

    def count(_ev):
        nonlocal ticks
        ticks += 1

    engine.runtime.bus.subscribe(EpochTick, count)
    t0 = time.perf_counter()
    metrics = engine.run()
    wall = time.perf_counter() - t0
    assert metrics.tasks_completed == workload.num_tasks
    return metrics.as_dict(), ticks, wall, engine.runtime.array


def measure_hot_path(rounds: int = 3) -> dict:
    """Best-of-*rounds* hot-path timing (warm-up run excluded); every
    round must reproduce the first round's metrics and tick count.

    Shared by the pytest bench below and ``scripts/bench_guard.py`` so
    CI measures exactly what the committed baseline recorded.
    """
    _fig8_hot_path()  # warm-up: imports, allocator, JIT-ish caches

    metrics = ticks = core = None
    walls = []
    for _ in range(rounds):
        m, t, wall, arr = _fig8_hot_path()
        if metrics is None:
            metrics, ticks, core = m, t, arr
        else:
            assert m == metrics, "hot path is not deterministic"
            assert t == ticks
        walls.append(wall)
    return {
        "metrics": metrics, "ticks": ticks, "wall": min(walls), "core": core,
    }


def measure_journal_overhead(rounds: int = 6) -> dict:
    """Paired journal-off vs journal-on comparison of the hot-path
    recipe.

    The journal is a pure observer — both runs must produce identical
    RunMetrics — so the only legitimate cost is serialization + buffered
    I/O.  ``scripts/bench_guard.py`` bounds that cost at 10% of epoch
    ticks/s.

    Estimator: off/on runs alternate back to back in pairs, with the
    order *reversed every pair* (off-on, on-off, off-on, ...), and the
    reported ``overhead_fraction`` is the **median of the per-pair
    ratios** ``1 - off_wall/on_wall``.  Back-to-back runs in a pair see
    nearly the same machine state, so each ratio cancels the slow
    CPU-frequency/load drift that makes independent best-of-N
    comparisons swing by double digits on a shared runner; alternating
    the order cancels the residual within-pair drift (always measuring
    one mode second biases the ratio), and the median shrugs off a pair
    that straddled a throttle edge.
    """
    import statistics
    import tempfile

    _fig8_hot_path()  # warm-up

    results = {
        "off": {"metrics": None, "ticks": None, "wall": None,
                "journal_bytes": None},
        "on": {"metrics": None, "ticks": None, "wall": None,
               "journal_bytes": None},
    }
    walls: dict[str, list] = {"off": [], "on": []}
    with tempfile.TemporaryDirectory() as tmp:
        journal = pathlib.Path(tmp) / "bench.journal"
        for pair in range(rounds):
            order = (("off", None), ("on", journal))
            for name, path in (order if pair % 2 == 0 else order[::-1]):
                m, t, wall, _core = _fig8_hot_path(journal_path=path)
                slot = results[name]
                if slot["metrics"] is None:
                    slot["metrics"], slot["ticks"] = m, t
                else:
                    assert m == slot["metrics"], (
                        "journal run is not deterministic"
                    )
                    assert t == slot["ticks"]
                walls[name].append(wall)
                if path is not None:
                    slot["journal_bytes"] = path.stat().st_size
    for name, slot in results.items():
        slot["wall"] = min(walls[name])
    results["overhead_fraction"] = max(0.0, statistics.median(
        1.0 - off / on for off, on in zip(walls["off"], walls["on"])
    ))
    assert results["on"]["metrics"] == results["off"]["metrics"], (
        "write-ahead journaling changed simulation results"
    )
    assert results["on"]["ticks"] == results["off"]["ticks"]
    return results


@pytest.mark.benchmark(group="perf")
def test_perf_kernel_hot_path_incremental():
    """Epoch ticks per wall-second at fig-8 scale through the array core.

    Every round must reproduce the same RunMetrics and tick count, and
    the score cache must actually engage.  Wall-clock
    numbers (for the tracked record — the CI floor lives in
    scripts/bench_guard.py, not here, so local noise can't fail the
    suite) are persisted to BENCH_engine.json.
    """
    inc = measure_hot_path(rounds=3)
    core = inc["core"]
    assert core.hits > 0  # the score cache paid off

    per_s = lambda r: r["ticks"] / r["wall"]  # noqa: E731
    journal = measure_journal_overhead(rounds=6)
    j_off, j_on = journal["off"], journal["on"]
    overhead = journal["overhead_fraction"]
    BENCH_JSON.write_text(json.dumps({
        "benchmark": "kernel_hot_path",
        "scale": {"jobs": FIG8_JOBS, "workload_scale": FIG8_SCALE,
                  "epoch_s": FIG8_SIM.epoch},
        "protocol": {"rounds": 3, "warmup_runs": 1, "stat": "best"},
        "incremental": {
            "epoch_ticks": inc["ticks"],
            "wall_s": round(inc["wall"], 4),
            "epoch_ticks_per_s": round(per_s(inc), 2),
            "index_hits": core.hits,
            "index_misses": core.misses,
            "index_hit_rate": round(core.stats()["hit_rate"], 4),
        },
        "journal": {
            "protocol": {"rounds": 6, "interleaved": True,
                         "order": "alternating",
                         "stat": "paired-median"},
            "epoch_ticks_per_s_off": round(per_s(j_off), 2),
            "epoch_ticks_per_s_on": round(per_s(j_on), 2),
            "overhead_fraction": round(overhead, 4),
            "journal_bytes": j_on["journal_bytes"],
            "results_identical": True,
        },
    }, indent=2) + "\n")


@pytest.mark.benchmark(group="perf")
def test_perf_end_to_end_dsp_policy(benchmark):
    """Full simulation with DSP preemption: epoch evaluation included."""
    from repro.sim import SimEngine

    def run():
        engine = SimEngine(
            CLUSTER, WORKLOAD.jobs,
            DSPScheduler(CLUSTER, CONFIG, ilp_task_limit=0),
            preemption=DSPPreemption(CONFIG), dsp_config=CONFIG, sim_config=SIM,
        )
        return engine.run()

    m = benchmark.pedantic(run, rounds=3, iterations=1)
    assert m.tasks_completed == WORKLOAD.num_tasks


def _profile_hot_path() -> None:
    """cProfile the hot path (one warmed run), top 25 by cumulative
    time — the first stop when the throughput guard trips."""
    import cProfile
    import pstats

    _fig8_hot_path()  # warm-up
    profiler = cProfile.Profile()
    profiler.enable()
    _fig8_hot_path()
    profiler.disable()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)


def _print_summary() -> None:
    inc = measure_hot_path(rounds=3)
    stats = inc["core"].stats()
    print(f"kernel hot path ({FIG8_JOBS} jobs, scale {FIG8_SCALE}, "
          f"epoch {FIG8_SIM.epoch:g}s):")
    print(f"  {inc['ticks']} ticks in {inc['wall']:.3f}s "
          f"({inc['ticks'] / inc['wall']:.1f} ticks/s)")
    print(f"  score cache: {stats['hits']} hits / {stats['misses']} misses "
          f"(hit rate {stats['hit_rate']:.1%})")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Kernel hot-path benchmark (see module docstring)."
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the hot path instead of timing it",
    )
    if parser.parse_args().profile:
        _profile_hot_path()
    else:
        _print_summary()
