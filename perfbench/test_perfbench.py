"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They run every workload at the ``tiny`` size through the same entry
point the benchmark uses, check the span self-time arithmetic on a
synthetic tree, and check that tracing leaves a simulated outcome
unchanged.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    code, result = run_bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_self_times_on_a_nested_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    # d [11, 15] is a second root whose children e [11, 13] and f [12, 14]
    # overlap, so they cover their union [11, 14].
    starts = [0.0, 1.0, 5.0, 6.0, 11.0, 11.0, 12.0]
    ends = [10.0, 4.0, 9.0, 7.0, 15.0, 13.0, 14.0]
    parents = [-1, 0, 0, 2, -1, 4, 4]
    assert self_times(starts, ends, parents) == pytest.approx(
        [3.0, 3.0, 3.0, 1.0, 1.0, 2.0, 2.0]
    )


def test_wrapped_calls_nest_and_self_times_sum_to_the_root():
    tracer = Tracer()
    leaf = tracer.wrap("a:leaf", lambda: sum(range(2000)))

    def middle():
        leaf()
        leaf()

    root = tracer.wrap("b:root", lambda: [tracer.wrap("a:mid", middle)() for _ in range(3)])
    root()
    rows = tracer.by_name()
    assert rows["a:leaf"]["calls"] == 6 and rows["b:root"]["calls"] == 1
    assert list(tracer.parents)[:3] == [-1, 0, 1]  # root > mid > leaf
    total_self = sum(r["self_s"] for r in rows.values())
    assert total_self == pytest.approx(tracer.root_seconds())
    assert all(r["self_s"] >= 0 for r in rows.values())


def test_tracing_leaves_the_outcome_identical():
    from repro.config import SimConfig
    from repro.core import DSPPreemption, DSPScheduler
    from repro.experiments import cluster_profile, default_config, harness
    from repro.sim import SimEngine
    from repro.sim.kernel import Kernel

    from workloads import outcome_of

    cluster = cluster_profile("cluster", 5.0)
    cfg = default_config()
    workload = harness.build_workload_for_cluster(6, cluster, scale=40.0, seed=5, config=cfg)

    def run():
        engine = SimEngine(
            cluster, workload.jobs, DSPScheduler(cluster, cfg, ilp_task_limit=0),
            preemption=DSPPreemption(cfg), dsp_config=cfg,
            sim_config=SimConfig(epoch=5.0, scheduling_period=300.0),
            task_deadlines=harness.compute_level_deadlines(workload, cluster, cfg),
        )
        return engine, outcome_of(engine.run())

    _, plain = run()
    original_on = Kernel.__dict__["on"]
    tracer = Tracer()
    tracer.install()
    try:
        engine, traced = run()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert Kernel.__dict__["on"] is original_on
    names = set(tracer.by_name())
    assert "sim.preemption_exec:EPOCH_TICK" in names
    assert "core.preemption:DSPPreemption.select_preemptions_from_core" in names
    assert any(n.startswith("sim.metrics:bus.") for n in names)
