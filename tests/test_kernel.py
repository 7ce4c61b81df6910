"""Kernel, event bus, view cache and refactor-parity tests.

Three layers of assurance for the event-kernel architecture:

* unit tests of :class:`~repro.sim.kernel.EventBus` /
  :class:`~repro.sim.kernel.Kernel` ordering and wiring guarantees;
* determinism: the same seed produces a byte-identical bus event stream
  and TraceLog across two fresh engines, with the view cache on or off;
* golden parity: the seed-fixed fig-5/fig-6 sweeps must reproduce the
  pre-refactor ``RunMetrics`` exactly (snapshot captured by
  ``scripts/gen_golden_metrics.py`` *before* the kernel decomposition).
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import ResilienceConfig, SimConfig
from repro.core import HeuristicScheduler
from repro.dag import Job, Task
from repro.experiments.figures import (
    cluster_profile,
    default_config,
    default_sim_config,
)
from repro.core import DSPScheduler
from repro.experiments.harness import (
    PREEMPTION_NAMES,
    SCHEDULER_NAMES,
    build_workload_for_cluster,
    compute_level_deadlines,
    make_preemption_policies,
    make_schedulers,
    run_preemption,
    run_scheduling,
)
from repro.sim import (
    EpochTick,
    EventBus,
    EventKind,
    Kernel,
    SimEngine,
    SimulationError,
    TaskFinished,
    TaskStarted,
    random_fault_plan,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
import gen_golden_metrics as golden_script  # noqa: E402

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent / "data" / "golden_engine_metrics.json"
)


# ----------------------------------------------------------------- event bus
class TestEventBus:
    def test_subscribers_run_in_subscription_order(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe(EpochTick, lambda ev: seen.append("a"))
        bus.subscribe(EpochTick, lambda ev: seen.append("b"))
        bus.subscribe(EpochTick, lambda ev: seen.append("c"))
        bus.emit(EpochTick(1.0))
        assert seen == ["a", "b", "c"]

    def test_multi_type_subscription(self):
        bus = EventBus()
        seen: list[type] = []
        bus.subscribe((EpochTick, TaskStarted), lambda ev: seen.append(type(ev)))
        bus.emit(EpochTick(0.0))
        bus.emit(TaskStarted(1.0, "t", "n", 0.0))
        assert seen == [EpochTick, TaskStarted]

    def test_wildcard_runs_after_type_specific(self):
        bus = EventBus()
        seen: list[str] = []
        bus.subscribe_all(lambda ev: seen.append("wild"))
        bus.subscribe(EpochTick, lambda ev: seen.append("typed"))
        bus.emit(EpochTick(0.0))
        assert seen == ["typed", "wild"]

    def test_no_subclass_dispatch(self):
        bus = EventBus()
        seen: list[object] = []
        bus.subscribe(TaskStarted, seen.append)
        bus.emit(EpochTick(0.0))  # different concrete type: not delivered
        assert seen == []

    def test_emission_is_reentrant(self):
        bus = EventBus()
        seen: list[float] = []

        def chain(ev):
            seen.append(ev.time)
            if ev.time < 3:
                bus.emit(EpochTick(ev.time + 1))

        bus.subscribe(EpochTick, chain)
        bus.emit(EpochTick(1.0))
        assert seen == [1.0, 2.0, 3.0]

    def test_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda ev: None)


# -------------------------------------------------------------------- kernel
class TestKernel:
    def test_one_handler_per_kind(self):
        kernel = Kernel(EventBus(), horizon=100.0)
        kernel.on(EventKind.EPOCH_TICK, lambda p: None)
        with pytest.raises(ValueError):
            kernel.on(EventKind.EPOCH_TICK, lambda p: None)

    def test_unhandled_kind_raises(self):
        kernel = Kernel(EventBus(), horizon=100.0)
        kernel.schedule(1.0, EventKind.FAULT, None)
        with pytest.raises(SimulationError, match="no handler"):
            kernel.run(until=lambda: False)

    def test_horizon_exceeded_raises(self):
        kernel = Kernel(EventBus(), horizon=10.0)
        kernel.on(EventKind.EPOCH_TICK, lambda p: None)
        kernel.schedule(11.0, EventKind.EPOCH_TICK, None)
        with pytest.raises(SimulationError, match="exceeded horizon"):
            kernel.run(until=lambda: False)

    def test_time_then_insertion_order(self):
        kernel = Kernel(EventBus(), horizon=100.0)
        seen: list[object] = []
        kernel.on(EventKind.EPOCH_TICK, seen.append)
        kernel.schedule(5.0, EventKind.EPOCH_TICK, "late")
        kernel.schedule(1.0, EventKind.EPOCH_TICK, "early-1st")
        kernel.schedule(1.0, EventKind.EPOCH_TICK, "early-2nd")
        kernel.run(until=lambda: False)
        assert seen == ["early-1st", "early-2nd", "late"]
        assert kernel.now == 5.0
        assert kernel.pending() == 0


# -------------------------------------------------------------- determinism
def _faulty_cluster() -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=2.0, mem_size=2.0, mips_per_unit=400.0)
        for i in range(4)
    ])


def _faulty_jobs() -> list[Job]:
    jobs = []
    for j in range(3):
        tasks = [
            Task(
                task_id=f"J{j}.a", job_id=f"J{j}", size_mi=8000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
            ),
            Task(
                task_id=f"J{j}.b", job_id=f"J{j}", size_mi=6000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
            ),
            Task(
                task_id=f"J{j}.c", job_id=f"J{j}", size_mi=4000.0,
                demand=ResourceVector(cpu=1.0, mem=0.5),
                parents=(f"J{j}.a", f"J{j}.b"),
            ),
        ]
        jobs.append(Job.from_tasks(f"J{j}", tasks, deadline=1e6))
    return jobs


def _recorded_run():
    """One seed-fixed faulty resilient run; returns (event reprs, trace
    segments, metrics dict)."""
    cluster = _faulty_cluster()
    faults = random_fault_plan(
        cluster, horizon=400.0, rng=11, mtbf=120.0, mttr=40.0,
        straggler_rate=0.5, task_fail_rate=0.5,
    )
    eng = SimEngine(
        cluster,
        _faulty_jobs(),
        HeuristicScheduler(cluster),
        sim_config=SimConfig(epoch=2.0, scheduling_period=20.0),
        faults=faults,
        resilience=ResilienceConfig(),
        record_trace=True,
    )
    stream: list[str] = []
    eng.runtime.bus.subscribe_all(lambda ev: stream.append(repr(ev)))
    metrics = eng.run()
    return stream, eng.trace.segments, metrics.as_dict()


class TestDeterminism:
    def test_same_seed_byte_identical_stream_and_trace(self):
        s1, t1, m1 = _recorded_run()
        s2, t2, m2 = _recorded_run()
        assert "\n".join(s1) == "\n".join(s2)
        assert t1 == t2
        assert m1 == m2

    def test_stream_is_nonempty_and_exercises_faults(self):
        stream, segments, metrics = _recorded_run()
        assert any("FaultInjected" in line for line in stream)
        assert any("TaskFinished" in line for line in stream)
        assert segments
        assert metrics["tasks_completed"] == 9.0


# ------------------------------------------------------------ run state
class TestRunState:
    def test_dsp_run_completes(self):
        cluster = cluster_profile("cluster", 1.0)
        cfg = default_config()
        workload = build_workload_for_cluster(
            4, cluster, scale=10.0, seed=11, config=cfg, demand_fraction=0.8
        )
        policy = make_preemption_policies(cfg)["DSP"]
        engine = SimEngine(
            cluster=cluster,
            jobs=workload.jobs,
            scheduler=DSPScheduler(cluster, cfg, ilp_task_limit=0),
            preemption=policy,
            dsp_config=cfg,
            sim_config=default_sim_config(),
            task_deadlines=compute_level_deadlines(workload, cluster, cfg),
            dependency_aware_dispatch=policy.respects_dependencies,
        )
        metrics = engine.run()
        assert metrics.tasks_completed == sum(
            len(j.tasks) for j in workload.jobs
        )

    def test_ancestor_closures_memoized_at_init(self):
        a = Task(task_id="a", job_id="J", size_mi=1.0,
                 demand=ResourceVector(cpu=0.1, mem=0.1))
        b = Task(task_id="b", job_id="J", size_mi=1.0,
                 demand=ResourceVector(cpu=0.1, mem=0.1), parents=("a",))
        c = Task(task_id="c", job_id="J", size_mi=1.0,
                 demand=ResourceVector(cpu=0.1, mem=0.1), parents=("a",))
        d = Task(task_id="d", job_id="J", size_mi=1.0,
                 demand=ResourceVector(cpu=0.1, mem=0.1), parents=("b", "c"))
        job = Job.from_tasks("J", [a, b, c, d], deadline=1e6)
        cluster = Cluster([
            NodeSpec(node_id="n0", cpu_size=1.0, mem_size=1.0, mips_per_unit=100.0)
        ])
        eng = SimEngine(cluster, [job], HeuristicScheduler(cluster))
        anc = eng.runtime.state.ancestors
        assert anc["a"] == frozenset()
        assert anc["b"] == anc["c"] == frozenset({"a"})
        assert anc["d"] == frozenset({"a", "b", "c"})


# ------------------------------------------------------------- golden parity
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_world():
    cluster = cluster_profile(
        golden_script.GOLDEN_PROFILE, golden_script.GOLDEN_NODE_SCALE
    )
    cfg = default_config()
    workload = build_workload_for_cluster(
        golden_script.GOLDEN_NUM_JOBS,
        cluster,
        scale=golden_script.GOLDEN_SCALE,
        seed=golden_script.GOLDEN_SEED + golden_script.GOLDEN_NUM_JOBS,
        config=cfg,
        demand_fraction=golden_script.GOLDEN_DEMAND_FRACTION,
    )
    return cluster, cfg, workload


class TestGoldenParity:
    """The refactored engine must reproduce the pre-refactor snapshot
    *exactly* — every RunMetrics field, bit for bit."""

    def test_recipe_unchanged(self, golden):
        assert golden["recipe"] == {
            "profile": golden_script.GOLDEN_PROFILE,
            "node_scale": golden_script.GOLDEN_NODE_SCALE,
            "num_jobs": golden_script.GOLDEN_NUM_JOBS,
            "scale": golden_script.GOLDEN_SCALE,
            "seed": golden_script.GOLDEN_SEED,
            "demand_fraction": golden_script.GOLDEN_DEMAND_FRACTION,
        }

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_fig5_scheduler_parity(self, golden, golden_world, name):
        cluster, cfg, workload = golden_world
        scheduler = make_schedulers(cluster, cfg)[name]
        metrics = run_scheduling(
            workload, cluster, scheduler, config=cfg,
            sim_config=default_sim_config(),
        )
        assert metrics.as_dict() == golden["runs"][f"fig5/{name}"]

    @pytest.mark.parametrize("name", PREEMPTION_NAMES)
    def test_fig6_preemption_parity(self, golden, golden_world, name):
        cluster, cfg, workload = golden_world
        policy = make_preemption_policies(cfg)[name]
        metrics = run_preemption(
            workload, cluster, policy, config=cfg,
            sim_config=default_sim_config(),
        )
        assert metrics.as_dict() == golden["runs"][f"fig6/{name}"]
