"""Tests for the discrete-event engine: dispatch, precedence, preemption
mechanics, disorders, stall eviction, deadlock detection."""

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector, uniform_cluster
from repro.config import DSPConfig, SimConfig
from repro.core import HeuristicScheduler
from repro.dag import Job, Task
from repro.sim import (
    NullPreemption,
    PreemptionDecision,
    PreemptionPolicy,
    SimEngine,
    SimulationStuck,
)


def mk(tid: str, job="J", parents=(), size=1000.0, cpu=1.0, mem=0.5) -> Task:
    return Task(
        task_id=tid, job_id=job, size_mi=size,
        demand=ResourceVector(cpu=cpu, mem=mem), parents=tuple(parents),
    )


def one_lane_cluster(n=1) -> Cluster:
    """Nodes that fit exactly one unit task at a time (cpu 1)."""
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        for i in range(n)
    ])


def run_engine(cluster, jobs, policy=None, aware=None, **kw):
    sched = HeuristicScheduler(cluster)
    eng = SimEngine(
        cluster, jobs, sched, preemption=policy,
        sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
        dependency_aware_dispatch=aware,
        **kw,
    )
    return eng.run()


class ScriptedPolicy(PreemptionPolicy):
    """Returns a fixed decision once, when both tasks appear in the view."""

    name = "scripted"

    def __init__(self, preempting: str, victim: str, *, aware=True, checkpoint=True):
        self.respects_dependencies = aware
        self.uses_checkpointing = checkpoint
        self._pre = preempting
        self._vic = victim
        self.fired = False

    def select_preemptions(self, view):
        if self.fired:
            return ()
        waiting_ids = {t.task_id for t in view.waiting}
        running_ids = {t.task_id for t in view.running}
        if self._pre in waiting_ids and self._vic in running_ids:
            self.fired = True
            return [PreemptionDecision(self._pre, self._vic)]
        return ()


class TestBasicExecution:
    def test_all_tasks_complete(self):
        cl = uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)
        job = Job.from_tasks("J", [mk("a"), mk("b", parents=["a"])], deadline=100.0)
        m = run_engine(cl, [job])
        assert m.tasks_completed == 2
        assert m.jobs_completed == 1

    def test_chain_makespan(self):
        cl = one_lane_cluster(1)  # 500 MIPS -> 2 s per 1000 MI task
        tasks = [mk("a"), mk("b", parents=["a"]), mk("c", parents=["b"])]
        job = Job.from_tasks("J", tasks, deadline=100.0)
        m = run_engine(cl, [job])
        assert m.makespan == pytest.approx(6.0, abs=1e-6)

    def test_parallel_tasks_overlap(self):
        cl = uniform_cluster(2, cpu_size=1.0, mem_size=1.0, mips_per_unit=1000.0)
        job = Job.from_tasks("J", [mk("a"), mk("b")], deadline=100.0)
        m = run_engine(cl, [job])
        assert m.makespan == pytest.approx(1.0, abs=1e-6)

    def test_deadline_miss_recorded(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a"), mk("b")], deadline=2.5)  # needs 4 s
        m = run_engine(cl, [job])
        assert m.jobs_completed == 1
        assert m.jobs_within_deadline == 0
        assert m.deadline_misses == 1

    def test_engine_single_use(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a")], deadline=100.0)
        sched = HeuristicScheduler(cl)
        eng = SimEngine(cl, [job], sched, sim_config=SimConfig(epoch=1.0, scheduling_period=10.0))
        eng.run()
        with pytest.raises(Exception, match="single-use"):
            eng.run()

    def test_rejects_empty_jobs(self):
        cl = one_lane_cluster(1)
        with pytest.raises(ValueError):
            SimEngine(cl, [], HeuristicScheduler(cl))

    def test_duplicate_job_ids_rejected(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a")], deadline=100.0)
        with pytest.raises(ValueError, match="duplicate"):
            SimEngine(cl, [job, job], HeuristicScheduler(cl))

    def test_determinism(self):
        cl = uniform_cluster(2, cpu_size=2.0, mem_size=2.0, mips_per_unit=500.0)
        jobs = [
            Job.from_tasks("J", [mk("a"), mk("b", parents=["a"]), mk("c")], deadline=100.0)
        ]
        m1 = run_engine(cl, jobs)
        m2 = run_engine(cl, jobs)
        assert m1.makespan == m2.makespan
        assert m1.avg_job_waiting == m2.avg_job_waiting


class TestPrecedence:
    def test_child_never_starts_before_parent_done(self):
        # One-lane node: parent runs 2 s; with dependency-aware dispatch the
        # child (queued with an optimistic planned start) must wait.
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a"), mk("b", parents=["a"])], deadline=100.0)
        m = run_engine(cl, [job])
        assert m.num_disorders == 0
        assert m.makespan == pytest.approx(4.0, abs=1e-6)

    def test_oversized_task_detected(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a", cpu=50.0)], deadline=100.0)
        with pytest.raises(SimulationStuck, match="exceeds every node"):
            SimEngine(cl, [job], HeuristicScheduler(cl))


class TestPreemptionMechanics:
    def _two_task_setup(self, checkpoint=True):
        """One 1-lane node; long task runs, short task waits; script: the
        short preempts the long at the first epoch."""
        cl = one_lane_cluster(1)  # 500 MIPS
        long = mk("long", size=5000.0)          # 10 s
        short = mk("short", size=500.0)         # 1 s
        job = Job.from_tasks("J", [long, short], deadline=1e6)
        policy = ScriptedPolicy("short", "long", checkpoint=checkpoint)
        cfg = DSPConfig(recovery_time=0.05, sigma=0.05)
        sched = HeuristicScheduler(cl)
        eng = SimEngine(
            cl, [job], sched, preemption=policy, dsp_config=cfg,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
        )
        return eng, policy

    def test_preemption_happens_and_counts(self):
        eng, policy = self._two_task_setup()
        m = eng.run()
        assert policy.fired
        assert m.num_preemptions == 1
        assert m.total_context_switch_time == pytest.approx(0.1)

    def test_checkpoint_preserves_progress(self):
        # With checkpointing: long runs [0, t_p], short runs 1 s, long
        # resumes with recovery 0.1 and finishes the REMAINDER.
        eng, _ = self._two_task_setup(checkpoint=True)
        m = eng.run()
        # Total busy: 10 (long, split) + 1 (short) + 0.1 recovery = 11.1.
        assert m.makespan == pytest.approx(11.1, abs=0.01)

    def test_no_checkpoint_restarts_from_scratch(self):
        eng, _ = self._two_task_setup(checkpoint=False)
        m = eng.run()
        # Long ran some prefix p in [0, ~0.5] that is lost; makespan ->
        # p + 1 (short) + 0.1 + 10 (full rerun) > 11.1.
        assert m.makespan > 11.3

    def test_victim_over_preemption_cap_protected(self):
        cl = one_lane_cluster(1)
        long = mk("long", size=5000.0)
        short = mk("short", size=500.0)
        job = Job.from_tasks("J", [long, short], deadline=1e6)
        policy = ScriptedPolicy("short", "long")
        sched = HeuristicScheduler(cl)
        eng = SimEngine(
            cl, [job], sched, preemption=policy,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
            max_preemptions_per_task=1,
        )
        m = eng.run()
        assert m.num_preemptions <= 1


class FixedScheduler:
    """Returns a pre-built plan — used to inject *optimistic* planned
    starts, the real-world condition that makes blind dispatch stall."""

    respects_dependencies = False

    def __init__(self, plan):
        self._plan = plan

    def schedule(self, jobs):
        return self._plan


class TestDisordersAndStalls:
    def _optimistic_setup(self):
        """n0 runs a then x (16 s total); the plan believes x finishes at 8
        and schedules x's child b on n1 at t=8.  Blind dispatch starts b at
        8 although x is still running — a disorder and a stall."""
        from repro.core import Schedule, TaskAssignment

        cl = one_lane_cluster(2)
        a = mk("a", size=4000.0)               # 8 s at 500 MIPS
        x = mk("x", size=4000.0)
        b = mk("b", size=500.0, parents=["x"])  # 1 s
        job = Job.from_tasks("J", [a, x, b], deadline=1e6)
        plan = Schedule({
            "a": TaskAssignment("a", "n0", 0.0, 8.0),
            "x": TaskAssignment("x", "n0", 0.1, 8.1),   # optimistic!
            "b": TaskAssignment("b", "n1", 8.1, 9.1),
        })
        return cl, job, FixedScheduler(plan)

    def test_aware_dispatch_no_disorders(self):
        cl, job, sched = self._optimistic_setup()
        eng = SimEngine(
            cl, [job], sched,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
            dependency_aware_dispatch=True,
        )
        m = eng.run()
        assert m.num_disorders == 0
        assert m.total_stalled_time == 0.0

    def test_blind_dispatch_creates_disorder(self):
        cl, job, sched = self._optimistic_setup()
        eng = SimEngine(
            cl, [job], sched,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
            dependency_aware_dispatch=False,
        )
        m = eng.run()
        assert m.num_disorders >= 1
        assert m.total_stalled_time > 0.0
        assert m.tasks_completed == 3

    def test_stall_eviction_frees_capacity(self):
        cl, job, sched = self._optimistic_setup()
        eng = SimEngine(
            cl, [job], sched,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
            dependency_aware_dispatch=False,
            stall_timeout=1.0,
        )
        m = eng.run()
        assert m.num_stall_evictions >= 1
        # Evictions are not policy preemptions.
        assert m.num_preemptions == 0
        assert m.tasks_completed == 3

    def test_stall_time_counts_as_waiting(self):
        cl, job, sched = self._optimistic_setup()

        def run(aware):
            eng = SimEngine(
                cl, [job], FixedScheduler(sched._plan),
                sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
                dependency_aware_dispatch=aware,
            )
            return eng.run()

        aware = run(True)
        blind = run(False)
        # Stalling must not reduce measured waiting vs the aware run.
        assert blind.avg_job_waiting >= aware.avg_job_waiting - 1e-6

    def test_invalid_engine_params(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a")], deadline=100.0)
        sched = HeuristicScheduler(cl)
        with pytest.raises(ValueError):
            SimEngine(cl, [job], sched, max_preemptions_per_task=0)
        with pytest.raises(ValueError):
            SimEngine(cl, [job], sched, stall_timeout=0.0)


class TestArrivalsAndRounds:
    def test_late_job_waits_for_round(self):
        cl = one_lane_cluster(2)
        j1 = Job.from_tasks("J", [mk("a")], deadline=1e6)
        t = mk("K.b", job="K")
        j2 = Job(job_id="K", tasks={"K.b": t}, deadline=1e6, arrival_time=3.0)
        sched = HeuristicScheduler(cl)
        eng = SimEngine(
            cl, [j1, j2], sched,
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        m = eng.run()
        assert m.tasks_completed == 2
        # J2 arrives at 3; the next round is at 10 -> it cannot finish
        # before 10 + 2.
        assert m.makespan >= 12.0 - 1e-6

    def test_task_deadline_override(self):
        cl = one_lane_cluster(1)
        job = Job.from_tasks("J", [mk("a")], deadline=100.0)
        sched = HeuristicScheduler(cl)
        eng = SimEngine(
            cl, [job], sched, task_deadlines={"a": 55.0},
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        eng.run()
        assert eng._tasks["a"].deadline == 55.0
