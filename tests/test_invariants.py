"""Tests for the runtime invariant checker (:mod:`repro.sim.invariants`):
mode wiring, clean runs under chaos, the C2 audit catching a deliberately
broken policy, and end-of-run metrics consistency."""

import dataclasses

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector
from repro.config import ResilienceConfig, SimConfig
from repro.core import HeuristicScheduler
from repro.dag import Job, Task
from repro.sim import (
    FaultEvent,
    FaultKind,
    InvariantViolation,
    NodeView,
    PreemptionDecision,
    PreemptionPolicy,
    SimEngine,
)


def mk(tid: str, size=5000.0, parents=()) -> Task:
    return Task(task_id=tid, job_id="J", size_mi=size,
                demand=ResourceVector(cpu=1.0, mem=0.5),
                parents=frozenset(parents))


def one_lane(n: int) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0)
        for i in range(n)
    ])


def build(cluster, jobs, *, invariants="strict", faults=None, policy=None,
          resilience=None, **kw):
    return SimEngine(
        cluster, jobs, HeuristicScheduler(cluster),
        preemption=policy,
        sim_config=SimConfig(epoch=1.0, scheduling_period=10.0,
                             invariants=invariants),
        faults=faults, resilience=resilience, **kw,
    )


class C2Violator(PreemptionPolicy):
    """Deliberately broken policy: claims to respect dependencies but
    preempts a running task with one of its own descendants — exactly the
    C2 violation (Algorithm 1) the checker must catch."""

    respects_dependencies = True
    uses_checkpointing = True
    name = "c2-violator"

    def attach(self, ctx) -> None:
        self._tasks = ctx.tasks

    def _ancestors(self, task_id: str) -> set[str]:
        found: set[str] = set()
        stack = list(self._tasks[task_id].parents)
        while stack:
            tid = stack.pop()
            if tid not in found:
                found.add(tid)
                stack.extend(self._tasks[tid].parents)
        return found

    def select_preemptions(self, view: NodeView):
        running = {r.task_id for r in view.running}
        for waiting in view.waiting:
            for ancestor in sorted(self._ancestors(waiting.task_id) & running):
                return [PreemptionDecision(waiting.task_id, ancestor)]
        return []


def chain_job() -> Job:
    return Job.from_tasks(
        "J", [mk("p", size=5000.0), mk("c", size=1000.0, parents=("p",))],
        deadline=1e6,
    )


class TestWiring:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="invariants"):
            SimConfig(invariants="sometimes")

    def test_off_attaches_nothing(self):
        eng = build(one_lane(1), [Job.from_tasks("J", [mk("t0")], deadline=1e6)],
                    invariants="off")
        assert eng.invariants is None

    @pytest.mark.parametrize("mode", ["record", "strict"])
    def test_checker_attached(self, mode):
        eng = build(one_lane(1), [Job.from_tasks("J", [mk("t0")], deadline=1e6)],
                    invariants=mode)
        assert eng.invariants is not None


class TestCleanRuns:
    FAULTS = [FaultEvent(2.0, "n0", FaultKind.SLOWDOWN, factor=0.5),
              FaultEvent(4.0, "n0", FaultKind.RESTORE),
              FaultEvent(5.0, "n1", FaultKind.FAILURE),
              FaultEvent(20.0, "n1", FaultKind.RECOVERY),
              FaultEvent(6.0, "n0", FaultKind.TASK_FAIL),
              FaultEvent(25.0, "n1", FaultKind.PARTITION),
              FaultEvent(32.0, "n1", FaultKind.HEAL)]

    def test_strict_clean_run_passes(self):
        cl = one_lane(2)
        job = Job.from_tasks("J", [mk(f"t{i}") for i in range(6)], deadline=1e6)
        eng = build(cl, [job], faults=self.FAULTS,
                    resilience=ResilienceConfig(backoff_base=0.5))
        m = eng.run()
        assert m.tasks_completed == 6

    def test_record_mode_collects_nothing_on_clean_run(self):
        cl = one_lane(2)
        job = Job.from_tasks("J", [mk(f"t{i}") for i in range(6)], deadline=1e6)
        eng = build(cl, [job], invariants="record", faults=self.FAULTS)
        eng.run()
        assert eng.invariants.violations == ()

    def test_checker_observed_the_run(self):
        cl = one_lane(1)
        eng = build(cl, [Job.from_tasks("J", [mk("t0")], deadline=1e6)])
        eng.run()
        counts = eng.invariants.event_counts()
        assert counts.get("TaskStarted") == 1
        assert counts.get("TaskFinished") == 1

    def test_strict_and_off_metrics_identical(self):
        cl = one_lane(2)
        job = Job.from_tasks("J", [mk(f"t{i}") for i in range(6)], deadline=1e6)
        on = build(cl, [job], faults=self.FAULTS).run()
        off = build(cl, [job], invariants="off", faults=self.FAULTS).run()
        assert on == off


class TestC2Audit:
    def test_strict_raises_on_broken_policy(self):
        # dependency_aware_dispatch=False lets the broken decision reach
        # execution (aware dispatch would refuse the non-runnable child).
        eng = build(one_lane(1), [chain_job()], policy=C2Violator(),
                    dependency_aware_dispatch=False)
        with pytest.raises(InvariantViolation) as exc:
            eng.run()
        assert exc.value.name == "c2-dependency-preemption"
        assert "ancestor" in str(exc.value)
        # The exception carries the offending event and recent history.
        assert exc.value.event is not None
        assert exc.value.history

    def test_record_mode_collects_and_continues(self):
        eng = build(one_lane(1), [chain_job()], policy=C2Violator(),
                    invariants="record", dependency_aware_dispatch=False)
        m = eng.run()
        assert m.tasks_completed == 2  # run survived to completion
        names = {v.name for v in eng.invariants.violations}
        assert "c2-dependency-preemption" in names

    def test_dependency_blind_policy_exempt(self):
        # A policy that *declares* itself dependency-blind makes no C2
        # promise, so the same eviction is not a violation.
        class BlindViolator(C2Violator):
            respects_dependencies = False
            uses_checkpointing = False
            name = "blind"

        eng = build(one_lane(1), [chain_job()], policy=BlindViolator(),
                    invariants="record", dependency_aware_dispatch=False)
        m = eng.run()
        assert m.tasks_completed == 2
        assert all(v.name != "c2-dependency-preemption"
                   for v in eng.invariants.violations)


class TestMetricsConsistency:
    def test_verify_run_accepts_real_metrics(self):
        eng = build(one_lane(1), [Job.from_tasks("J", [mk("t0")], deadline=1e6)])
        m = eng.run()  # run() already called verify_run without raising
        eng.invariants.verify_run(m)  # idempotent on honest metrics

    def test_verify_run_rejects_doctored_metrics(self):
        eng = build(one_lane(1), [Job.from_tasks("J", [mk("t0")], deadline=1e6)])
        m = eng.run()
        forged = dataclasses.replace(m, tasks_completed=m.tasks_completed + 1)
        with pytest.raises(InvariantViolation) as exc:
            eng.invariants.verify_run(forged)
        assert exc.value.name == "metrics-consistency"
