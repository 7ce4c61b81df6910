"""Edge-case tests for the engine: the policy attach hook, the queue-head
limit, stalled victims, transfer re-charging, and round-boundary
arrivals."""

import pytest

from repro.cluster import Cluster, NodeSpec, ResourceVector, uniform_cluster
from repro.config import DSPConfig, SimConfig
from repro.core import HeuristicScheduler, Schedule, TaskAssignment
from repro.dag import Job, Task, TaskState
from repro.sim import (
    NullPreemption,
    PreemptionDecision,
    PreemptionPolicy,
    SimEngine,
)
from repro.sim.views import VIEW_QUEUE_LIMIT


def mk(tid: str, job="J", parents=(), size=1000.0, cpu=1.0,
       input_mb=0.0, input_location=None) -> Task:
    return Task(
        task_id=tid, job_id=job, size_mi=size,
        demand=ResourceVector(cpu=cpu, mem=0.5),
        parents=tuple(parents),
        input_mb=input_mb, input_location=input_location,
    )


def one_lane(n=1) -> Cluster:
    return Cluster([
        NodeSpec(node_id=f"n{i}", cpu_size=1.0, mem_size=1.0, mips_per_unit=500.0,
                 bandwidth_capacity=100.0)
        for i in range(n)
    ])


class ContextProbe(PreemptionPolicy):
    """Policy that samples the attached runtime at its first decision."""

    name = "probe"

    def __init__(self):
        self.runtime = None
        self.samples: dict = {}

    def attach(self, runtime):
        self.runtime = runtime

    def select_preemptions_from_core(self, runtime, node):
        assert runtime is self.runtime
        queued = node.queued_ids(VIEW_QUEUE_LIMIT)
        if not self.samples and queued:
            tid = queued[0]
            state = runtime.state
            now = runtime.now
            remaining = state.remaining_time(tid, now)
            self.samples = {
                "now": now,
                "remaining": remaining,
                "waiting": state.tasks[tid].waiting_time_at(now),
                "allowable": state.tasks[tid].deadline - now - remaining,
                "completed": state.tasks[tid].state is TaskState.COMPLETED,
                "epoch": runtime.sim_config.epoch,
                "children": dict(state.children),
                "num_tasks": len(state.static_tasks),
            }
        return ()


class TestAttachHook:
    def test_attach_receives_runtime(self):
        cl = one_lane(1)
        job = Job.from_tasks(
            "J", [mk("a", size=5000.0), mk("b", size=1000.0)], deadline=1e5
        )
        probe = ContextProbe()
        eng = SimEngine(
            cl, [job], HeuristicScheduler(cl), preemption=probe,
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        eng.run()
        s = probe.samples
        assert s, "probe never saw a waiting task"
        assert s["epoch"] == 1.0
        assert s["num_tasks"] == 2
        assert not s["completed"]
        assert s["remaining"] > 0
        assert s["waiting"] >= 0
        # allowable = deadline - now - remaining, all from the same instant.
        assert s["allowable"] == pytest.approx(1e5 - s["now"] - s["remaining"], abs=1e-6)
        assert s["children"] == {"a": (), "b": ()}


class TestViewQueueLimit:
    def test_policy_sees_at_most_limit(self):
        """With more tasks queued than the limit, ``ViewCache.build``
        gathers exactly the first VIEW_QUEUE_LIMIT of them, in queue
        order, after the sorted running set."""
        seen = []

        class Counter(PreemptionPolicy):
            name = "counter"

            def select_preemptions_from_core(self, runtime, node):
                signals = runtime.views.build(node, runtime.now)
                assert signals.ids[:signals.split] == tuple(sorted(node.running))
                head = signals.ids[signals.split:]
                assert list(head) == node.queued_ids(VIEW_QUEUE_LIMIT)
                seen.append((len(head), node.queue_length))
                return ()

        cl = one_lane(1)
        count = VIEW_QUEUE_LIMIT + 8
        tasks = [mk(f"t{i:02d}", size=2000.0) for i in range(count)]
        job = Job.from_tasks("J", tasks, deadline=1e6)
        eng = SimEngine(
            cl, [job], HeuristicScheduler(cl), preemption=Counter(),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        eng.run()
        assert max(n for n, _ in seen) == VIEW_QUEUE_LIMIT
        assert max(q for _, q in seen) > VIEW_QUEUE_LIMIT
        assert min(n for n, _ in seen) < VIEW_QUEUE_LIMIT  # the queue drained
        assert all(n == min(q, VIEW_QUEUE_LIMIT) for n, q in seen)


class TestStalledVictim:
    def test_policy_can_evict_stalled_task(self):
        """A stalled (disordered) task occupies resources and is a valid
        preemption victim; evicting it frees capacity for real work."""
        from tests.test_engine import FixedScheduler

        cl = one_lane(2)
        a = mk("a", size=4000.0)                       # 8 s on n0
        b = mk("b", size=500.0, parents=("a",))        # stalls on n1
        c = mk("c", size=1000.0)                       # runnable, queued on n1
        job = Job.from_tasks("J", [a, b, c], deadline=1e6)
        plan = Schedule({
            "a": TaskAssignment("a", "n0", 0.0, 8.0),
            "b": TaskAssignment("b", "n1", 0.0, 1.0),   # dispatches at t=0 -> stall
            "c": TaskAssignment("c", "n1", 5.0, 7.0),
        })

        class EvictStalled(PreemptionPolicy):
            respects_dependencies = False
            name = "evict-stalled"
            fired = False

            def select_preemptions_from_core(self, runtime, node):
                if self.fired:
                    return ()
                tasks = runtime.state.tasks
                stalled = [t for t in sorted(node.running) if not tasks[t].is_runnable]
                waiting = [
                    t for t in node.queued_ids(VIEW_QUEUE_LIMIT) if tasks[t].is_runnable
                ]
                if stalled and waiting:
                    self.fired = True
                    return [PreemptionDecision(waiting[0], stalled[0])]
                return ()

        policy = EvictStalled()
        eng = SimEngine(
            cl, [job], FixedScheduler(plan), preemption=policy,
            sim_config=SimConfig(epoch=0.5, scheduling_period=10.0),
            dependency_aware_dispatch=False,
        )
        m = eng.run()
        assert policy.fired
        assert m.tasks_completed == 3
        # c ran while b (stalled) was evicted: c completes well before a.
        assert eng._tasks["c"].completed_at < eng._tasks["a"].completed_at


class TestTransferRecharging:
    def test_same_node_refetch_free(self):
        """A preempted task resumed on the SAME node does not re-pay its
        input transfer (the data is already local)."""
        from tests.test_engine import ScriptedPolicy

        cl = one_lane(1)
        long = mk("long", size=5000.0, input_mb=200.0, input_location="n9")
        short = mk("short", size=500.0)
        # input_location n9 is off-cluster-node; transfer = 200/100 = 2 s.
        job = Job.from_tasks("J", [long, short], deadline=1e6)
        policy = ScriptedPolicy("short", "long")
        eng = SimEngine(
            cl, [job], HeuristicScheduler(cl, locality_aware=False),
            preemption=policy,
            sim_config=SimConfig(epoch=0.7, scheduling_period=10.0),
        )
        m = eng.run()
        assert policy.fired
        # Transfer charged exactly once despite the preemption+resume.
        assert m.total_transfer_time == pytest.approx(2.0)


class TestRoundBoundaries:
    def test_job_arriving_exactly_at_round_is_scheduled(self):
        cl = one_lane(2)
        j1 = Job.from_tasks("J", [mk("a")], deadline=1e6)
        t = mk("K.b", job="K")
        j2 = Job(job_id="K", tasks={"K.b": t}, deadline=1e6, arrival_time=10.0)
        eng = SimEngine(
            cl, [j1, j2], HeuristicScheduler(cl),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        m = eng.run()
        assert m.tasks_completed == 2
        # Arrival at t=10 coincides with the round at t=10: scheduled then,
        # so it finishes at 12, not 22.
        assert m.makespan == pytest.approx(12.0, abs=1e-6)

    def test_null_policy_counts_no_context_switches(self):
        cl = one_lane(1)
        job = Job.from_tasks("J", [mk("a"), mk("b")], deadline=1e6)
        eng = SimEngine(
            cl, [job], HeuristicScheduler(cl), preemption=NullPreemption(),
            sim_config=SimConfig(epoch=1.0, scheduling_period=10.0),
        )
        m = eng.run()
        assert m.total_context_switch_time == 0.0
        assert m.num_preemptions == 0
