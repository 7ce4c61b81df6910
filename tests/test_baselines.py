"""Unit tests for the compared methods: Tetris, Aalo, Amoeba, Natjam, SRPT."""

import pytest

from repro.baselines import (
    AaloScheduler,
    AmoebaPreemption,
    NatjamPreemption,
    SRPTPreemption,
    TetrisScheduler,
)
from repro.cluster import ResourceVector, uniform_cluster
from repro.config import DSPConfig
from repro.core import verify_schedule
from repro.dag import Job, Task, diamond_dag, layered_random_dag

from tests.helpers import make_node_view, make_view


def mk(tid: str, parents=(), size=1000.0, cpu=1.0, mem=0.5) -> Task:
    return Task(
        task_id=tid, job_id="J", size_mi=size,
        demand=ResourceVector(cpu=cpu, mem=mem, disk=0.02, bandwidth=0.02),
        parents=tuple(parents),
    )


@pytest.fixture
def cluster():
    return uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)


class TestTetrisPacking:
    def test_names_and_flags(self, cluster):
        assert TetrisScheduler(cluster, simdep=False).name == "TetrisW/oDep"
        assert TetrisScheduler(cluster, simdep=True).name == "TetrisW/SimDep"
        assert TetrisScheduler(cluster, simdep=True).respects_dependencies
        assert not TetrisScheduler(cluster, simdep=False).respects_dependencies

    def test_all_tasks_scheduled(self, cluster):
        job = Job.from_tasks("J", layered_random_dag("J", 30, rng=1), deadline=1e9)
        plan = TetrisScheduler(cluster).schedule([job])
        assert set(plan.assignments) == set(job.tasks)

    def test_alignment_prefers_bigger_dot_product(self, cluster):
        # Two tasks fit; the one with the larger demand·free wins the slot.
        big = mk("big", cpu=3.0, mem=3.0)
        small = mk("small", cpu=0.5, mem=0.5)
        job = Job.from_tasks("J", [big, small], deadline=1e9)
        plan = TetrisScheduler(cluster).schedule([job])
        # Both start at 0 (they fit together), but 'big' is packed first on
        # node-00: ties on start → check it landed on the first node.
        assert plan.assignments["big"].start == 0.0

    def test_simdep_respects_precedence_in_plan(self, cluster):
        job = Job.from_tasks("J1", diamond_dag("J1"), deadline=1e9)
        plan = TetrisScheduler(cluster, simdep=True).schedule([job])
        for tid, task in job.tasks.items():
            for p in task.parents:
                assert plan.assignments[tid].start >= plan.assignments[p].finish - 1e-9

    def test_wodep_ignores_precedence_in_plan(self, cluster):
        # On an empty cluster every task fits immediately: W/oDep plans the
        # whole diamond at t=0, violating precedence (by design).
        job = Job.from_tasks("J1", diamond_dag("J1"), deadline=1e9)
        plan = TetrisScheduler(cluster, simdep=False).schedule([job])
        starts = [plan.assignments[t].start for t in job.tasks]
        assert min(starts) == max(starts) == 0.0

    def test_capacity_never_oversubscribed(self, cluster):
        job = Job.from_tasks(
            "J", [mk(f"t{i}", cpu=3.0, mem=3.0) for i in range(6)], deadline=1e9
        )
        plan = TetrisScheduler(cluster).schedule([job])
        # cpu 3 of 4 -> one task per node at a time; 6 tasks over 2 nodes
        # need 3 sequential waves.
        assert plan.makespan >= 3.0 - 1e-9
        v = verify_schedule(plan, [job], cluster, unit_capacity=True,
                            check_deadlines=False)
        assert v == []  # one-at-a-time here implies no overlap per node

    def test_release_times(self, cluster):
        job = Job.from_tasks("J", [mk("a")], deadline=1e9, arrival_time=42.0)
        plan = TetrisScheduler(cluster).schedule([job])
        assert plan.assignments["a"].start >= 42.0

    def test_persistent_backlog(self, cluster):
        sched = TetrisScheduler(cluster)
        j1 = Job.from_tasks("J", [mk(f"t{i}", cpu=3.0, mem=3.0) for i in range(4)],
                            deadline=1e9)
        sched.schedule([j1])
        t = Task(task_id="K.x", job_id="K", size_mi=1000.0,
                 demand=ResourceVector(cpu=3.0, mem=3.0))
        j2 = Job(job_id="K", tasks={"K.x": t}, deadline=1e9)
        plan2 = sched.schedule([j2])
        assert plan2.assignments["K.x"].start > 0.0

    def test_reset(self, cluster):
        sched = TetrisScheduler(cluster)
        j1 = Job.from_tasks("J", [mk(f"t{i}", cpu=3.0, mem=3.0) for i in range(4)],
                            deadline=1e9)
        sched.schedule([j1])
        sched.reset()
        t = Task(task_id="K.x", job_id="K", size_mi=1000.0,
                 demand=ResourceVector(cpu=3.0, mem=3.0))
        j2 = Job(job_id="K", tasks={"K.x": t}, deadline=1e9)
        assert sched.schedule([j2]).assignments["K.x"].start == 0.0

    def test_oversized_task_raises(self, cluster):
        job = Job.from_tasks("J", [mk("a", cpu=100.0)], deadline=1e9)
        with pytest.raises(RuntimeError, match="stuck"):
            TetrisScheduler(cluster).schedule([job])

    def test_empty_batch(self, cluster):
        assert len(TetrisScheduler(cluster).schedule([])) == 0


class TestAalo:
    def test_queue_of_by_total_work(self, cluster):
        sched = AaloScheduler(cluster)
        small = Job.from_tasks("J", [mk("a", size=500.0)], deadline=1e9)
        t = Task(task_id="K.b", job_id="K", size_mi=5_000_000.0)
        big = Job(job_id="K", tasks={"K.b": t}, deadline=1e9)
        assert sched.queue_of(small) < sched.queue_of(big)

    def test_queue_clamped_to_num_queues(self, cluster):
        from repro.baselines.aalo import NUM_QUEUES

        sched = AaloScheduler(cluster)
        t = Task(task_id="K.b", job_id="K", size_mi=1e18)
        big = Job(job_id="K", tasks={"K.b": t}, deadline=1e9)
        assert sched.queue_of(big) == NUM_QUEUES - 1

    def test_lower_queue_served_first(self, cluster):
        # Big job arrives first but the small job (lower queue) is planned
        # first and therefore starts no later.
        big_tasks = [mk(f"b{i}", size=500_000.0, cpu=3.0, mem=3.0) for i in range(4)]
        big = Job.from_tasks("J", big_tasks, deadline=1e9, arrival_time=0.0)
        t = Task(task_id="K.s", job_id="K", size_mi=100.0,
                 demand=ResourceVector(cpu=3.0, mem=3.0))
        small = Job(job_id="K", tasks={"K.s": t}, deadline=1e9, arrival_time=0.0)
        plan = AaloScheduler(cluster).schedule([big, small])
        assert plan.assignments["K.s"].start == pytest.approx(0.0)

    def test_precedence_respected(self, cluster):
        job = Job.from_tasks("J1", diamond_dag("J1"), deadline=1e9)
        plan = AaloScheduler(cluster).schedule([job])
        for tid, task in job.tasks.items():
            for p in task.parents:
                assert plan.assignments[tid].start >= plan.assignments[p].finish - 1e-9


class TestSRPT:
    def test_flags(self):
        p = SRPTPreemption()
        assert not p.respects_dependencies
        assert not p.uses_checkpointing  # §V: SRPT has no checkpoint

    def test_priority_formula(self):
        p = SRPTPreemption(DSPConfig(srpt_alpha=0.5, srpt_beta=1.0))
        v = make_view("t", remaining=2.0, waiting=10.0)
        assert p.priority(v) == pytest.approx(0.5 * 10.0 + 1.0 / 2.0)

    def test_short_remaining_preempts_long(self):
        p = SRPTPreemption()
        view = make_node_view(
            running=[make_view("long", running=True, remaining=100.0)],
            waiting=[make_view("short", remaining=0.5)],
        )
        d = list(p.select_preemptions(view))
        assert len(d) == 1 and d[0].victim_task_id == "long"

    def test_long_does_not_preempt_short(self):
        p = SRPTPreemption()
        view = make_node_view(
            running=[make_view("short", running=True, remaining=0.5)],
            waiting=[make_view("long", remaining=100.0)],
        )
        assert list(p.select_preemptions(view)) == []

    def test_considers_all_waiting(self):
        # Two victims available, two deserving waiters: both preempt (the
        # "all tasks in the waiting queue" property of §V).
        p = SRPTPreemption()
        view = make_node_view(
            running=[
                make_view("r1", running=True, remaining=100.0),
                make_view("r2", running=True, remaining=90.0),
            ],
            waiting=[make_view("w1", remaining=0.5), make_view("w2", remaining=0.6)],
        )
        assert len(list(p.select_preemptions(view))) == 2

    def test_ignores_runnability(self):
        # Dependency-blind: promotes a non-runnable waiter too.
        p = SRPTPreemption()
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0)],
            waiting=[make_view("w", remaining=0.5, runnable=False)],
        )
        assert len(list(p.select_preemptions(view))) == 1


class TestAmoeba:
    def test_flags(self):
        p = AmoebaPreemption()
        assert not p.respects_dependencies
        assert p.uses_checkpointing

    def test_most_resources_evicted_first(self):
        p = AmoebaPreemption()
        view = make_node_view(
            running=[
                make_view("fat", running=True, remaining=50.0, footprint=10.0),
                make_view("thin", running=True, remaining=60.0, footprint=1.0),
            ],
            waiting=[make_view("w", remaining=1.0)],
        )
        d = list(p.select_preemptions(view))
        assert d[0].victim_task_id == "fat"

    def test_only_shorter_remaining_preempts(self):
        p = AmoebaPreemption()
        view = make_node_view(
            running=[make_view("r", running=True, remaining=5.0, footprint=10.0)],
            waiting=[make_view("w", remaining=50.0)],
        )
        assert list(p.select_preemptions(view)) == []

    def test_shortest_waiting_first(self):
        p = AmoebaPreemption()
        view = make_node_view(
            running=[make_view("r", running=True, remaining=100.0, footprint=5.0)],
            waiting=[make_view("w_long", remaining=20.0), make_view("w_short", remaining=1.0)],
        )
        d = list(p.select_preemptions(view))
        assert d[0].preempting_task_id == "w_short"


class TestNatjam:
    def test_flags(self):
        p = NatjamPreemption()
        assert not p.respects_dependencies
        assert p.uses_checkpointing

    def test_production_evicts_research(self):
        p = NatjamPreemption()
        view = make_node_view(
            running=[make_view("research", running=True, weight=0.0)],
            waiting=[make_view("prod", weight=1.0)],
        )
        d = list(p.select_preemptions(view))
        assert d == [type(d[0])("prod", "research")]

    def test_research_never_evicts(self):
        p = NatjamPreemption()
        view = make_node_view(
            running=[make_view("research", running=True, weight=0.0)],
            waiting=[make_view("also_research", weight=0.0)],
        )
        assert list(p.select_preemptions(view)) == []

    def test_production_never_victim(self):
        p = NatjamPreemption()
        view = make_node_view(
            running=[make_view("prod_r", running=True, weight=1.0)],
            waiting=[make_view("prod_w", weight=1.0)],
        )
        assert list(p.select_preemptions(view)) == []

    def test_three_level_eviction_order(self):
        p = NatjamPreemption()
        victims = [
            make_view("most_res", running=True, weight=0.0, footprint=10.0,
                      deadline=100.0, remaining=50.0),
            make_view("max_dl", running=True, weight=0.0, footprint=5.0,
                      deadline=900.0, remaining=50.0),
            make_view("short_rem", running=True, weight=0.0, footprint=5.0,
                      deadline=100.0, remaining=1.0),
        ]
        view = make_node_view(
            running=victims,
            waiting=[make_view("p", weight=1.0)],
        )
        d = list(p.select_preemptions(view))
        # Level 1: most resources wins outright.
        assert d[0].victim_task_id == "most_res"

    def test_deadline_tiebreak(self):
        p = NatjamPreemption()
        victims = [
            make_view("near_dl", running=True, weight=0.0, footprint=5.0,
                      deadline=100.0, remaining=50.0),
            make_view("far_dl", running=True, weight=0.0, footprint=5.0,
                      deadline=900.0, remaining=50.0),
        ]
        view = make_node_view(running=victims, waiting=[make_view("p", weight=1.0)])
        d = list(p.select_preemptions(view))
        # Equal resources: the max-deadline (most slack) research task goes.
        assert d[0].victim_task_id == "far_dl"


class TestTetrisCapacityProperty:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000), n=st.integers(2, 40))
    def test_plan_never_oversubscribes(self, seed, n):
        """Tetris' planned concurrent demand never exceeds any node's
        capacity at any instant (checked by sweeping segment boundaries)."""
        from repro.cluster import ResourceVector as RV

        cluster = uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)
        tasks = layered_random_dag(
            "J", n, rng=seed,
            demand_sampler=lambda g: RV(
                cpu=float(g.uniform(0.5, 3.5)), mem=float(g.uniform(0.5, 3.5)),
                disk=0.02, bandwidth=0.02,
            ),
        )
        job = Job.from_tasks("J", tasks, deadline=1e12)
        plan = TetrisScheduler(cluster).schedule([job])
        for node in cluster:
            segs = plan.tasks_on(node.node_id)
            boundaries = sorted({a.start for a in segs})
            for t in boundaries:
                live = [a for a in segs if a.start <= t + 1e-9 < a.finish - 1e-9]
                used_cpu = sum(job.tasks[a.task_id].demand.cpu for a in live)
                used_mem = sum(job.tasks[a.task_id].demand.mem for a in live)
                assert used_cpu <= node.cpu_size + 1e-6
                assert used_mem <= node.mem_size + 1e-6
