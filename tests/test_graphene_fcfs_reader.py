"""Tests for the Graphene-lite / FCFS extension baselines and the real
Google task_events reader."""

import pytest

from repro.baselines import FCFSScheduler, GrapheneLiteScheduler
from repro.cluster import ResourceVector, uniform_cluster
from repro.dag import Job, Task, layered_random_dag
from repro.trace import (
    read_task_events,
    records_from_csv_string,
    infer_dependencies,
)


def mk(tid: str, size=1000.0, cpu=1.0, parents=()) -> Task:
    return Task(task_id=tid, job_id="J", size_mi=size,
                demand=ResourceVector(cpu=cpu, mem=0.5), parents=tuple(parents))


@pytest.fixture
def cluster():
    return uniform_cluster(2, cpu_size=4.0, mem_size=4.0, mips_per_unit=250.0)


class TestGrapheneLite:
    def test_valid_schedule(self, cluster):
        job = Job.from_tasks("J", layered_random_dag("J", 40, rng=2), deadline=1e9)
        plan = GrapheneLiteScheduler(cluster).schedule([job])
        assert set(plan.assignments) == set(job.tasks)
        for tid, task in job.tasks.items():
            for p in task.parents:
                assert plan.assignments[tid].start >= plan.assignments[p].finish - 1e-9

    def test_trouble_scores(self, cluster):
        long = mk("long", size=50_000.0)
        short = mk("short", size=100.0)
        fat = mk("fat", size=100.0, cpu=3.9)
        job = Job.from_tasks("J", [long, short, fat], deadline=1e9)
        scores = GrapheneLiteScheduler(cluster).trouble_scores([job])
        assert scores["long"] > scores["short"]
        assert scores["fat"] > scores["short"]

    def test_troublesome_placed_first_among_ready(self, cluster):
        # Two independent tasks: the long one is troublesome and must get
        # the earlier slot when both compete for the same lane.
        long = mk("long", size=50_000.0, cpu=3.9)
        short = mk("aaa_short", size=100.0, cpu=3.9)  # id sorts first
        job = Job.from_tasks("J", [long, short], deadline=1e9)
        plan = GrapheneLiteScheduler(cluster).schedule([job])
        # With cpu 3.9 of 4, one task per node: both start at 0 on separate
        # nodes, so compare which got node-00 (the first EFT choice).
        assert plan.assignments["long"].node_id == "node-00"

    def test_reset_and_persistence(self, cluster):
        sched = GrapheneLiteScheduler(cluster)
        job = Job.from_tasks(
            "J",
            [mk("a", size=40_000.0, cpu=3.9), mk("b", size=40_000.0, cpu=3.9)],
            deadline=1e9,
        )
        sched.schedule([job])  # both nodes busy for ~40 s
        t2 = Task(task_id="K.b", job_id="K", size_mi=1000.0,
                  demand=ResourceVector(cpu=3.9, mem=0.5))
        j2 = Job(job_id="K", tasks={"K.b": t2}, deadline=1e9)
        later = sched.schedule([j2])
        assert later.assignments["K.b"].start > 0.0
        sched.reset()
        again = sched.schedule([j2])
        assert again.assignments["K.b"].start == pytest.approx(0.0)

    def test_empty(self, cluster):
        assert len(GrapheneLiteScheduler(cluster).schedule([])) == 0


class TestFCFS:
    def test_arrival_order_respected(self, cluster):
        first = Job.from_tasks("A", [Task(task_id="A.t", job_id="A", size_mi=50_000.0,
                                          demand=ResourceVector(cpu=3.9, mem=0.5))],
                               deadline=1e9, arrival_time=0.0)
        second = Job.from_tasks("B", [Task(task_id="B.t", job_id="B", size_mi=100.0,
                                           demand=ResourceVector(cpu=3.9, mem=0.5))],
                                deadline=1e9, arrival_time=1.0)
        plan = FCFSScheduler(cluster).schedule([second, first])
        # FCFS: A (earlier arrival) planned first, taking the earliest slot.
        assert plan.assignments["A.t"].start <= plan.assignments["B.t"].start

    def test_precedence(self, cluster):
        job = Job.from_tasks("J", layered_random_dag("J", 25, rng=4), deadline=1e9)
        plan = FCFSScheduler(cluster).schedule([job])
        for tid, task in job.tasks.items():
            for p in task.parents:
                assert plan.assignments[tid].start >= plan.assignments[p].finish - 1e-9


class TestGoogleReader:
    def _rows(self):
        # timestamp, _, job, idx, _, event, _, _, _, cpu, mem
        return [
            ["1000000", "", "j1", "0", "", "1", "", "", "", "0.5", "0.25"],
            ["3000000", "", "j1", "0", "", "4", "", "", "", "", ""],
            ["2000000", "", "j1", "1", "", "1", "", "", "", "0.2", "0.1"],
            ["5000000", "", "j1", "1", "", "4", "", "", "", "", ""],
        ]

    def test_pairs_schedule_and_finish(self):
        records = read_task_events(self._rows())
        assert len(records) == 2
        r0 = records[0]
        assert r0.job_id == "gj1" and r0.task_index == 0
        assert r0.start_time == pytest.approx(1.0)
        assert r0.end_time == pytest.approx(3.0)
        assert r0.cpu == 0.5 and r0.mem == 0.25

    def test_unpaired_finish_dropped(self):
        rows = [["1000000", "", "j1", "0", "", "4", "", "", "", "", ""]]
        assert read_task_events(rows) == []

    def test_unfinished_schedule_dropped(self):
        rows = [["1000000", "", "j1", "0", "", "1", "", "", "", "0.5", "0.5"]]
        assert read_task_events(rows) == []

    def test_bad_resources_dropped(self):
        rows = [
            ["1000000", "", "j1", "0", "", "1", "", "", "", "0.0", "0.5"],
            ["2000000", "", "j1", "0", "", "4", "", "", "", "", ""],
        ]
        assert read_task_events(rows) == []

    def test_malformed_rows_skipped(self):
        rows = [["garbage"], [], ["a", "b"]]
        assert read_task_events(rows) == []

    def test_feeds_dependency_inference(self):
        records = read_task_events(self._rows())
        parents = infer_dependencies(records)
        # Task 1 starts at 2.0 < task 0's end 3.0: overlap -> no edge.
        assert parents[1] == ()
