"""Tests for the Job model."""

import dataclasses

import pytest

from repro.dag import Job, Task, chain_dag, diamond_dag


def mk(tid: str, job: str = "J1", parents: tuple[str, ...] = (), size: float = 1000.0) -> Task:
    return Task(task_id=tid, job_id=job, size_mi=size, parents=parents)


class TestJobValidation:
    def test_basic(self):
        job = Job.from_tasks("J1", [mk("a")], deadline=10.0)
        assert job.num_tasks == 1

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            Job(job_id="J1", tasks={}, deadline=10.0)

    def test_wrong_job_id_on_task_rejected(self):
        with pytest.raises(ValueError, match="belongs to job"):
            Job.from_tasks("J1", [mk("a", job="OTHER")], deadline=10.0)

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError, match="task key"):
            Job(job_id="J1", tasks={"x": mk("a")}, deadline=10.0)

    def test_deadline_after_arrival(self):
        with pytest.raises(ValueError, match="deadline"):
            Job.from_tasks("J1", [mk("a")], deadline=5.0, arrival_time=10.0)

    def test_cycle_rejected(self):
        tasks = [mk("a", parents=("b",)), mk("b", parents=("a",))]
        with pytest.raises(Exception):
            Job.from_tasks("J1", tasks, deadline=10.0)

    def test_unknown_parent_rejected(self):
        with pytest.raises(Exception):
            Job.from_tasks("J1", [mk("a", parents=("ghost",))], deadline=10.0)


class TestJobStructure:
    @pytest.fixture
    def job(self) -> Job:
        return Job.from_tasks("J1", diamond_dag("J1", size_mi=1000.0), deadline=100.0)

    def test_depth(self, job):
        assert job.depth == 3

    def test_levels(self, job):
        levels = job.levels
        assert levels["J1.T0000"] == 1
        assert levels["J1.T0003"] == 3

    def test_roots_and_sinks(self, job):
        assert job.roots() == ["J1.T0000"]
        assert job.sinks() == ["J1.T0003"]

    def test_children(self, job):
        assert set(job.children["J1.T0000"]) == {"J1.T0001", "J1.T0002"}

    def test_topo_order_parents_first(self, job):
        order = job.topo_order
        assert order.index("J1.T0000") < order.index("J1.T0001")
        assert order.index("J1.T0001") < order.index("J1.T0003")

    def test_chains(self, job):
        assert len(job.chains()) == 2

    def test_total_work(self, job):
        assert job.total_work_mi() == pytest.approx(4000.0)

    def test_critical_path_time(self, job):
        # 3 tasks on the critical path, 1 s each at 1000 MIPS.
        assert job.critical_path_time(1000.0) == pytest.approx(3.0)

    def test_len_and_iter(self, job):
        assert len(job) == 4
        assert {t.task_id for t in job} == set(job.tasks)

    def test_chain_job_depth(self):
        job = Job.from_tasks("J2", chain_dag("J2", length=5), deadline=100.0)
        assert job.depth == 5
        assert len(job.level_lists) == 5
        assert all(len(lvl) == 1 for lvl in job.level_lists)


class TestJobWeight:
    def test_default_research(self):
        job = Job.from_tasks("J1", [mk("a")], deadline=10.0)
        assert job.weight == 0.0

    def test_production_weight(self):
        job = Job.from_tasks("J1", [mk("a")], deadline=10.0, weight=1.0)
        assert job.weight == 1.0


class TestRetimed:
    @pytest.fixture
    def job(self) -> Job:
        return Job.from_tasks(
            "J1", diamond_dag("J1", size_mi=1000.0), deadline=100.0,
            arrival_time=4.0, weight=1.0,
        )

    def test_equals_a_rebuilt_job_field_for_field(self, job):
        new = job.retimed(9.0, 105.0)
        ref = dataclasses.replace(job, arrival_time=9.0, deadline=105.0)
        for f in dataclasses.fields(Job):
            assert getattr(new, f.name) == getattr(ref, f.name), f.name
        for derived in ("topo_order", "children", "levels", "level_lists"):
            assert getattr(new, derived) == getattr(ref, derived), derived
        assert (job.arrival_time, job.deadline) == (4.0, 100.0)

    def test_times_still_checked(self, job):
        with pytest.raises(ValueError, match="must be after"):
            job.retimed(200.0, 150.0)
        with pytest.raises(ValueError, match="arrival_time"):
            job.retimed(-1.0, 150.0)
        with pytest.raises(ValueError, match="deadline"):
            job.retimed(0.0, 0.0)
