"""Factory helpers shared across test modules."""

from __future__ import annotations

from repro.cluster import ResourceVector
from repro.dag import Task
from repro.sim.policy import NodeView, TaskView


def make_task(
    task_id: str = "J1.T0",
    job_id: str = "J1",
    size_mi: float = 1000.0,
    cpu: float = 1.0,
    mem: float = 0.5,
    parents: tuple[str, ...] = (),
) -> Task:
    """Terse Task factory for tests."""
    return Task(
        task_id=task_id,
        job_id=job_id,
        size_mi=size_mi,
        demand=ResourceVector(cpu=cpu, mem=mem, disk=0.02, bandwidth=0.02),
        parents=parents,
    )


def make_view(
    task_id: str,
    *,
    job_id: str = "J",
    remaining: float = 10.0,
    waiting: float = 0.0,
    stint_waiting: float = 0.0,
    overdue_waiting: float = 0.0,
    allowable: float = 100.0,
    runnable: bool = True,
    running: bool = False,
    preemptable: bool = True,
    footprint: float = 1.0,
    weight: float = 0.0,
    deadline: float = 1000.0,
) -> TaskView:
    """TaskView factory with sane defaults for policy unit tests."""
    return TaskView(
        task_id=task_id,
        job_id=job_id,
        remaining_time=remaining,
        waiting_time=waiting,
        stint_waiting_time=stint_waiting,
        overdue_waiting_time=overdue_waiting,
        allowable_wait=allowable,
        is_runnable=runnable,
        is_running=running,
        is_preemptable=preemptable,
        resource_footprint=footprint,
        job_weight=weight,
        job_deadline=deadline,
    )


def make_node_view(
    running: list[TaskView],
    waiting: list[TaskView],
    *,
    node_id: str = "node-00",
    now: float = 100.0,
    epoch: float = 5.0,
) -> NodeView:
    """NodeView factory for policy unit tests."""
    return NodeView(
        node_id=node_id, now=now, epoch=epoch,
        running=tuple(running), waiting=tuple(waiting),
    )
