"""Factory helpers shared across test modules."""

from __future__ import annotations

from repro.cluster import ResourceVector
from repro.dag import Task
from repro.sim.views import NodeSignals


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


def task_signals(
    task_id: str,
    *,
    remaining: float = 10.0,
    waiting: float = 0.0,
    preemptable: bool = True,
    footprint: float = 1.0,
    weight: float = 0.0,
    deadline: float = 1000.0,
) -> dict:
    """One task's claim-loop signals, with sane defaults, for
    :func:`make_signals`."""
    return dict(
        task_id=task_id,
        remaining=remaining,
        waiting=waiting,
        preemptable=preemptable,
        footprint=footprint,
        weight=weight,
        deadline=deadline,
    )


def make_signals(running: list[dict], waiting: list[dict]) -> NodeSignals:
    """NodeSignals factory for policy unit tests: *running* and *waiting*
    are :func:`task_signals` dicts, *waiting* in queue order."""
    tasks = running + waiting

    def column(name):
        return [t[name] for t in tasks]

    return NodeSignals(
        ids=tuple(column("task_id")),
        split=len(running),
        remaining=column("remaining"),
        waiting=column("waiting"),
        preemptable=column("preemptable"),
        footprint=column("footprint"),
        weight=column("weight"),
        deadline=column("deadline"),
    )
