"""Pure-JSON (de)serialization of the static workload model.

Snapshots of *streaming* runs must carry their live jobs: a batch run's
restore target is reconstructed from the original workload arguments, but
a streaming run's workload arrived incrementally through
``submit_job`` — by the time it crashes, the set of *live* (admitted,
not-yet-retired) jobs exists nowhere but inside the engine.  This module
round-trips :class:`~repro.dag.job.Job` /
:class:`~repro.dag.task.Task` through plain dicts (``json.dumps``-safe,
no pickle) so snapshots can embed them and the memory watchdog can spill
shed jobs to disk for later resubmission.

Order is part of the contract: tasks serialize in the job's insertion
order and jobs must be resubmitted in the listed order — the array
core's child lists replicate insertion-order construction bit-for-bit
(see :mod:`repro.sim.arraycore`), so a reordered rebuild would change
float summation order.
"""

from __future__ import annotations

from ..cluster.resources import ResourceVector
from .job import Job
from .task import Task

__all__ = ["task_to_dict", "task_from_dict", "job_to_dict", "job_from_dict"]


def task_to_dict(task: Task) -> dict:
    """One static task as a plain dict."""
    return {
        "task_id": task.task_id,
        "job_id": task.job_id,
        "size_mi": task.size_mi,
        "demand": [
            task.demand.cpu,
            task.demand.mem,
            task.demand.disk,
            task.demand.bandwidth,
        ],
        "parents": list(task.parents),
        "input_mb": task.input_mb,
        "input_location": task.input_location,
    }


def task_from_dict(data: dict) -> Task:
    """Inverse of :func:`task_to_dict` (validation re-runs in ``Task``)."""
    return Task(
        task_id=data["task_id"],
        job_id=data["job_id"],
        size_mi=data["size_mi"],
        demand=ResourceVector(*data["demand"]),
        parents=tuple(data["parents"]),
        input_mb=data.get("input_mb", 0.0),
        input_location=data.get("input_location"),
    )


def job_to_dict(job: Job) -> dict:
    """One job as a plain dict, tasks in insertion order."""
    return {
        "job_id": job.job_id,
        "deadline": job.deadline,
        "arrival_time": job.arrival_time,
        "weight": job.weight,
        "tasks": [task_to_dict(t) for t in job.tasks.values()],
    }


def job_from_dict(data: dict) -> Job:
    """Inverse of :func:`job_to_dict` (DAG validation re-runs in ``Job``)."""
    return Job(
        job_id=data["job_id"],
        tasks={t["task_id"]: task_from_dict(t) for t in data["tasks"]},
        deadline=data["deadline"],
        arrival_time=data["arrival_time"],
        weight=data.get("weight", 0.0),
    )
