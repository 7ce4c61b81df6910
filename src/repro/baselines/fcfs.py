"""FCFS placement — the no-intelligence scheduler.

§III closes with: "if the high time overhead of the offline method is a
concern for a data-parallel cluster, then it can only run the online
dependency-aware preemption method to achieve high throughput."  To make
that mode runnable we need a deliberately naive offline stage: first-come
first-served over arrival order, tasks in topological order within a job,
placed on whichever node can start soonest.  Pairing this with
:class:`~repro.core.preemption.DSPPreemption` yields the paper's
online-only configuration; pairing it with no preemption gives the floor
both DSP phases are measured against (``benchmarks/bench_modes.py``).

On the shared :class:`~repro.core.lanes.LanePlanner` loop it contributes
the order key ``(job position by (arrival, id), topological index)`` —
Aalo's key with every job in one queue — and earliest-start placement.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.lanes import LanePlanner
from ..dag.job import Job

__all__ = ["FCFSScheduler", "arrival_keys"]


def arrival_keys(
    jobs: Sequence[Job], queue_of: Callable[[Job], int]
) -> dict[str, tuple[int, int, int]]:
    """``(queue_of(job), job position by (arrival, id), topological
    index)`` per task id: jobs served in queue-then-arrival order, each
    job's tasks in its topological order."""
    keys: dict[str, tuple[int, int, int]] = {}
    ordered = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
    for position, job in enumerate(ordered):
        queue = queue_of(job)
        for index, tid in enumerate(job.topo_order):
            keys[tid] = (queue, position, index)
    return keys


class FCFSScheduler(LanePlanner):
    """Arrival-ordered, earliest-start placement with no look-ahead."""

    name = "FCFS"
    eft = False

    def order_keys(self, jobs: Sequence[Job]) -> dict[str, tuple[int, int, int]]:
        """Jobs strictly in arrival order (ties by id), tasks in
        topological order — no rank, no packing objective."""
        return arrival_keys(jobs, lambda job: 0)
