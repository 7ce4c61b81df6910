"""Dependency-aware list scheduling — the scalable relaxation of §III.

The exact ILP is NP-complete and tractable only for toy instances; the
paper itself relaxes and rounds for practical use.  This module is that
practical path: a deterministic list scheduler that keeps the ILP's
*objective ordering* —

1. tasks are ranked by *upward rank* — estimated execution time plus the
   longest downstream chain — so tasks whose completion unlocks the most
   critical downstream work are placed first.  This is the makespan
   ordering the rounded relaxation induces and the scalar form of §III's
   argument that running tasks with more dependents first raises
   throughput;
2. each task is placed earliest-finish-time over all nodes by the shared
   :class:`~repro.core.lanes.LanePlanner` loop on the
   :class:`~repro.core.lanes.LaneTimelines` model (demand-proportional
   lane occupancy, persistent across scheduling rounds), respecting
   precedence (a task never starts before its parents' planned finishes)
   and release times.

The output is the same `[start, node]` plan the ILP emits, so downstream
components (queues, preemption, the simulator) are agnostic to which
scheduler produced it.
"""

from __future__ import annotations

from typing import Sequence

from ..cluster.cluster import Cluster
from ..config import DSPConfig
from ..dag.job import Job
from ..dag.task import Task
from .lanes import LanePlanner

__all__ = ["HeuristicScheduler"]


class HeuristicScheduler(LanePlanner):
    """Upward-rank-ordered EFT list scheduler over lane timelines.

    Parameters
    ----------
    cluster:
        Target nodes.
    config:
        Supplies θ weights (node rates).
    locality_aware:
        When True (default), the EFT objective includes the input-transfer
        delay of off-location placement (§VI locality extension), pulling
        input-bearing tasks toward their data.  Tasks without inputs are
        unaffected either way.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: DSPConfig | None = None,
        locality_aware: bool = True,
    ):
        super().__init__(cluster, config)
        self.locality_aware = locality_aware

    def upward_rank(self, jobs: Sequence[Job]) -> dict[str, float]:
        """Dependency-aware list rank: estimated execution time plus the
        longest downstream chain (the classic upward rank).

        A task scores by how much critical work its completion unlocks, so
        tasks gating long dependent chains run first — §III's "executing
        T6 first enables more dependent tasks to start" as a scalar.
        """
        rank: dict[str, float] = {}
        mean_rate = self._mean_rate
        for job in jobs:
            children = job.children
            tasks = job.tasks
            for tid in reversed(job.topo_order):
                longest = 0.0
                for child in children[tid]:
                    if rank[child] > longest:
                        longest = rank[child]
                rank[tid] = tasks[tid].size_mi / mean_rate + longest
        return rank

    def order_keys(self, jobs: Sequence[Job]) -> dict[str, float]:
        """Highest upward rank first (ties on task id)."""
        return {tid: -r for tid, r in self.upward_rank(jobs).items()}

    def located_input(self, task: Task) -> tuple[str, float] | None:
        """When locality-aware, a located input's node and size: placement
        adds the input transfer on every other node."""
        if self.locality_aware and task.input_mb > 0 and task.input_location is not None:
            return task.input_location, task.input_mb
        return None
