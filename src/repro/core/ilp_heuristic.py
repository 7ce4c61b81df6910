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

from typing import Callable, Sequence

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
        self._bandwidth = {n.node_id: n.bandwidth_capacity for n in cluster}

    def upward_rank(self, jobs: Sequence[Job]) -> dict[str, float]:
        """Dependency-aware list rank: estimated execution time plus the
        longest downstream chain (the classic upward rank).

        A task scores by how much critical work its completion unlocks, so
        tasks gating long dependent chains run first — §III's "executing
        T6 first enables more dependent tasks to start" as a scalar.
        """
        rank: dict[str, float] = {}
        for job in jobs:
            children = job.children
            for tid in reversed(job.topo_order):
                est = job.tasks[tid].size_mi / self._mean_rate
                rank[tid] = est + max((rank[c] for c in children[tid]), default=0.0)
        return rank

    def order_keys(self, jobs: Sequence[Job]) -> dict[str, float]:
        """Highest upward rank first (ties on task id)."""
        return {tid: -r for tid, r in self.upward_rank(jobs).items()}

    def duration_of(self, task: Task) -> Callable[[str], float]:
        """Execution time, plus the input transfer of an off-location node
        when locality-aware."""
        if self.locality_aware and task.input_mb > 0:
            rates, bandwidth = self._rates, self._bandwidth
            return lambda n: task.size_mi / rates[n] + task.transfer_time(n, bandwidth[n])
        return super().duration_of(task)
