"""Tetris multi-resource packing scheduler [Grandl et al., SIGCOMM'14].

Tetris packs tasks onto machines by an *alignment score* — the dot product
between a task's peak resource-demand vector and the machine's free
resource vector — always dispatching the feasible task with the highest
score.  The paper compares against two variants (§V):

* **TetrisW/oDep** — packing with no dependency consideration at all: any
  unscheduled task is a packing candidate regardless of its parents.  In
  execution this means dependents can be dispatched before their parents
  finish (disorders, wasted capacity).
* **TetrisW/SimDep** — "simple dependency" packing: a task becomes a
  candidate only once all its parents' planned executions have finished,
  i.e. precedent tasks complete before their dependent tasks start — but
  with no look-ahead over how many dependents a task unlocks (the gap DSP
  exploits).

Planning runs an event-driven timeline: at each plan time the scheduler
greedily packs the highest-alignment eligible task that fits some node;
when nothing fits, time advances to the next planned task completion and
its capacity is reclaimed.  Scores are computed vectorized (numpy) since
this is the planner's hot loop.

The timeline state (free capacity, in-flight planned tasks, plan clock)
persists across :meth:`schedule` calls, so a later scheduling round's
start times account for the backlog of earlier batches.  One engine run =
one scheduler instance; :meth:`reset` clears the state, and
:meth:`snapshot_state`/:meth:`restore_state` carry it across a run
snapshot.  Tetris shares nothing with the lane planners' list-scheduling
loop, so it keeps its own packer.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..config import DSPConfig
from ..core.schedule import Schedule, TaskAssignment
from ..dag.graph import batch_children
from ..dag.job import Job
from ..dag.task import Task

__all__ = ["TetrisScheduler"]


class TetrisScheduler:
    """Alignment-score packing, with or without simple dependency gating.

    Parameters
    ----------
    cluster, config:
        Hardware and θ weights (node rates via Eq. 1).
    simdep:
        True = TetrisW/SimDep (parents finish before children start);
        False = TetrisW/oDep (dependencies ignored when planning).
    """

    def __init__(
        self,
        cluster: Cluster,
        config: DSPConfig | None = None,
        simdep: bool = False,
    ):
        self._cluster = cluster
        self._config = config or DSPConfig()
        self.simdep = simdep
        self.name = "TetrisW/SimDep" if simdep else "TetrisW/oDep"
        self._rates = {
            n.node_id: n.processing_rate(self._config.theta_cpu, self._config.theta_mem)
            for n in cluster
        }
        self.reset()

    def reset(self) -> None:
        """Clear the persistent timeline (fresh capacity everywhere)."""
        self._free: dict[str, np.ndarray] = {
            n.node_id: np.array(n.capacity.as_tuple()) for n in self._cluster
        }
        # In-flight planned executions: (finish, seq, node_id, demand).
        self._finish_heap: list[tuple[float, int, str, np.ndarray]] = []
        self._now: float = 0.0
        self._next_seq = 0

    def snapshot_state(self) -> dict:
        """Cross-round planner state (run snapshot protocol): free
        capacity, the in-flight heap, the plan clock and the next heap
        sequence number.  ``tolist`` keeps each vector's dtype through
        JSON, so a resumed plan is bit-identical."""
        return {
            "free": {nid: vec.tolist() for nid, vec in self._free.items()},
            "in_flight": [
                [end, seq, nid, demand.tolist()]
                for end, seq, nid, demand in self._finish_heap
            ],
            "now": self._now,
            "next_seq": self._next_seq,
        }

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state` (the heap keeps its order)."""
        self._free = {nid: np.array(vec) for nid, vec in data["free"].items()}
        self._finish_heap = [
            (end, seq, nid, np.array(demand))
            for end, seq, nid, demand in data["in_flight"]
        ]
        self._now = data["now"]
        self._next_seq = data["next_seq"]

    @property
    def respects_dependencies(self) -> bool:
        """SimDep plans (and should be dispatched) dependency-aware;
        W/oDep does not."""
        return self.simdep

    def _reclaim_until(self, t: float) -> None:
        """Return capacity of planned executions finishing by time *t*."""
        while self._finish_heap and self._finish_heap[0][0] <= t + 1e-12:
            _, _, node_id, demand = heapq.heappop(self._finish_heap)
            self._free[node_id] = self._free[node_id] + demand

    def schedule(self, jobs: Sequence[Job]) -> Schedule:
        """Pack one batch onto the (persistent) cluster timeline."""
        tasks: list[Task] = []
        release: dict[str, float] = {}
        for job in jobs:
            for tid, task in job.tasks.items():
                tasks.append(task)
                release[tid] = job.arrival_time
        if not tasks:
            return Schedule({})

        T = len(tasks)
        index = {t.task_id: i for i, t in enumerate(tasks)}
        demands = np.array([t.demand.as_tuple() for t in tasks])  # (T, 4)
        releases = np.array([release[t.task_id] for t in tasks])
        unscheduled = np.ones(T, dtype=bool)

        # Dependency gating state (SimDep only): a task is gated until all
        # parents are planned AND the plan time reaches their max finish.
        unplanned_parents = np.array([len(t.parents) for t in tasks])
        parents_finish = np.zeros(T)  # max planned finish over parents
        children = batch_children(jobs)

        assignments: dict[str, TaskAssignment] = {}
        now = max(self._now, float(releases.min()))
        self._reclaim_until(now)
        remaining = T
        while remaining > 0:
            packed_any = True
            while packed_any:
                packed_any = False
                eligible = unscheduled & (releases <= now + 1e-12)
                if self.simdep:
                    eligible &= (unplanned_parents == 0) & (parents_finish <= now + 1e-12)
                if not eligible.any():
                    break
                for node in self._cluster:
                    cap = self._free[node.node_id]
                    fits = eligible & np.all(demands <= cap + 1e-12, axis=1)
                    if not fits.any():
                        continue
                    scores = demands @ cap  # alignment: demand · free
                    scores[~fits] = -np.inf
                    i = int(np.argmax(scores))
                    task = tasks[i]
                    exec_time = task.execution_time(self._rates[node.node_id])
                    end = now + exec_time
                    assignments[task.task_id] = TaskAssignment(
                        task_id=task.task_id,
                        node_id=node.node_id,
                        start=now,
                        finish=end,
                    )
                    self._free[node.node_id] = cap - demands[i]
                    heapq.heappush(
                        self._finish_heap, (end, self._next_seq, node.node_id, demands[i])
                    )
                    self._next_seq += 1
                    unscheduled[i] = False
                    remaining -= 1
                    for child_id in children[task.task_id]:
                        c = index[child_id]
                        unplanned_parents[c] -= 1
                        parents_finish[c] = max(parents_finish[c], end)
                    packed_any = True
                    break  # re-evaluate eligibility/fit from the first node
            if remaining == 0:
                break
            # Advance time: next completion, or next release/parent-finish
            # gate when everything in flight is done.
            candidates: list[float] = []
            if self._finish_heap:
                candidates.append(self._finish_heap[0][0])
            future_releases = releases[unscheduled & (releases > now + 1e-12)]
            if future_releases.size:
                candidates.append(float(future_releases.min()))
            if self.simdep:
                gate = parents_finish[unscheduled & (unplanned_parents == 0)]
                gate = gate[gate > now + 1e-12]
                if gate.size:
                    candidates.append(float(gate.min()))
            if not candidates:
                stuck = [tasks[i].task_id for i in np.nonzero(unscheduled)[0][:3]]
                raise RuntimeError(
                    f"Tetris packing stuck with {remaining} tasks (first: {stuck}); "
                    "a task demand may exceed every node's capacity"
                )
            now = min(candidates)
            self._reclaim_until(now)
        self._now = now
        return Schedule(assignments)
