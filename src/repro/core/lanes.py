"""Shared lane-timeline model and list-scheduling loop of the offline planners.

Every offline planner in this repo needs the same approximation: "when
could node *k* start a task of demand *d*, given everything I have already
planned?"  :class:`LaneTimelines` answers it with a per-node set of lanes
sized from the workload's demand statistics:

* the number of lanes per node is ``floor(min over dims of
  capacity / mean-demand)`` — the node's realistic mean concurrency;
* a task whose dominant resource share is *s* occupies ``ceil(s · lanes)``
  lanes for its duration, so heavyweight tasks consume proportionally more
  planned capacity (a scalarized multi-resource packing).

Timelines persist across planning batches (one engine run = one planner
instance), so later scheduling rounds see the backlog of earlier ones and
planned start times stay honest — which the online phase's "overdue"
starvation test (Algorithm 1's τ) depends on.

:class:`LanePlanner` is the list scheduler §III relaxes the ILP into, run
over those timelines: tasks are placed one at a time in a priority order,
each as soon as its job has arrived and its parents are planned.  The
planners differ only in that order (:meth:`LanePlanner.order_keys`) and
in the placement rule (earliest finish or earliest start).
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Sequence

from ..cluster.cluster import Cluster
from ..config import DSPConfig
from ..dag.graph import batch_children
from ..dag.job import Job
from ..dag.task import Task
from .schedule import Schedule, TaskAssignment

__all__ = ["LanePlanner", "LaneTimelines", "demand_sized_lanes"]


def demand_sized_lanes(cluster: Cluster, jobs: Sequence[Job]) -> dict[str, int]:
    """Per-node lane counts from the batch's mean demand vector.

    Overestimating concurrency makes every plan optimistic and every queued
    task 'overdue' within minutes; this sizing keeps plans near reality.
    Returns at least one lane per node; with no tasks, one lane per CPU.
    """
    n = 0
    sums = [0.0, 0.0, 0.0, 0.0]
    for job in jobs:
        for task in job.tasks.values():
            for d, v in enumerate(task.demand.as_tuple()):
                sums[d] += v
            n += 1
    lanes: dict[str, int] = {}
    for node in cluster:
        if n == 0:
            lanes[node.node_id] = max(1, int(node.cpu_size))
            continue
        cap = node.capacity.as_tuple()
        per_dim = [cap[d] * n / sums[d] for d in range(4) if sums[d] > 1e-12]
        lanes[node.node_id] = max(1, int(min(per_dim))) if per_dim else 1
    return lanes


class LaneTimelines:
    """Persistent per-node lane availability for offline planning.

    Each node's lanes are a sorted list of the times they become free, so
    the k-th lane to free up is ``lanes[k - 1]`` and occupying k lanes is a
    slice delete plus one sorted insert.

    Placement works on node *classes*: nodes of one shape (capacity
    dimensions and lane count, so one lane count per demand) and one
    Eq. 1 rate.  The shape includes the bandwidth capacity, so a class
    also shares a located input's transfer time.  A task's duration is
    therefore the same on every node of a class, except on the node that
    holds its input; within a class the node that can start soonest
    also finishes soonest.

    Parameters
    ----------
    cluster:
        Nodes to track.
    lanes:
        Explicit per-node lane counts; ``None`` defers sizing to the first
        :meth:`ensure_sized` call (from batch demand statistics).
    """

    def __init__(self, cluster: Cluster, lanes: dict[str, int] | None = None):
        self._cluster = cluster
        # Per node, the dimensions with capacity, as (index, capacity):
        # the only ones a dominant share is taken over.
        self._dims = {
            n.node_id: tuple((d, c) for d, c in enumerate(n.capacity.as_tuple()) if c > 0)
            for n in cluster
        }
        self._fixed = dict(lanes) if lanes is not None else None
        self._free: dict[str, list[float]] | None = None
        self._classes: list[tuple] | None = None
        if self._fixed is not None:
            self._init_free({nid: [0.0] * count for nid, count in self._fixed.items()})

    def _init_free(self, free: dict[str, list[float]]) -> None:
        self.lanes = {nid: len(times) for nid, times in free.items()}
        self._free = free
        self._classes = None  # regrouped by the next ensure_sized

    def _group(self, rates: dict[str, float]) -> None:
        """Group the nodes into classes under *rates* (node id -> Eq. 1
        rate).  A class is (shape index, rate, bandwidth, rows), its rows
        (node id, lane list) in node-id order; ``_home`` maps a node id
        to (shape index, rate, lane list), for a located input's node."""
        shapes: dict[tuple, int] = {}
        classes: dict[tuple, tuple] = {}
        self._home = {}
        for node in sorted(self._cluster, key=lambda n: n.node_id):
            nid = node.node_id
            lanes = self._free[nid]
            shape = shapes.setdefault((self._dims[nid], len(lanes)), len(shapes))
            rate = rates[nid]
            cls = classes.setdefault(
                (shape, rate), (shape, rate, node.bandwidth_capacity, [])
            )
            cls[3].append((nid, lanes))
            self._home[nid] = (shape, rate, lanes)
        self._shapes = list(shapes)
        self._classes = list(classes.values())

    def reset(self) -> None:
        """Drop all planned occupancy (and lazy sizing, when applicable)."""
        if self._fixed is not None:
            self._init_free({nid: [0.0] * count for nid, count in self._fixed.items()})
        else:
            self._free = None

    # ------------------------------------------------------- snapshot state
    def snapshot_state(self) -> dict:
        """Serializable planned-occupancy state (run snapshot protocol).

        Only each node's multiset of lane free times is observable, and
        the sorted lists the planner keeps are its canonical form.
        """
        return {
            "fixed": dict(self._fixed) if self._fixed is not None else None,
            "lanes": dict(self.lanes) if self._free is not None else None,
            "free": (
                {nid: list(times) for nid, times in self._free.items()}
                if self._free is not None
                else None
            ),
        }

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self._fixed = dict(data["fixed"]) if data["fixed"] is not None else None
        if data["free"] is None:
            self._free = None
        else:
            self._init_free({nid: sorted(vals) for nid, vals in data["free"].items()})
            self.lanes = dict(data["lanes"])

    def ensure_sized(self, jobs: Sequence[Job], rates: dict[str, float]) -> None:
        """Size the lanes from *jobs* if not already sized, and group the
        nodes into classes under *rates* (node id -> Eq. 1 rate) if not
        already grouped."""
        if self._free is None:
            lanes = demand_sized_lanes(self._cluster, jobs)
            self._init_free({nid: [0.0] * count for nid, count in lanes.items()})
        if self._classes is None:
            self._group(rates)

    def lanes_needed(self, node_id: str, demand: tuple[float, float, float, float]) -> int:
        """Lanes a task of *demand* occupies on *node_id* (dominant share)."""
        assert self._free is not None, "call ensure_sized() first"
        return _lanes_needed(demand, self._dims[node_id], len(self._free[node_id]))

    def place_eft(
        self,
        demand: tuple[float, float, float, float],
        ready: float,
        size_mi: float,
        located: tuple[str, float] | None = None,
    ) -> tuple[str, float, float]:
        """Earliest-finish-time placement over all nodes.

        The task runs ``size_mi / rate`` seconds on a node, plus
        ``input_mb / bandwidth`` off its input's node when *located* is
        ``(input node id, input_mb)``.  Returns (node_id, start, end) and
        commits the occupancy; ties on finish go to the earlier start,
        then the smaller node id.
        """
        return self._place(demand, ready, size_mi, located, True)

    def place_earliest_start(
        self,
        demand: tuple[float, float, float, float],
        ready: float,
        size_mi: float,
        located: tuple[str, float] | None = None,
    ) -> tuple[str, float, float]:
        """Least-loaded placement: the node that can *start* soonest (ties
        by id), with durations as in :meth:`place_eft`.  Returns
        (node_id, start, end) and commits the occupancy."""
        return self._place(demand, ready, size_mi, located, False)

    def _place(self, demand, ready, size_mi, located, eft):
        assert self._classes is not None, "call ensure_sized() first"
        needed = [_lanes_needed(demand, dims, total) for dims, total in self._shapes]
        home, input_mb = located if located is not None else (None, 0.0)
        best = None
        for shape, rate, bandwidth, rows in self._classes:
            # The class's soonest start, ties by node id: the scan stops
            # at the first node free by *ready*, as none starts sooner.
            k = needed[shape]
            start, pick = math.inf, rows[0]
            for row in rows:
                free_at = row[1][k - 1]
                if free_at < start:
                    start, pick = free_at, row
                    if free_at <= ready:
                        break
            if ready > start:
                start = ready
            nid, lanes = pick
            duration = size_mi / rate
            if input_mb:
                # The input's own node is offered again below at its
                # local duration, never longer than this one.
                duration += input_mb / bandwidth
            if eft:
                end = start + duration
                if best is None or (end, start, nid) < best[:3]:
                    best = (end, start, nid, k, lanes)
            elif best is None or (start, nid) < best[1:3]:
                best = (start + duration, start, nid, k, lanes)
        if home in self._home:
            # The input's node at its local duration: an EFT candidate of
            # its own; for earliest start, only the end moves.
            shape, rate, lanes = self._home[home]
            k = needed[shape]
            start = lanes[k - 1]
            if ready > start:
                start = ready
            end = start + size_mi / rate
            if (end, start, home) < best[:3] if eft else best[2] == home:
                best = (end, start, home, k, lanes)
        end, start, nid, k, lanes = best
        _occupy(lanes, k, end)
        return nid, start, end


def _lanes_needed(demand, dims, total: int) -> int:
    """Lanes of *total* that *demand* occupies: its dominant share over the
    node's capacity dimensions *dims*, rounded up, clamped to [1, total]."""
    share = 0.0
    for d, cap in dims:
        s = demand[d] / cap
        if s > share:
            share = s
    return min(total, max(1, math.ceil(share * total)))


def _occupy(lanes: list[float], k: int, end: float) -> None:
    """Hand the *k* earliest-free lanes of a sorted lane list to a task
    ending at *end*, keeping the list sorted."""
    del lanes[:k]
    i = bisect.bisect_right(lanes, end)
    lanes[i:i] = [end] * k


class LanePlanner:
    """Priority-ordered list scheduling over persistent lane timelines.

    One call to :meth:`schedule` plans a batch: every task whose parents
    are all placed waits in a heap keyed by ``(order_keys(jobs)[tid],
    tid)``; the smallest is popped, becomes ready at its job's arrival or
    its parents' latest planned finish, and is placed on the timelines —
    earliest-finish-time when :attr:`eft` is set, else on the node that
    can start it soonest.  Subclasses supply :meth:`order_keys` and may
    override :meth:`located_input`.

    Parameters
    ----------
    cluster:
        Target nodes.
    config:
        Supplies the θ weights of the node rates (Eq. 1).
    """

    #: Plans honour precedence, so dispatch should too.
    respects_dependencies = True
    #: Placement rule: earliest finish (True) or earliest start (False).
    eft = True

    def __init__(self, cluster: Cluster, config: DSPConfig | None = None):
        self._cluster = cluster
        self._config = config or DSPConfig()
        # Eq. 1 rates; ``NodeSpec.processing_rate`` rejects a rate <= 0,
        # so durations below divide by them unchecked.
        self._rates = {
            n.node_id: n.processing_rate(self._config.theta_cpu, self._config.theta_mem)
            for n in cluster
        }
        self._mean_rate = sum(self._rates.values()) / len(self._rates)
        self._timelines = LaneTimelines(cluster)

    def reset(self) -> None:
        """Forget all previously planned batches (fresh lane timelines)."""
        self._timelines.reset()

    def snapshot_state(self) -> dict:
        """Cross-round planner state (run snapshot protocol): only the
        lane timelines accumulate between batches."""
        return {"timelines": self._timelines.snapshot_state()}

    def restore_state(self, data: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        self._timelines.restore_state(data["timelines"])

    def order_keys(self, jobs: Sequence[Job]) -> dict:
        """Per task id, its place in the ready heap (smaller pops first;
        ties break on the task id)."""
        raise NotImplementedError

    def located_input(self, task: Task) -> tuple[str, float] | None:
        """(input node id, input_mb) when placement prices *task*'s input
        transfer off that node, else ``None``: durations are then Eq. 2's
        ``l / g(k)`` alone."""
        return None

    def schedule(self, jobs: Sequence[Job]) -> Schedule:
        """Plan one batch onto the persistent timelines.

        Deterministic, and the plan always exists: deadlines are not
        enforced here (infeasible ones are the online phase's problem,
        per §III's adaptive-procedure discussion).
        """
        tasks: dict[str, Task] = {}
        release: dict[str, float] = {}
        for job in jobs:
            for tid, task in job.tasks.items():
                tasks[tid] = task
                release[tid] = job.arrival_time
        if not tasks:
            return Schedule({})

        timelines = self._timelines
        timelines.ensure_sized(jobs, self._rates)
        place = timelines.place_eft if self.eft else timelines.place_earliest_start
        located_input = self.located_input
        key = self.order_keys(jobs)
        children = batch_children(jobs)
        unplaced = {tid: len(task.parents) for tid, task in tasks.items()}
        heap = [(key[tid], tid) for tid, count in unplaced.items() if count == 0]
        heapq.heapify(heap)

        finish: dict[str, float] = {}
        assignments: dict[str, TaskAssignment] = {}
        heappop, heappush = heapq.heappop, heapq.heappush
        while heap:
            _, tid = heappop(heap)
            task = tasks[tid]
            ready = release[tid]
            for p in task.parents:
                if finish[p] > ready:
                    ready = finish[p]
            nid, start, end = place(
                task.demand.as_tuple(), ready, task.size_mi, located_input(task)
            )
            finish[tid] = end
            assignments[tid] = TaskAssignment(tid, nid, start, end)
            for child in children[tid]:
                unplaced[child] -= 1
                if unplaced[child] == 0:
                    heappush(heap, (key[child], child))
        return Schedule(assignments)
