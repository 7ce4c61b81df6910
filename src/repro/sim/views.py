"""Incremental NodeView/TaskView snapshot building.

Every epoch tick the preemption executor snapshots each contended node
for the policy.  The snapshot has two kinds of content:

* **time-varying signals** (remaining/waiting/allowable times) — cheap
  arithmetic that *must* be recomputed every tick because policy
  decisions depend on the current clock;
* **structural content** — each task's static footprint/job attributes
  and its ``depends_on_running`` set (ancestors within the node's running
  pool, condition C2).  The old engine re-derived these per task per
  tick; at fig-8 scale the ancestor intersections dominate the epoch
  hot path.

:class:`ViewCache` memoizes the structural content and rebuilds it only
for *dirty* nodes — nodes whose running-set membership changed since the
last build.  The per-node entry carries everything membership determines:
the frozen running pool, the lazily-filled ``ancestors ∩ pool``
dependency map, and the sorted snapshot order of the running set, so a
clean node's epoch cost is pure signal arithmetic (no sorting, no set
intersections).  Dirtiness is tracked by subscribing to the event bus
(the same seam metrics and tracing use), so the cache never needs hooks
inside the dispatch/preemption code paths.  Ancestor closures themselves
are memoized once at init in :class:`~repro.sim.state.SimState` and
shared with every other consumer (C2 checks, the resilience layer's
dispatch ranking, policy contexts).

The per-task signal arithmetic runs off the runtime objects entirely:
the cache asks the :class:`~repro.sim.arraycore.ArrayCore` mirror for
every signal of a node's tasks in one vectorized shot and only assembles
the ``TaskView`` objects here.  The values are the scalar formulas of
:class:`~repro.sim.executor.TaskRuntime` bit for bit (same float ops in
the same order — see the array-core module docstring).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .kernel import (
    EventBus,
    TaskAttemptFailed,
    TaskDrainMigrated,
    TaskFinished,
    TaskPreempted,
    TaskStallEvicted,
    TaskStalled,
    TaskStarted,
    TaskSuspended,
)
from .executor import NodeRuntime
from .policy import NodeView, TaskView
from .state import SimState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .arraycore import ArrayCore

__all__ = ["ViewCache"]

#: Bus events after which a node's running-set membership may differ.
_MEMBERSHIP_EVENTS = (
    TaskStarted,
    TaskStalled,
    TaskFinished,
    TaskPreempted,
    TaskStallEvicted,
    TaskSuspended,
    TaskAttemptFailed,
    TaskDrainMigrated,
)


class ViewCache:
    """Builds per-node snapshots, reusing structural state across epochs."""

    def __init__(
        self,
        state: SimState,
        *,
        epoch: float,
        queue_limit: int,
        max_preemptions: int,
        core: "ArrayCore",
    ) -> None:
        self._state = state
        self._epoch = epoch
        self._queue_limit = queue_limit
        self._max_preemptions = max_preemptions
        self._core = core
        # node_id -> (running pool at build time,
        #             task_id -> ancestors ∩ pool (lazily filled),
        #             sorted running order at build time)
        self._deps: dict[
            str, tuple[frozenset[str], dict[str, frozenset[str]], list[str]]
        ] = {}
        self._dirty: set[str] = set()
        # Static per-task attributes, computed once.
        self._static: dict[str, tuple[float, float, float]] = {}
        for tid, task in state.static_tasks.items():
            job = state.jobs[task.job_id]
            self._static[tid] = (task.demand.norm1(), job.weight, job.deadline)
        self.rebuilds = 0  # dirty-node structural rebuilds (observability)

    def register_job(self, job) -> None:
        """Add the static attributes of a streaming-admitted job's tasks
        (mirrors the constructor's precomputation)."""
        for tid, task in job.tasks.items():
            self._static[tid] = (task.demand.norm1(), job.weight, job.deadline)

    def retire_tasks(self, task_ids) -> None:
        """Drop retired tasks' static attributes (the inverse of
        :meth:`register_job`).  The per-node dependency maps need no
        sweep: a completed task left every running pool, which marked its
        node dirty, and dirty nodes rebuild their entries from scratch."""
        for tid in task_ids:
            self._static.pop(tid, None)

    def attach(self, bus: EventBus) -> None:
        """Subscribe the dirty-tracking to membership-changing events."""
        bus.subscribe(_MEMBERSHIP_EVENTS, self._on_membership_event)

    def _on_membership_event(self, event) -> None:
        self._dirty.add(event.node_id)

    def mark_dirty(self, node_id: str) -> None:
        """Invalidate a node whose running set changed outside the event
        taxonomy (e.g. a speculative-win teardown on the loser's node)."""
        self._dirty.add(node_id)

    def drop_node(self, node_id: str) -> None:
        """Forget a decommissioned node's structural entry entirely (the
        elastic subsystem calls this when the node leaves the state)."""
        self._deps.pop(node_id, None)
        self._dirty.discard(node_id)

    # ------------------------------------------------------------- building
    def _node_entry(
        self, node: NodeRuntime
    ) -> tuple[frozenset[str], dict[str, frozenset[str]], list[str]]:
        """The structural entry for *node* — (frozen running pool,
        lazily-filled dependency map, sorted running order) — rebuilt only
        when the node is dirty."""
        nid = node.node_id
        entry = self._deps.get(nid)
        if entry is None or nid in self._dirty:
            self._dirty.discard(nid)
            self.rebuilds += 1
            entry = (frozenset(node.running), {}, sorted(node.running))
            self._deps[nid] = entry
        return entry

    def _depends_on_running(
        self,
        task_id: str,
        deps: dict[str, frozenset[str]],
        pool: frozenset[str],
    ) -> frozenset[str]:
        got = deps.get(task_id)
        if got is None:
            got = deps[task_id] = frozenset(self._state.ancestors[task_id] & pool)
        return got

    def node_order(self, node: NodeRuntime) -> tuple[list[str], list[str]]:
        """The snapshot ordering — (sorted running order from the
        structural cache, queue head under the view queue limit) —
        without materializing any ``TaskView``.  :meth:`build` and the
        array-adopted policies' column scans both take their visit order
        (and the dirty-tracking bookkeeping) from here, so the two
        cannot drift apart."""
        _pool, _deps, ordered = self._node_entry(node)
        return ordered, node.queued_ids(self._queue_limit)

    def build(self, node: NodeRuntime, now: float) -> NodeView:
        """Snapshot *node* at *now* for the preemption policy."""
        ordered, queued = self.node_order(node)
        pool, deps, _ordered = self._deps[node.node_id]
        running, waiting = self._views_from_core(
            node, now, ordered, queued, deps, pool
        )
        return NodeView(
            node_id=node.node_id,
            now=now,
            epoch=self._epoch,
            running=running,
            waiting=waiting,
        )

    def _views_from_core(
        self,
        node: NodeRuntime,
        now: float,
        ordered: list[str],
        queued: list[str],
        deps: dict[str, frozenset[str]],
        pool: frozenset[str],
    ) -> tuple[tuple[TaskView, ...], tuple[TaskView, ...]]:
        """Assemble both view tuples from one vectorized signal pass over
        the array mirror."""
        core = self._core
        ids = ordered + queued
        if not ids:
            return (), ()
        rows = [core._row_of[tid] for tid in ids]
        (
            remaining,
            waiting_t,
            stint,
            overdue,
            allowable,
            runnable,
            occupies,
            preemptable,
        ) = core.view_signals(rows, now, node.rate, self._max_preemptions)
        static = self._static
        job_of = self._state.job_of
        views = [
            TaskView(
                task_id=tid,
                job_id=job_of[tid],
                remaining_time=remaining[i],
                waiting_time=waiting_t[i],
                stint_waiting_time=stint[i],
                overdue_waiting_time=overdue[i],
                allowable_wait=allowable[i],
                is_runnable=runnable[i],
                is_running=occupies[i],
                is_preemptable=preemptable[i],
                resource_footprint=static[tid][0],
                job_weight=static[tid][1],
                job_deadline=static[tid][2],
                depends_on_running=self._depends_on_running(tid, deps, pool),
            )
            for i, tid in enumerate(ids)
        ]
        split = len(ordered)
        return tuple(views[:split]), tuple(views[split:])
