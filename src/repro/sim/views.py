"""NodeView snapshots for the policies that decide over them.

The baselines (Natjam, Amoeba, SRPT) and custom policies decide over
one :class:`~repro.sim.policy.NodeView` per contended node per epoch
tick.  :class:`ViewCache` builds it without keeping any state between
calls: the running set in sorted order, then the queue head
(:data:`VIEW_QUEUE_LIMIT` tasks), with every time-varying signal taken
from one :meth:`~repro.sim.arraycore.ArrayCore.view_signals` call over
the array mirror — the scalar formulas of
:class:`~repro.sim.executor.TaskRuntime` bit for bit (same float ops in
the same order — see the array-core module docstring) — and the static
attributes read from the live :class:`~repro.sim.state.SimState`.  DSP
visits nodes in the same order under the same queue limit but never
builds a snapshot (:mod:`repro.core.preemption`).
"""

from __future__ import annotations

from .executor import NodeRuntime
from .policy import NodeView, TaskView
from .state import SimRuntime

__all__ = ["VIEW_QUEUE_LIMIT", "ViewCache"]

#: How many waiting tasks, from the queue head, a policy sees per node
#: per epoch.  Algorithm 1 only examines the first δ-fraction of a queue
#: plus urgent tasks near its head, so the bounded window keeps the epoch
#: cost independent of backlog length.
VIEW_QUEUE_LIMIT = 32


class ViewCache:
    """Builds per-node snapshots from the array mirror (stateless)."""

    def __init__(self, runtime: SimRuntime) -> None:
        self._rt = runtime

    def build(self, node: NodeRuntime, now: float) -> NodeView:
        """Snapshot *node* at *now* for the preemption policy."""
        rt = self._rt
        state = rt.state
        running = sorted(node.running)
        ids = running + node.queued_ids(VIEW_QUEUE_LIMIT)
        views: list[TaskView] = []
        if ids:
            (
                remaining,
                waiting,
                stint,
                overdue,
                allowable,
                runnable,
                occupies,
                preemptable,
            ) = rt.array.view_signals(
                rt.array.rows_of(ids), now, node.rate, rt.max_preemptions
            )
            for i, tid in enumerate(ids):
                job = state.jobs[state.job_of[tid]]
                views.append(
                    TaskView(
                        task_id=tid,
                        job_id=job.job_id,
                        remaining_time=remaining[i],
                        waiting_time=waiting[i],
                        stint_waiting_time=stint[i],
                        overdue_waiting_time=overdue[i],
                        allowable_wait=allowable[i],
                        is_runnable=runnable[i],
                        is_running=occupies[i],
                        is_preemptable=preemptable[i],
                        resource_footprint=state.static_tasks[tid].demand.norm1(),
                        job_weight=job.weight,
                        job_deadline=job.deadline,
                    )
                )
        split = len(running)
        return NodeView(
            node_id=node.node_id,
            now=now,
            epoch=rt.sim_config.epoch,
            running=tuple(views[:split]),
            waiting=tuple(views[split:]),
        )
