"""Preemption execution subsystem: the epoch tick, decision validation,
suspend/resume and recovery-cost charging.

Policies *decide*; this module *applies*.  Every epoch tick (§IV-B) it
kicks timed-out stalls (the §IV-A deadlock breaker), lets epoch-driven
subscribers act (the bus ``EpochTick``), asks the policy to decide for
each contended node
(:meth:`~repro.sim.policy.PreemptionPolicy.select_preemptions_from_core`)
and validates its (preempting, victim) pairs against live state before
applying them — so policies may be optimistic.  It also owns the engine's two
safety rails: the per-task preemption cap (starvation guard) and the
deadlock detector.

A tick pays only where it can act.  The stall sweep returns at once
while the array core holds no STALLED row (always, under
dependency-aware dispatch); the node sweep skips unreachable nodes and
nodes with nothing queued or nothing running; and DSP returns no
decision, unscored, for a node whose visited queue head holds no
runnable task
(:meth:`~repro.sim.arraycore.ArrayCore.runnable_through`).  Each skip is
exact: it drops only work that could not produce a decision.
"""

from __future__ import annotations

from .._util import EPS
from ..dag.task import TaskState
from .checkpoint import retained_work_mi
from .events import EventKind
from .executor import NodeRuntime, TaskRuntime
from .kernel import (
    EpochTick,
    SimulationStuck,
    TaskDrainMigrated,
    TaskPreempted,
    TaskStallEvicted,
    TaskSuspended,
)
from .policy import PreemptionDecision
from .state import SimRuntime

__all__ = ["PreemptionExecutor"]


class PreemptionExecutor:
    """Applies the online-preemption layer at every epoch boundary."""

    def __init__(self, runtime: SimRuntime) -> None:
        self._rt = runtime

    # ------------------------------------------------------------ epoch tick
    def on_epoch(self, _payload: object = None) -> None:
        rt = self._rt
        state = rt.state
        state.epoch_scheduled = False
        if state.all_done():
            return
        state.dispatched_this_tick = False
        self._evict_timed_out_stalls()
        rt.bus.emit(EpochTick(rt.now))
        if not rt.policy.is_noop:
            for node_id in sorted(state.nodes):
                node = state.nodes[node_id]
                if not node.available or node.queue_length == 0:
                    continue  # unreachable or nothing waiting => nothing to do
                if not node.running:
                    # No occupant => no valid victim: apply() would reject
                    # every pair, so skip the decision entirely (free
                    # capacity is the dispatcher's job below).
                    continue
                for decision in rt.policy.select_preemptions_from_core(rt, node):
                    self.apply(decision, node)
        for node in state.nodes.values():
            rt.dispatch.dispatch(node)
        self._check_progress()
        self.ensure_tick()

    def ensure_tick(self) -> None:
        """Arm the next epoch tick unless one is already pending."""
        rt = self._rt
        if not rt.state.epoch_scheduled and not rt.state.all_done():
            rt.kernel.schedule(
                rt.now + rt.sim_config.epoch, EventKind.EPOCH_TICK, None
            )
            rt.state.epoch_scheduled = True

    # ------------------------------------------------------------ preemption
    def apply(self, decision: PreemptionDecision, node: NodeRuntime) -> None:
        """Validate and apply one (preempting, victim) pair on *node*."""
        rt = self._rt
        state = rt.state
        pre = state.tasks.get(decision.preempting_task_id)
        vic = state.tasks.get(decision.victim_task_id)
        if pre is None or vic is None:
            return
        if pre.state is not TaskState.QUEUED or pre.node_id != node.node_id:
            return
        if rt.now + EPS < pre.retry_not_before:
            return  # retry still serving its backoff
        if any(gate(node.node_id) for gate in state.dispatch_gates):
            return  # gated nodes (e.g. quarantined) receive no new dispatches
        if not vic.occupies_resources or vic.node_id != node.node_id:
            return
        if vic.preempt_count >= rt.max_preemptions:
            return
        if not pre.is_runnable and (rt.dependency_aware or pre.stall_banned):
            return  # would only stall; aware policies never ask for this
        freed = node.free + vic.task.demand
        if not pre.task.demand.fits_within(freed):
            return
        self.suspend(vic, node, by=pre.task.task_id)
        rt.dispatch.start_task(pre, node)

    def suspend(
        self,
        task: TaskRuntime,
        node: NodeRuntime,
        *,
        cause: str = "preemption",
        by: str | None = None,
    ) -> None:
        """Evict a running/stalled task back to the queue.

        ``cause`` selects the accounting: ``"preemption"`` (a policy
        decision — counts toward Fig. 6d and the preemption cap),
        ``"stall"`` (the engine kicked a timed-out stalled task — counted
        separately, bans the task from blind re-dispatch), ``"failure"``
        (node fault — no context-switch charge; the reassignment counter
        covers it) or ``"drain"`` (elastic scale-down vacating the node —
        checkpoint-retaining like a preemption, but it neither counts
        toward the preemption cap nor into fault-loss accounting).  ``by``
        names the preempting task on ``"preemption"`` suspends so auditors
        (the invariant checker's C2 rule) can see who evicted whom.
        """
        rt = self._rt
        now = rt.now
        lost = 0.0
        if task.state is TaskState.RUNNING:
            progressed = task.progress_seconds(now) * node.rate
            accrued = min(task.task.size_mi, task.work_done_mi + progressed)
            if not rt.policy.uses_checkpointing:
                task.work_done_mi = 0.0  # no checkpoint: restart from scratch
            else:
                # Resume from the most recent checkpoint ([29]): with the
                # default interval of 0 this retains everything.
                task.work_done_mi = retained_work_mi(
                    accrued, node.rate, rt.dsp_config.checkpoint_interval
                )
            lost = accrued - task.work_done_mi
            task.finish_version += 1  # invalidate the in-flight finish event
            task.run_start = None
            task.stint_started_at = None
            task.current_recovery = 0.0
        elif task.state is TaskState.STALLED:
            rt.dispatch.end_stall(task)
        node.running.discard(task.task.task_id)
        node.release(task.task.demand)
        task.state = TaskState.QUEUED
        task.queued_since = now
        task.recovery_due = rt.dsp_config.recovery_time + rt.dsp_config.sigma
        node.enqueue(task.task.task_id, task.planned_start)
        cost = rt.dsp_config.recovery_time + rt.dsp_config.sigma
        if cause == "stall":
            task.stall_banned = True
            rt.bus.emit(
                TaskStallEvicted(now, task.task.task_id, node.node_id, cost)
            )
        elif cause == "failure":
            rt.bus.emit(
                TaskSuspended(now, task.task.task_id, node.node_id, lost)
            )
        elif cause == "drain":
            rt.bus.emit(
                TaskDrainMigrated(now, task.task.task_id, node.node_id, lost)
            )
        else:
            task.preempt_count += 1
            rt.bus.emit(
                TaskPreempted(
                    now, task.task.task_id, node.node_id, cost, lost, by or ""
                )
            )

    def _evict_timed_out_stalls(self) -> None:
        """Kick stalled tasks whose stall exceeded the timeout, freeing the
        capacity their ancestors may be waiting for (deadlock breaker)."""
        rt = self._rt
        # One mask over the mirror instead of a per-node walk of every
        # running set, skipped while no row is stalled (dependency-aware
        # dispatch never stalls).  Candidates come back in node order,
        # then sorted task id, and are re-verified against live state:
        # handlers of an earlier eviction may have moved a later
        # candidate.
        for tid in rt.array.stall_timeout_candidates(rt.now, rt.stall_timeout):
            task = rt.state.tasks[tid]
            if task.state is not TaskState.STALLED or task.node_id is None:
                continue
            node = rt.state.nodes[task.node_id]
            if node.partitioned:
                continue  # an unreachable node can't be told to evict
            if (
                task.stall_start is not None
                and rt.now - task.stall_start >= rt.stall_timeout
            ):
                self.suspend(task, node, cause="stall")

    # ------------------------------------------------------------- deadlock
    def _check_progress(self) -> None:
        """Deadlock detector: if nothing is running, nothing was dispatched
        this tick, and no arrival/round/finish event is pending, queued
        work can never start."""
        rt = self._rt
        state = rt.state
        if state.dispatched_this_tick:
            return
        if any(node.running for node in state.nodes.values()):
            return
        if len(state.arrived) < len(state.jobs) or state.unscheduled:
            return
        if state.pending_faults:
            return  # a recovery/restore may still unblock the queue
        if any(hold(rt.now) for hold in state.progress_holds):
            return  # a backoff, speculation or quarantine release is due
        queued = sum(node.queue_length for node in state.nodes.values())
        if queued and not state.all_done():
            alive, draining, total = state.node_census()
            raise SimulationStuck(
                f"{queued} tasks queued but none dispatchable and nothing "
                f"running ({rt.kernel.position()}; nodes: {alive} alive, "
                f"{draining} draining, {total} total)"
            )
