"""Dispatch subsystem: job arrivals, scheduling rounds, queue→node
dispatch, stall/disorder accounting, and task completion.

Owns the Fig. 4 pipeline from the offline plan to the node: scheduling
rounds fill the per-node waiting queues, work-conserving dispatch starts
queued tasks that fit (stalling dependency-blind dispatches whose parents
are unfinished — a *disorder*), and completions unblock children and wake
the nodes that can now make progress.

All bookkeeping side effects (metrics, tracing, resilience health) leave
this module as bus events; the only direct mutations are to
:class:`~repro.sim.state.SimState` and the node/task runtimes.
"""

from __future__ import annotations

from .._util import EPS
from ..dag.task import TaskState
from .events import EventKind
from .executor import NodeRuntime, TaskRuntime
from .kernel import (
    JobArrived,
    RetryDispatched,
    SimulationError,
    RoundTick,
    TaskFinished,
    TaskStallEnded,
    TaskStalled,
    TaskStarted,
    TaskWaitAccrued,
    TransferStarted,
)
from .state import SimRuntime

__all__ = ["DispatchSubsystem"]


class DispatchSubsystem:
    """Queue→node admission and the task execution lifecycle."""

    def __init__(self, runtime: SimRuntime) -> None:
        self._rt = runtime
        self._wakes: set[str] = set()  # nodes peers asked to re-dispatch

    # ------------------------------------------------------------- arrivals
    def on_arrival(self, job_id: str) -> None:
        state = self._rt.state
        state.arrived.add(job_id)
        state.unscheduled.append(job_id)
        self._rt.bus.emit(JobArrived(self._rt.now, job_id))

    def on_round(self, _payload: object = None) -> None:
        """One scheduling round: plan the arrived batch, fill the queues,
        dispatch, and re-arm the round timer while jobs remain."""
        rt = self._rt
        state = rt.state
        batch = [state.jobs[jid] for jid in state.unscheduled]
        state.unscheduled.clear()
        if batch:
            plan = rt.scheduler.schedule(batch)
            for tid, assignment in plan.assignments.items():
                task = state.tasks[tid]
                if task.node_id is not None:
                    raise SimulationError(
                        f"task {tid} scheduled twice ({rt.kernel.position()})"
                    )
                node = state.nodes.get(assignment.node_id)
                if node is None:
                    if rt.elastic is None:
                        # Fixed cluster: a plan naming an unknown node is
                        # a scheduler bug — fail loudly (KeyError), as
                        # the pre-elastic engine always did.
                        node = state.nodes[assignment.node_id]
                    # The offline planner only knows the construction-time
                    # cluster; its target was decommissioned since.
                    # Re-home to the least-loaded member (same tie-break
                    # as backlog reassignment).
                    node = min(
                        (
                            n
                            for n in state.nodes.values()
                            if n.available and n.membership == "alive"
                        ),
                        key=lambda n: (n.queue_length, n.node_id),
                        default=min(
                            state.nodes.values(), key=lambda n: n.node_id
                        ),
                    )
                task.node_id = node.node_id
                task.planned_start = float(assignment.start)
                task.state = TaskState.QUEUED
                task.queued_since = rt.now
                task.first_enqueued_at = rt.now
                node.enqueue(tid, task.planned_start)
            missing = [
                tid
                for j in batch
                for tid in j.tasks
                if state.tasks[tid].node_id is None
            ]
            if missing:
                raise SimulationError(
                    f"scheduler left tasks unassigned: {sorted(missing)[:3]} "
                    f"({rt.kernel.position()})"
                )
            rt.bus.emit(
                RoundTick(rt.now, len(batch), sum(len(j.tasks) for j in batch))
            )
            for node in state.nodes.values():
                self.dispatch(node)
            rt.preemption.ensure_tick()
        # Next round while any job is still to arrive or be planned.
        if len(state.arrived) < len(state.jobs) or state.unscheduled:
            rt.kernel.schedule(
                rt.now + rt.sim_config.scheduling_period,
                EventKind.SCHEDULING_ROUND,
                None,
            )

    # ------------------------------------------------------------- dispatch
    def request_wake(self, node_id: str) -> None:
        """Ask for *node_id* to be re-dispatched at the next wake drain
        (used by bus subscribers that free capacity mid-completion)."""
        self._wakes.add(node_id)

    def dispatch(self, node: NodeRuntime) -> None:
        """Start queued tasks that fit, in planned-start order.

        Dependency-aware runs start only runnable tasks; unaware runs also
        start tasks whose planned start has passed (stalling them when
        parents are unfinished — a disorder)."""
        rt = self._rt
        if not node.available or node.queue_length == 0:
            return
        if any(gate(node.node_id) for gate in rt.state.dispatch_gates):
            return
        now = rt.now
        # Candidates come off the array mirror in queue order
        # ((planned_start, task_id)), already filtered by the state
        # predicates.  The retry gate and the capacity check stay
        # per-candidate: they read live state that changes as earlier
        # candidates start.
        for tid in rt.array.dispatch_candidates(node, now, rt.dependency_aware):
            task = rt.state.tasks[tid]
            if now + EPS < task.retry_not_before:
                continue  # retry still serving its backoff
            if node.fits(task.task.demand):
                self.start_task(task, node)

    def start_task(self, task: TaskRuntime, node: NodeRuntime) -> None:
        """Move a queued task onto the node (RUNNING, or STALLED when its
        parents are unfinished — counted as a disorder)."""
        rt = self._rt
        now = rt.now
        node.dequeue(task.task.task_id, task.planned_start)
        if task.retry_not_before > 0:
            # This dispatch is a retry of a failed attempt coming off its
            # backoff gate (immediate when the resilience layer is off).
            task.retry_not_before = 0.0
            rt.bus.emit(RetryDispatched(now, task.task.task_id, node.node_id))
        if task.queued_since is not None:
            wait = now - task.queued_since
            task.total_wait += wait
            task.queued_since = None
            rt.bus.emit(TaskWaitAccrued(now, task.task.task_id, wait))
        if task.first_dispatched_at is None:
            task.first_dispatched_at = now
        node.allocate(task.task.demand)
        node.running.add(task.task.task_id)
        rt.state.dispatched_this_tick = True
        if task.is_runnable:
            self.begin_running(task, node)
        else:
            task.state = TaskState.STALLED
            task.stall_start = now
            rt.bus.emit(TaskStalled(now, task.task.task_id, node.node_id))

    def begin_running(self, task: TaskRuntime, node: NodeRuntime) -> None:
        """Transition to RUNNING: charge recovery + locality transfer and
        schedule the (versioned) finish event."""
        rt = self._rt
        now = rt.now
        task.state = TaskState.RUNNING
        task.run_start = now
        transfer = 0.0
        if task.task.input_mb > 0 and task.fetched_on != node.node_id:
            # §VI locality: fetch the input before executing (paid once per
            # node; a re-dispatch on the same node reuses the local copy).
            transfer = task.task.transfer_time(
                node.node_id, node.spec.bandwidth_capacity
            )
            task.fetched_on = node.node_id
            rt.bus.emit(
                TransferStarted(now, task.task.task_id, node.node_id, transfer)
            )
        task.current_recovery = task.recovery_due + transfer
        task.recovery_due = 0.0
        task.finish_version += 1
        rt.bus.emit(
            TaskStarted(now, task.task.task_id, node.node_id, task.current_recovery)
        )
        busy = task.current_recovery + (
            task.task.size_mi - task.work_done_mi
        ) / node.rate
        task.stint_started_at = now
        task.current_expected_busy = busy
        rt.kernel.schedule(
            now + busy, EventKind.TASK_FINISH, (task.task.task_id, task.finish_version)
        )

    # ---------------------------------------------------------------- stalls
    def end_stall(self, task: TaskRuntime) -> None:
        """Close a stall stint: charge it as wasted capacity AND as waiting
        time — a stalled task occupies a slot but is not executing, so the
        paper's waiting-time metric keeps accruing."""
        if task.stall_start is None:
            return
        rt = self._rt
        stalled = rt.now - task.stall_start
        task.stall_start = None
        task.total_wait += stalled
        rt.bus.emit(
            TaskStallEnded(rt.now, task.task.task_id, task.node_id, stalled)
        )

    def activate_stalled(self, task: TaskRuntime) -> None:
        """A stalled task's last parent completed: begin real execution.

        Deferred while the node is partitioned — the activation command
        cannot reach it; the heal handler re-activates stalled runnable
        tasks once the node is reachable again."""
        node = self._rt.state.nodes[task.node_id]
        if node.partitioned:
            return
        self.end_stall(task)
        self.begin_running(task, node)

    # ----------------------------------------------------------- completion
    def on_finish(self, payload: tuple[str, int]) -> None:
        """Handle a TASK_FINISH timed event (dropping stale versions)."""
        task_id, version = payload
        rt = self._rt
        task = rt.state.tasks.get(task_id)
        if task is None:
            return  # stale event for a task already retired with its job
        if task.finish_version != version or task.state is not TaskState.RUNNING:
            return  # stale event from before a preemption
        node = rt.state.nodes[task.node_id]
        node.running.discard(task_id)
        node.release(task.task.demand)
        self.finalize_completion(task, node.node_id, {node.node_id})

    def finalize_completion(
        self,
        task: TaskRuntime,
        completing_node: str,
        wake: set[str],
        *,
        speculative: bool = False,
    ) -> None:
        """Shared completion tail for the original attempt and speculative
        wins: mark done, announce, unblock children, wake *wake* nodes
        (plus any wakes subscribers request while handling the event)."""
        rt = self._rt
        state = rt.state
        now = rt.now
        task_id = task.task.task_id
        task.work_done_mi = task.task.size_mi
        task.state = TaskState.COMPLETED
        task.completed_at = now
        task.run_start = None
        task.stint_started_at = None
        state.completed_tasks += 1
        latency = (
            now - task.first_enqueued_at
            if task.first_enqueued_at is not None
            else None
        )
        jid = state.job_of[task_id]
        state.job_remaining[jid] -= 1
        rt.bus.emit(
            TaskFinished(
                now,
                task_id,
                completing_node,
                jid,
                latency,
                speculative,
                state.job_remaining[jid] == 0,
            )
        )
        for child in state.children.get(task_id, ()):
            crt = state.tasks[child]
            crt.unfinished_parents -= 1
            if crt.unfinished_parents == 0:
                if crt.state is TaskState.STALLED:
                    self.activate_stalled(crt)
                elif crt.state is TaskState.QUEUED and crt.node_id is not None:
                    # A child on another node just became runnable; wake that
                    # node now rather than at its next epoch tick.
                    wake.add(crt.node_id)
        wake |= self._wakes
        self._wakes.clear()
        for nid in sorted(wake):
            self.dispatch(state.nodes[nid])
