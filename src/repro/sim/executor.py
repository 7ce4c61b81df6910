"""Runtime state of tasks and nodes inside the simulator.

:class:`TaskRuntime` is the mutable companion of an immutable
:class:`~repro.dag.task.Task`: it tracks progress (work done in MI),
waiting accumulation, preemption/recovery bookkeeping and the finish-event
version used to invalidate stale events after a preemption.

:class:`NodeRuntime` tracks one node's free capacity, running set and
waiting queue (kept in ascending planned-start order — Fig. 4's queues).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..cluster.node import NodeSpec
from ..cluster.resources import ResourceVector
from ..dag.task import Task, TaskState

__all__ = ["TaskRuntime", "NodeRuntime"]


@dataclass
class TaskRuntime:
    """Mutable per-task simulation state.

    The progress model: while RUNNING, the task first pays
    ``current_recovery`` seconds of context-switch recovery (t_r + σ,
    charged after each preemption), then accrues work at its node's rate.
    ``finish_version`` increments whenever the scheduled finish event
    becomes invalid (preemption); the engine drops stale events by
    comparing versions.
    """

    task: Task
    deadline: float
    unfinished_parents: int
    state: TaskState = TaskState.PENDING
    node_id: str | None = None
    planned_start: float = float("inf")
    work_done_mi: float = 0.0
    queued_since: float | None = None
    total_wait: float = 0.0
    run_start: float | None = None
    stall_start: float | None = None
    current_recovery: float = 0.0
    recovery_due: float = 0.0
    preempt_count: int = 0
    finish_version: int = 0
    completed_at: float | None = None
    first_dispatched_at: float | None = None
    first_enqueued_at: float | None = None
    stall_banned: bool = False
    fetched_on: str | None = None
    # Resilience-layer bookkeeping (see repro.sim.resilience).
    attempts: int = 0              # failed attempts so far (TASK_FAIL/timeout)
    retry_not_before: float = 0.0  # backoff gate: not dispatchable before this
    current_expected_busy: float = 0.0  # busy time expected at stint start
    stint_started_at: float | None = None  # unlike run_start, survives re-times

    # -- progress accounting ----------------------------------------------
    def progress_seconds(self, now: float) -> float:
        """Effective work-seconds accrued in the *current* running stint
        (elapsed time minus the recovery paid at its start)."""
        if self.state is not TaskState.RUNNING or self.run_start is None:
            return 0.0
        elapsed = now - self.run_start
        return max(0.0, elapsed - self.current_recovery)

    def work_done_at(self, now: float, rate: float) -> float:
        """Total MI completed by *now*, including the current stint."""
        return min(
            self.task.size_mi, self.work_done_mi + self.progress_seconds(now) * rate
        )

    def remaining_mi_at(self, now: float, rate: float) -> float:
        """MI still to execute at *now*."""
        return max(0.0, self.task.size_mi - self.work_done_at(now, rate))

    def remaining_time_at(self, now: float, rate: float) -> float:
        """:math:`t^{rem}` — seconds of further execution needed at *rate*,
        including any recovery not yet paid."""
        if self.state is TaskState.RUNNING and self.run_start is not None:
            unpaid = max(0.0, self.current_recovery - (now - self.run_start))
            return unpaid + self.remaining_mi_at(now, rate) / rate
        return self.recovery_due + self.remaining_mi_at(now, rate) / rate

    def waiting_time_at(self, now: float) -> float:
        """:math:`t^w` — accumulated queued-wait, including the open stint."""
        return self.total_wait + self.stint_waiting_at(now)

    def stint_waiting_at(self, now: float) -> float:
        """Queued-wait of the current stint only (0 when not queued)."""
        if self.queued_since is None:
            return 0.0
        return max(0.0, now - self.queued_since)

    def overdue_waiting_at(self, now: float) -> float:
        """Wait beyond the later of (stint start, planned start).

        A queued task is not *starving* while its scheduled start has not
        yet arrived; the τ override of Algorithm 1 keys on this quantity so
        ordinary backlog does not trigger starvation preemptions."""
        if self.queued_since is None:
            return 0.0
        baseline = max(self.queued_since, self.planned_start)
        return max(0.0, now - baseline)

    @property
    def is_runnable(self) -> bool:
        """True when every parent has completed."""
        return self.unfinished_parents == 0

    @property
    def occupies_resources(self) -> bool:
        """True while the task holds node capacity (running or stalled)."""
        return self.state in (TaskState.RUNNING, TaskState.STALLED)


class NodeRuntime:
    """Mutable per-node simulation state: capacity, running set, queue."""

    def __init__(self, spec: NodeSpec, rate: float):
        self.spec = spec
        self.rate = rate
        self.base_rate = rate  # nominal rate; `rate` drops during stragglers
        self.alive = True      # False while failed (fault injection)
        #: Elastic lifecycle state ("alive" / "draining" /
        #: "decommissioned") — orthogonal to ``alive``, which tracks
        #: fault injection.  Always "alive" without an elastic subsystem.
        self.membership = "alive"
        self.partitioned = False  # True while unreachable (PARTITION fault)
        self.partitioned_at: float | None = None  # when the partition began
        self.free: ResourceVector = spec.capacity
        self.running: set[str] = set()
        self._queue: list[tuple[float, str]] = []  # (planned_start, task_id)

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def available(self) -> bool:
        """True when the node can accept and make progress on work
        (alive and reachable)."""
        return self.alive and not self.partitioned

    # -- queue ops (ascending planned start, Fig. 4) -----------------------
    def enqueue(self, task_id: str, planned_start: float) -> None:
        """Insert a task keeping the queue sorted by planned start."""
        bisect.insort(self._queue, (planned_start, task_id))

    def enqueue_all(self, entries: list[tuple[float, str]]) -> None:
        """Insert many ``(planned_start, task_id)`` entries in one sort
        (a merge, when *entries* come sorted)."""
        queue = self._queue
        queue.extend(entries)
        queue.sort()

    def dequeue(self, task_id: str, planned_start: float) -> None:
        """Remove a specific task; raises ValueError when absent."""
        idx = bisect.bisect_left(self._queue, (planned_start, task_id))
        if idx < len(self._queue) and self._queue[idx] == (planned_start, task_id):
            del self._queue[idx]
            return
        raise ValueError(f"task {task_id!r} not queued on {self.node_id!r}")

    def queued_ids(self, limit: int | None = None) -> list[str]:
        """Queue content in order (copy), optionally just the head."""
        queue = self._queue if limit is None else self._queue[:limit]
        return [tid for _, tid in queue]

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    # -- capacity ops ------------------------------------------------------
    def allocate(self, demand: ResourceVector) -> None:
        """Claim capacity for a dispatched task; raises if it can't fit."""
        if not demand.fits_within(self.free):
            raise RuntimeError(
                f"node {self.node_id}: demand {demand} exceeds free {self.free}"
            )
        self.free = self.free - demand

    def release(self, demand: ResourceVector) -> None:
        """Return a finished/preempted task's capacity (clamped to spec)."""
        restored = self.free + demand
        cap = self.spec.capacity
        self.free = ResourceVector(
            min(restored.cpu, cap.cpu),
            min(restored.mem, cap.mem),
            min(restored.disk, cap.disk),
            min(restored.bandwidth, cap.bandwidth),
        )

    def fits(self, demand: ResourceVector) -> bool:
        """True when *demand* fits the current free capacity."""
        return demand.fits_within(self.free)
