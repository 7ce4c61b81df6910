"""Static task model.

A :class:`Task` is the immutable *description* of one unit of work: its
size in millions of instructions (the paper's :math:`l_{ij}`), its peak
resource demand, and its position in the job DAG (parent task ids).  All
*runtime* state — remaining work, waiting time, current node — lives in
:class:`repro.sim.executor.TaskRuntime`, so the same workload object can be
replayed under many policies without copying.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..cluster.resources import ResourceVector
from .._util import check_non_negative, check_positive

__all__ = ["Task", "TaskState"]


class TaskState(enum.Enum):
    """Lifecycle states of a task inside the simulator.

    The transitions are::

        PENDING -> RUNNABLE -> QUEUED -> RUNNING -> COMPLETED
                                  ^          |
                                  +--PREEMPT-+

    ``PENDING`` means at least one parent has not completed; a
    dependency-unaware policy may still dispatch such a task (a *disorder*),
    in which case it occupies resources in ``STALLED`` until its parents
    finish.
    """

    PENDING = "pending"
    RUNNABLE = "runnable"
    QUEUED = "queued"
    RUNNING = "running"
    STALLED = "stalled"
    PREEMPTED = "preempted"
    COMPLETED = "completed"

    def is_terminal(self) -> bool:
        """True only for COMPLETED — the single absorbing state."""
        return self is TaskState.COMPLETED


@dataclass(frozen=True, slots=True)
class Task:
    """Immutable description of one task (:math:`T_{ij}` in the paper).

    Attributes
    ----------
    task_id:
        Globally unique identifier (convention: ``"J3.T07"``).
    job_id:
        Identifier of the owning job (:math:`J_i`).
    size_mi:
        Task size :math:`l_{ij}` in millions of instructions; execution
        time on node *k* is ``size_mi / g(k)`` (Eq. 2).
    demand:
        Peak resource demand vector (cpu, mem, disk, bandwidth).
    parents:
        Ids of tasks that must complete before this one may start.
    input_mb:
        Size of the task's input data in MB (0 = no materialized input).
        Used by the data-locality extension (§VI future work): running the
        task away from its input charges a transfer delay.
    input_location:
        Node id where the input data resides, or ``None`` when the input
        is location-free (replicated / tiny).
    """

    task_id: str
    job_id: str
    size_mi: float
    demand: ResourceVector = field(default_factory=ResourceVector)
    parents: tuple[str, ...] = ()
    input_mb: float = 0.0
    input_location: str | None = None

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.size_mi > 0:
            check_positive(self.size_mi, "size_mi")
        parents = self.parents
        if parents:
            if self.task_id in parents:
                raise ValueError(f"task {self.task_id!r} cannot depend on itself")
            if len(parents) > 1 and len(set(parents)) != len(parents):
                raise ValueError(f"task {self.task_id!r} has duplicate parents")
        if self.input_mb != 0.0:
            check_non_negative(self.input_mb, "input_mb")
        if self.input_mb > 0 and not self.input_location:
            raise ValueError(
                f"task {self.task_id!r} has input_mb but no input_location"
            )

    @property
    def is_root(self) -> bool:
        """True when the task has no precedence constraints."""
        return not self.parents

    def execution_time(self, rate_mips: float) -> float:
        """Uninterrupted execution time on a node of the given processing
        rate (Eq. 2: :math:`t_{ij,k} = l_{ij} / g(k)`)."""
        check_positive(rate_mips, "rate_mips")
        return self.size_mi / rate_mips

    def transfer_time(self, node_id: str, bandwidth_mbps: float) -> float:
        """Input-fetch delay when running on *node_id*: zero when the data
        is local (or location-free), else ``input_mb / bandwidth``."""
        if self.input_mb <= 0 or self.input_location in (None, node_id):
            return 0.0
        check_positive(bandwidth_mbps, "bandwidth_mbps")
        return self.input_mb / bandwidth_mbps
