"""Job model: a deadline-bearing DAG of tasks.

A :class:`Job` owns its tasks, validates that they form a DAG, and caches
the derived structures every scheduler needs — children map, levels, level
partition and topological order.  Jobs are immutable after construction;
runtime progress is tracked by the simulator, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .._util import check_non_negative, check_positive
from .graph import (
    build_children_map,
    compute_levels,
    critical_path_length,
    enumerate_chains,
    level_partition,
    order_and_children,
    topological_order,
)
from .task import Task

__all__ = ["Job"]


@dataclass(frozen=True)
class Job:
    """A job :math:`J_i`: a set of dependent tasks plus a completion deadline.

    Attributes
    ----------
    job_id:
        Unique identifier.
    tasks:
        Mapping task_id → :class:`Task`; all tasks must carry this job's
        ``job_id`` and reference only parents inside the job (the paper
        defers cross-job dependency to future work).
    deadline:
        Absolute completion deadline :math:`t_i^d` (seconds).  A job counts
        toward throughput only when its last task finishes by the deadline.
    arrival_time:
        Absolute submission time (seconds); the offline scheduler batches
        jobs by arrival period.
    weight:
        Optional job weight (production vs research class for the Natjam
        baseline: weight >= 1.0 is treated as production).
    """

    job_id: str
    tasks: Mapping[str, Task]
    deadline: float
    arrival_time: float = 0.0
    weight: float = 0.0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if not self.tasks:
            raise ValueError(f"job {self.job_id!r} must contain at least one task")
        self._check_times(self.arrival_time, self.deadline)
        object.__setattr__(self, "tasks", dict(self.tasks))
        for tid, task in self.tasks.items():
            if tid != task.task_id:
                raise ValueError(f"task key {tid!r} != task_id {task.task_id!r}")
            if task.job_id != self.job_id:
                raise ValueError(
                    f"task {tid!r} belongs to job {task.job_id!r}, not {self.job_id!r}"
                )
        # The acyclicity check is the topological sort; keep its order and
        # the child lists it built as the cached ``topo_order`` and
        # ``children``, so the job is walked once.
        order, children = order_and_children(self.tasks)
        self.__dict__["topo_order"] = order
        self.__dict__["children"] = children

    def _check_times(self, arrival_time: float, deadline: float) -> None:
        check_positive(deadline, "deadline")
        check_non_negative(arrival_time, "arrival_time")
        if deadline <= arrival_time:
            raise ValueError(
                f"job {self.job_id!r}: deadline ({deadline}) must be after "
                f"arrival ({arrival_time})"
            )

    # -- construction helpers -------------------------------------------
    @classmethod
    def from_tasks(
        cls,
        job_id: str,
        tasks: Iterable[Task],
        deadline: float,
        arrival_time: float = 0.0,
        weight: float = 0.0,
    ) -> "Job":
        """Build a job from an iterable of tasks (keys derived from ids)."""
        return cls(
            job_id=job_id,
            tasks={t.task_id: t for t in tasks},
            deadline=deadline,
            arrival_time=arrival_time,
            weight=weight,
        )

    def retimed(self, arrival_time: float, deadline: float) -> "Job":
        """This job with a new arrival time and deadline.

        Only the times are checked: the tasks, and every structure cached
        from them, are shared with this job, which already validated them.
        """
        self._check_times(arrival_time, deadline)
        job = object.__new__(type(self))
        job.__dict__.update(self.__dict__)
        job.__dict__["arrival_time"] = arrival_time
        job.__dict__["deadline"] = deadline
        return job

    # -- derived structure (cached; the dataclass is frozen) -------------
    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        """Direct dependents of each task (:math:`S_{ij}` of Eq. 12);
        computed by construction's acyclicity check."""
        return build_children_map(self.tasks)

    @cached_property
    def levels(self) -> dict[str, int]:
        """Level (1-based, longest-chain-from-root) of each task."""
        return compute_levels(self.tasks)

    @cached_property
    def level_lists(self) -> list[list[str]]:
        """Task ids grouped by level; ``len(level_lists)`` is the depth L."""
        return level_partition(self.tasks)

    @cached_property
    def topo_order(self) -> list[str]:
        """Deterministic topological order (parents first); computed by
        construction's acyclicity check."""
        return topological_order(self.tasks)

    @property
    def depth(self) -> int:
        """DAG depth L (number of levels)."""
        return len(self.level_lists)

    @property
    def num_tasks(self) -> int:
        """Number of tasks m in this job."""
        return len(self.tasks)

    def chains(self, max_chains: int | None = None) -> list[tuple[str, ...]]:
        """Root→sink chains :math:`C_i^q` (bounded enumeration)."""
        return enumerate_chains(self.tasks, max_chains=max_chains)

    def roots(self) -> list[str]:
        """Ids of tasks with no parents, sorted."""
        return sorted(tid for tid, t in self.tasks.items() if t.is_root)

    def sinks(self) -> list[str]:
        """Ids of tasks with no dependents, sorted."""
        return sorted(tid for tid, kids in self.children.items() if not kids)

    def total_work_mi(self) -> float:
        """Sum of task sizes (millions of instructions)."""
        return sum(t.size_mi for t in self.tasks.values())

    def critical_path_time(self, rate_mips: float) -> float:
        """Critical-path execution time assuming every task runs at
        *rate_mips* — a lower bound on this job's completion time."""
        exec_time = {tid: t.execution_time(rate_mips) for tid, t in self.tasks.items()}
        return critical_path_length(self.tasks, exec_time)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks.values())

    def __len__(self) -> int:
        return len(self.tasks)
