"""Workload builder: trace records → deadline-bearing DAG jobs.

Reassembles the paper's experimental workload (§V):

* three job size classes — large = 2000 tasks, medium = 1000 tasks, small =
  several hundred tasks — in equal numbers;
* Poisson job arrivals at x jobs/minute with x drawn uniformly from [2, 5];
* per-task CPU/memory/duration drawn with Google-trace marginals
  (:class:`~repro.trace.google_trace.GoogleTraceGenerator`);
* dependencies created from non-overlapping execution windows, capped at
  five levels and fifteen dependents
  (:func:`~repro.trace.dependency_infer.infer_dependencies`);
* job deadlines set to arrival + critical-path time × a slack factor, so
  deadlines are feasible but binding.

A ``scale`` factor shrinks task counts proportionally (the simulator is a
single Python process, not a 50-node testbed); EXPERIMENTS.md records the
scale used per figure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .._util import check_positive, ensure_rng
from ..cluster.cluster import Cluster
from ..cluster.resources import ResourceVector
from ..dag.graph import critical_path_length
from ..dag.job import Job
from ..dag.task import Task
from .dependency_infer import infer_from_columns
from .google_trace import GoogleTraceGenerator

__all__ = [
    "WorkloadSpec",
    "Workload",
    "build_workload",
    "job_from_records",
    "job_from_columns",
]

#: Records in task-index order (already so for read traces, which the
#: sort then only checks).
_INDEX_ORDER = operator.attrgetter("task_index")

#: Fixed per-task disk and bandwidth demands from §V.
TASK_DISK_MB = 0.02
TASK_BANDWIDTH_MBPS = 0.02


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated workload.

    Attributes
    ----------
    num_jobs:
        Total number of jobs h; split evenly across the three size classes
        (remainders go to the small class).
    scale:
        Divisor applied to the per-class task counts; ``scale=20`` turns
        the paper's 2000/1000/~300-task jobs into 100/50/15-task jobs.
    small_tasks, medium_tasks, large_tasks:
        Unscaled class sizes (paper: several hundred / 1000 / 2000).
    arrival_rate_range:
        (lo, hi) jobs per minute; the realized rate x is drawn uniformly.
    deadline_slack:
        Job deadline = arrival + slack × critical-path time at the
        reference rate.  Must be >= 1 for deadlines to be feasible at all.
    reference_rate_mips:
        MIPS figure used to convert trace durations into task sizes
        (size_mi = duration × reference rate) and to compute critical
        paths.  Defaults to 1000 MIPS.
    reference_node_cpu, reference_node_mem:
        Node dimensions against which the trace's normalized cpu/mem
        fractions are converted into absolute demands.  Choose these at or
        below the *smallest* node of the target cluster, or some tasks can
        never fit anywhere (the harness's builder does this automatically).
    arrival_pattern:
        ``"poisson"`` (the paper's §V model) or ``"diurnal"`` — a Poisson
        process whose rate is sinusoidally modulated, the day/night shape
        the Google trace itself exhibits (bursty mornings, quiet nights).
    diurnal_period, diurnal_amplitude:
        Period (seconds) and relative amplitude in [0, 1) of the diurnal
        modulation; only used when ``arrival_pattern == "diurnal"``.
    """

    num_jobs: int
    scale: float = 20.0
    small_tasks: int = 300
    medium_tasks: int = 1000
    large_tasks: int = 2000
    arrival_rate_range: tuple[float, float] = (2.0, 5.0)
    deadline_slack: float = 4.0
    reference_rate_mips: float = 1000.0
    reference_node_cpu: float = 8.0
    reference_node_mem: float = 16.0
    arrival_pattern: str = "poisson"
    diurnal_period: float = 3600.0
    diurnal_amplitude: float = 0.8

    def __post_init__(self) -> None:
        check_positive(self.num_jobs, "num_jobs")
        check_positive(self.scale, "scale")
        for name in ("small_tasks", "medium_tasks", "large_tasks"):
            check_positive(getattr(self, name), name)
        lo, hi = self.arrival_rate_range
        if not 0 < lo <= hi:
            raise ValueError(f"arrival_rate_range must satisfy 0 < lo <= hi, got {(lo, hi)!r}")
        if self.deadline_slack < 1.0:
            raise ValueError(f"deadline_slack must be >= 1, got {self.deadline_slack!r}")
        check_positive(self.reference_rate_mips, "reference_rate_mips")
        check_positive(self.reference_node_cpu, "reference_node_cpu")
        check_positive(self.reference_node_mem, "reference_node_mem")
        if self.arrival_pattern not in ("poisson", "diurnal"):
            raise ValueError(
                f"arrival_pattern must be 'poisson' or 'diurnal', "
                f"got {self.arrival_pattern!r}"
            )
        check_positive(self.diurnal_period, "diurnal_period")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude!r}"
            )

    def scaled_class_sizes(self) -> tuple[int, int, int]:
        """(small, medium, large) task counts after applying ``scale``
        (each at least 2 so every job has room for a dependency)."""
        return (
            max(2, round(self.small_tasks / self.scale)),
            max(2, round(self.medium_tasks / self.scale)),
            max(2, round(self.large_tasks / self.scale)),
        )


@dataclass(frozen=True)
class Workload:
    """A generated workload: jobs plus the spec and seed that produced it."""

    jobs: tuple[Job, ...]
    spec: WorkloadSpec
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("workload must contain at least one job")

    @property
    def num_tasks(self) -> int:
        """Total task count across all jobs."""
        return sum(j.num_tasks for j in self.jobs)

    def job(self, job_id: str) -> Job:
        """Look a job up by id."""
        for j in self.jobs:
            if j.job_id == job_id:
                return j
        raise KeyError(job_id)

    def all_tasks(self) -> dict[str, Task]:
        """Flat task_id → Task map over every job."""
        out: dict[str, Task] = {}
        for j in self.jobs:
            out.update(j.tasks)
        return out

    def by_arrival(self) -> list[Job]:
        """Jobs sorted by arrival time (ties by id, for determinism)."""
        return sorted(self.jobs, key=lambda j: (j.arrival_time, j.job_id))


def job_from_records(
    job_id: str,
    records,
    arrival_time: float,
    deadline_slack: float,
    reference_rate_mips: float,
    reference_node_cpu: float = 8.0,
    reference_node_mem: float = 16.0,
    weight: float = 0.0,
) -> Job:
    """Assemble one :class:`Job` from trace records.

    Trace durations become task sizes (``size_mi = duration × reference
    rate``), normalized cpu/mem fractions become absolute demands against a
    reference node, and dependencies come from the §V no-overlap rule.  The
    deadline is ``arrival + slack × critical-path time``.
    """
    job_ids = {r.job_id for r in records}
    if len(job_ids) > 1:
        raise ValueError(f"records must belong to one job, got {sorted(job_ids)}")
    ordered = sorted(records, key=_INDEX_ORDER)
    return job_from_columns(
        job_id,
        [r.task_index for r in ordered],
        ([r.start_time for r in ordered], [r.end_time for r in ordered],
         [r.cpu for r in ordered], [r.mem for r in ordered]),
        arrival_time,
        deadline_slack,
        reference_rate_mips,
        reference_node_cpu,
        reference_node_mem,
        weight,
    )


def job_from_columns(
    job_id: str,
    indices: Sequence[int],
    columns: tuple[Sequence[float], ...],
    arrival_time: float,
    deadline_slack: float,
    reference_rate_mips: float,
    reference_node_cpu: float = 8.0,
    reference_node_mem: float = 16.0,
    weight: float = 0.0,
) -> Job:
    """:func:`job_from_records` over one job's records given as aligned
    columns in task-index order: *indices* and ``(starts, ends, cpus,
    mems)``, as :meth:`~repro.trace.google_trace.GoogleTraceGenerator.job_columns`
    draws them (with ``range(num_tasks)``).  The same job, bit for bit.
    """
    starts, ends, cpus, mems = columns
    parent_map = infer_from_columns(indices, starts, ends)
    check_positive(reference_rate_mips, "reference_rate_mips")
    tid_of = {index: f"{job_id}.T{index:04d}" for index in indices}
    disk, bandwidth = TASK_DISK_MB, TASK_BANDWIDTH_MBPS
    tasks: dict[str, Task] = {}
    exec_time: dict[str, float] = {}
    for index, start, end, cpu, mem in zip(indices, starts, ends, cpus, mems):
        tid = tid_of[index]
        size_mi = (end - start) * reference_rate_mips
        parents = parent_map[index]
        # Positional arguments: this runs once per task of every job, and
        # keywords cost more than the rest of the call.
        tasks[tid] = Task(
            tid,
            job_id,
            size_mi,
            ResourceVector(
                cpu * reference_node_cpu,
                mem * reference_node_mem,
                disk,
                bandwidth,
            ),
            tuple([tid_of[p] for p in parents]) if parents else (),
        )
        # Task.execution_time, without re-checking the rate per task.
        exec_time[tid] = size_mi / reference_rate_mips
    # The parent map is keyed in start-time order, which is topological:
    # a parent ends before its child starts.
    critical = critical_path_length(
        tasks, exec_time, order=[tid_of[i] for i in parent_map]
    )
    return Job(
        job_id=job_id,
        tasks=tasks,
        deadline=arrival_time + deadline_slack * critical,
        arrival_time=arrival_time,
        weight=weight,
    )


def build_workload(
    spec: WorkloadSpec,
    rng: int | np.random.Generator | None = None,
) -> Workload:
    """Generate a full workload per *spec*.

    Jobs are assigned round-robin to the (large, medium, small) classes so
    the counts stay equal, arrive by a Poisson process at the drawn rate,
    and half the jobs are flagged production (weight 1.0) for the Natjam
    baseline, alternating deterministically.
    """
    seed = rng if isinstance(rng, int) else None
    gen = ensure_rng(rng)
    trace_gen = GoogleTraceGenerator(rng=gen)
    small, medium, large = spec.scaled_class_sizes()
    class_sizes = (small, medium, large)

    lo, hi = spec.arrival_rate_range
    rate_per_minute = float(gen.uniform(lo, hi))
    mean_gap = 60.0 / rate_per_minute

    def next_gap(t: float) -> float:
        """Inter-arrival draw; the diurnal pattern modulates the rate
        sinusoidally over `diurnal_period` (rate never hits zero since
        amplitude < 1)."""
        if spec.arrival_pattern == "poisson":
            return float(gen.exponential(mean_gap))
        import math as _math

        phase = 2.0 * _math.pi * t / spec.diurnal_period
        rate_factor = 1.0 + spec.diurnal_amplitude * _math.sin(phase)
        return float(gen.exponential(mean_gap / rate_factor))

    jobs: list[Job] = []
    arrival = 0.0
    for i in range(spec.num_jobs):
        num_tasks = class_sizes[i % 3]
        job_id = f"J{i:04d}"
        weight = 1.0 if i % 2 == 0 else 0.0
        jobs.append(
            job_from_columns(
                job_id,
                range(num_tasks),
                trace_gen.job_columns(job_id, num_tasks, job_start=0.0),
                arrival_time=arrival,
                deadline_slack=spec.deadline_slack,
                reference_rate_mips=spec.reference_rate_mips,
                reference_node_cpu=spec.reference_node_cpu,
                reference_node_mem=spec.reference_node_mem,
                weight=weight,
            )
        )
        arrival += next_gap(arrival)
    return Workload(jobs=tuple(jobs), spec=spec, seed=seed)
