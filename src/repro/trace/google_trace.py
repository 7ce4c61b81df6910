"""Synthetic Google-cluster-trace generator.

The paper draws task execution times and CPU/memory consumption from the
May 2011 Google cluster trace (§V).  The trace itself is not
redistributable here, so this module generates records with the trace's
published statistical shape:

* task durations are heavy-tailed — the bulk of tasks run seconds to a few
  minutes while a long tail runs hours; we use a lognormal body
  (median ≈ 100 s) clipped to the trace's [1 s, 1 h] task-duration range
  typically used in scheduling studies;
* normalized CPU and memory requests concentrate below 0.25 of a machine
  with occasional large requests; we use Beta(2, 8)-shaped draws;
* per-task disk and bandwidth demands are the constants the paper fixes
  (0.02 MB and 0.02 MB/s).

Each record mimics a task-event row: job id, task index, scheduled start
and end timestamps, and resource request.  The dependency-inference rule of
§V (no temporal overlap ⇒ dependency) consumes these records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._util import check_positive, ensure_rng

__all__ = ["TraceTaskRecord", "GoogleTraceGenerator"]


@dataclass(frozen=True, slots=True)
class TraceTaskRecord:
    """One synthetic trace row describing a task's observed execution.

    Times are absolute seconds from trace start; ``cpu``/``mem`` are
    normalized requests in (0, 1]; duration is ``end_time - start_time``.
    """

    job_id: str
    task_index: int
    start_time: float
    end_time: float
    cpu: float
    mem: float

    def __post_init__(self) -> None:
        if self.end_time <= self.start_time:
            raise ValueError(
                f"record {self.job_id}/{self.task_index}: end_time must exceed start_time"
            )
        if not 0.0 < self.cpu <= 1.0:
            raise ValueError(f"cpu must be in (0, 1], got {self.cpu!r}")
        if not 0.0 < self.mem <= 1.0:
            raise ValueError(f"mem must be in (0, 1], got {self.mem!r}")

    @property
    def duration(self) -> float:
        """Observed execution time in seconds."""
        return self.end_time - self.start_time

    def overlaps(self, other: "TraceTaskRecord") -> bool:
        """True when the two execution windows intersect.  §V creates a
        dependency between two tasks of a job exactly when they do *not*
        overlap."""
        return self.start_time < other.end_time and other.start_time < self.end_time


class GoogleTraceGenerator:
    """Generates synthetic per-job trace records with Google-trace marginals.

    Parameters
    ----------
    rng:
        Seed or generator for reproducibility.
    median_duration:
        Median task duration in seconds (trace-like default 100 s).
    sigma:
        Lognormal shape; 1.0 gives the trace's heavy tail.
    min_duration, max_duration:
        Clipping range for durations.
    stagger:
        Mean gap (seconds) between consecutive task starts within a job —
        larger stagger yields more non-overlapping pairs and hence deeper
        inferred DAGs.
    """

    def __init__(
        self,
        rng: int | np.random.Generator | None = None,
        median_duration: float = 100.0,
        sigma: float = 1.0,
        min_duration: float = 1.0,
        max_duration: float = 3600.0,
        stagger: float = 50.0,
    ):
        check_positive(median_duration, "median_duration")
        check_positive(sigma, "sigma")
        check_positive(min_duration, "min_duration")
        if max_duration <= min_duration:
            raise ValueError("max_duration must exceed min_duration")
        check_positive(stagger, "stagger")
        self._rng = ensure_rng(rng)
        self._mu = float(np.log(median_duration))
        self._sigma = sigma
        self._min = min_duration
        self._max = max_duration
        self._stagger = stagger

    def sample_duration(self) -> float:
        """One heavy-tailed task duration (seconds)."""
        d = float(self._rng.lognormal(self._mu, self._sigma))
        return float(min(max(d, self._min), self._max))

    def sample_cpu(self) -> float:
        """One normalized CPU request in (0, 1]."""
        return float(min(max(self._rng.beta(2.0, 8.0), 1e-3), 1.0))

    def sample_mem(self) -> float:
        """One normalized memory request in (0, 1]."""
        return float(min(max(self._rng.beta(2.0, 8.0), 1e-3), 1.0))

    def job_records(
        self, job_id: str, num_tasks: int, job_start: float = 0.0
    ) -> list[TraceTaskRecord]:
        """Generate *num_tasks* records for one job.

        Task starts are staggered by exponential gaps (mean ``stagger``),
        which produces a realistic mix of overlapping (parallel) and
        non-overlapping (dependent) windows for the §V inference rule.
        """
        columns = self.job_columns(job_id, num_tasks, job_start)
        return [
            TraceTaskRecord(job_id, idx, start, end, cpu, mem)
            for idx, (start, end, cpu, mem) in enumerate(zip(*columns))
        ]

    def job_columns(
        self, job_id: str, num_tasks: int, job_start: float = 0.0
    ) -> tuple[list[float], list[float], list[float], list[float]]:
        """:meth:`job_records` as aligned columns ``(starts, ends, cpus,
        mems)``, task index = position: the same draws and the same
        checks, without a record object per task."""
        check_positive(num_tasks, "num_tasks")
        # sample_duration, sample_cpu and sample_mem inlined, in their
        # draw order: the loop runs once per task of every generated job.
        rng = self._rng
        lognormal, beta, exponential = rng.lognormal, rng.beta, rng.exponential
        mu, sigma, lo, hi = self._mu, self._sigma, self._min, self._max
        stagger = self._stagger
        starts: list[float] = []
        ends: list[float] = []
        cpus: list[float] = []
        mems: list[float] = []
        start = job_start
        for idx in range(num_tasks):
            # Each clamp is min(max(x, floor), ceiling) spelled out.
            duration = float(lognormal(mu, sigma))
            duration = lo if lo > duration else duration
            duration = float(hi if hi < duration else duration)
            cpu = float(beta(2.0, 8.0))
            cpu = 1e-3 if 1e-3 > cpu else 1.0 if 1.0 < cpu else cpu
            mem = float(beta(2.0, 8.0))
            mem = 1e-3 if 1e-3 > mem else 1.0 if 1.0 < mem else mem
            end = start + duration
            if end <= start or not 0.0 < cpu <= 1.0 or not 0.0 < mem <= 1.0:
                # The record's own checks raise, with its message.
                TraceTaskRecord(job_id, idx, start, end, cpu, mem)
            starts.append(start)
            ends.append(end)
            cpus.append(cpu)
            mems.append(mem)
            start += float(exponential(stagger))
        return starts, ends, cpus, mems

    def trace(
        self, jobs: Sequence[tuple[str, int]], inter_job_gap: float = 60.0
    ) -> list[TraceTaskRecord]:
        """Generate records for several jobs, each offset by exponential
        inter-arrival gaps (mean *inter_job_gap* seconds)."""
        records: list[TraceTaskRecord] = []
        job_start = 0.0
        for job_id, num_tasks in jobs:
            records.extend(self.job_records(job_id, num_tasks, job_start))
            job_start += float(self._rng.exponential(inter_job_gap))
        return records
