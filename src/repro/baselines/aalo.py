"""Aalo coflow scheduler [Chowdhury & Stoica, SIGCOMM'15], adapted per §V.

Aalo schedules *coflows* without prior knowledge using Discretized
Coflow-Aware Least-Attained-Service: coflows live in priority queues with
exponentially spaced thresholds on the data they have already sent; within
a queue, coflows are served FIFO; lower queues (less attained service) are
served first.  All flows of one coflow share a queue, which is how Aalo
"satisfies the dependency constraint".

Following the paper's mapping — a job is a coflow, its tasks are the flows
— our adaptation plans per scheduling batch:

* each job's *attained service* is the total work (MI) of the job observed
  so far in the batch planning pass, discretized into queues by
  exponentially growing thresholds;
* jobs are served in (queue, arrival) order — FIFO within a queue, lower
  queues first;
* each job's tasks are placed topologically (parents before children —
  the same-queue rule) onto the node with the earliest free lane
  (least-loaded placement; Aalo itself does not optimize placement);
* deadlines are ignored — the paper stresses "Aalo does not consider the
  deadlines of coflows".

On the shared :class:`~repro.core.lanes.LanePlanner` loop it contributes
FCFS's order key with the job's queue in front, ``(queue, job position
by (arrival, id), topological index)``, and earliest-start placement.
"""

from __future__ import annotations

from typing import Sequence

from ..core.lanes import LanePlanner
from ..dag.job import Job
from .fcfs import arrival_keys

__all__ = ["AaloScheduler"]

#: Attained-service threshold of the first queue (MI); queue *q* spans
#: ``[BASE_THRESHOLD_MI * QUEUE_FACTOR^(q-1), BASE_THRESHOLD_MI *
#: QUEUE_FACTOR^q)``.  1e6 MI separates the workload builder's
#: small/medium/large job classes into distinct queues, mirroring how
#: Aalo's data thresholds separate coflow size classes.
BASE_THRESHOLD_MI = 1_000_000.0
#: Exponential spacing between queue thresholds (Aalo uses 10).
QUEUE_FACTOR = 10.0
#: Number of discrete queues (Aalo uses ~10).
NUM_QUEUES = 10


class AaloScheduler(LanePlanner):
    """Discretized coflow-aware FIFO planning over job (coflow) queues."""

    name = "Aalo"
    eft = False

    def queue_of(self, job: Job) -> int:
        """Discretized queue index (0-based) for a job by its total work."""
        work = job.total_work_mi()
        threshold = BASE_THRESHOLD_MI
        for q in range(NUM_QUEUES - 1):
            if work < threshold:
                return q
            threshold *= QUEUE_FACTOR
        return NUM_QUEUES - 1

    def order_keys(self, jobs: Sequence[Job]) -> dict[str, tuple[int, int, int]]:
        """Lower queues first, FIFO by (arrival, job id) within a queue."""
        return arrival_keys(jobs, self.queue_of)
