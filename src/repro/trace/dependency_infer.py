"""Dependency inference from trace execution windows (§V).

The paper constructs each job's DAG from the Google trace with one rule:

    "When there is no overlap between the execution times of two tasks of
     a job, we can create a dependency relationship between the two tasks."

subject to two structural caps taken from Graphene's measurements: at most
five DAG levels and at most fifteen dependents per task.

:func:`infer_dependencies` implements that rule deterministically: tasks
are scanned in start-time order; each task adopts as parents the most
recently finished tasks whose windows precede it, skipping candidates that
would exceed the level cap or whose dependent count is saturated.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

from ..dag.generators import MAX_DEPENDENTS, MAX_LEVELS
from .google_trace import TraceTaskRecord

__all__ = ["infer_dependencies"]


def infer_dependencies(
    records: Sequence[TraceTaskRecord],
    max_levels: int = MAX_LEVELS,
    max_dependents: int = MAX_DEPENDENTS,
    max_parents: int = 3,
) -> dict[int, tuple[int, ...]]:
    """Infer a parent map for one job's trace records.

    Parameters
    ----------
    records:
        Records of a *single* job (mixed jobs raise ``ValueError``).
    max_levels:
        Depth cap L of the produced DAG (paper: 5).
    max_dependents:
        Cap on children per task (paper: 15).
    max_parents:
        Cap on parents per task; the paper does not state one, but without
        it the rule produces near-complete DAGs on long staggered jobs, so
        we link each task to at most this many of its most recent
        predecessors.

    Returns
    -------
    dict mapping ``task_index`` → tuple of parent ``task_index`` values.
    Tasks whose window overlaps every earlier window become roots.

    The result is guaranteed acyclic: a parent's execution window ends
    strictly before the child's begins, so edges follow time.  Its keys
    run in start-time order (ties by index), and a parent is only ever
    chosen from records already visited, so the key order is a
    topological order of the inferred DAG.
    """
    if not records:
        return {}
    job_ids = {r.job_id for r in records}
    if len(job_ids) > 1:
        raise ValueError(f"records must belong to one job, got {sorted(job_ids)}")
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if max_dependents < 0:
        raise ValueError(f"max_dependents must be >= 0, got {max_dependents}")
    if max_parents < 1:
        raise ValueError(f"max_parents must be >= 1, got {max_parents}")

    ordered = sorted(records, key=lambda r: (r.start_time, r.task_index))
    parents: dict[int, tuple[int, ...]] = {}
    level: dict[int, int] = {}
    child_count: dict[int, int] = {}
    # The records that may still become parents, as (end_time,
    # -task_index) in sorted order.  Those ending by a start time are a
    # prefix, and read backwards that prefix is the candidate order: most
    # recent enders first, ties by index.  A record at the level cap or
    # with a full set of dependents can never be chosen again, so it
    # leaves the list (or never enters it) and every entry is eligible.
    eligible: list[tuple[float, int]] = []

    for rec in ordered:
        hi = bisect.bisect_right(eligible, (rec.start_time, math.inf))
        lo = max(0, hi - max_parents)
        chosen = [-entry[1] for entry in eligible[lo:hi]]
        parents[rec.task_index] = tuple(sorted(chosen))
        level[rec.task_index] = 1 + max((level[c] for c in chosen), default=0)
        for c in chosen:
            child_count[c] = child_count.get(c, 0) + 1
        if any(child_count[c] >= max_dependents for c in chosen):
            eligible[lo:hi] = [e for e in eligible[lo:hi] if child_count[-e[1]] < max_dependents]
        if level[rec.task_index] < max_levels and max_dependents > 0:
            bisect.insort(eligible, (rec.end_time, -rec.task_index))

    return parents
