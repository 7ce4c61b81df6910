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

__all__ = ["infer_dependencies", "infer_from_columns"]


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
    return infer_from_columns(
        [r.task_index for r in records],
        [r.start_time for r in records],
        [r.end_time for r in records],
        max_levels,
        max_dependents,
        max_parents,
    )


def infer_from_columns(
    indices: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
    max_levels: int = MAX_LEVELS,
    max_dependents: int = MAX_DEPENDENTS,
    max_parents: int = 3,
) -> dict[int, tuple[int, ...]]:
    """:func:`infer_dependencies` over one job's records given as aligned
    columns (task index, start time, end time), as
    :meth:`~repro.trace.google_trace.GoogleTraceGenerator.job_columns`
    draws them: the same parent map."""
    if max_levels < 1:
        raise ValueError(f"max_levels must be >= 1, got {max_levels}")
    if max_dependents < 0:
        raise ValueError(f"max_dependents must be >= 0, got {max_dependents}")
    if max_parents < 1:
        raise ValueError(f"max_parents must be >= 1, got {max_parents}")

    # Start-time order, ties by index, then by position (a stable sort).
    ordered = sorted(zip(starts, indices, range(len(indices)), ends))
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
    may_parent = max_dependents > 0
    bisect_right, insort, inf = bisect.bisect_right, bisect.insort, math.inf

    for start, index, _pos, end in ordered:
        hi = bisect_right(eligible, (start, inf))
        lo = hi - max_parents if hi > max_parents else 0
        if lo == hi:
            parents[index] = ()
            depth = 1
        else:
            chosen = sorted([-entry[1] for entry in eligible[lo:hi]])
            parents[index] = tuple(chosen)
            depth = 0
            saturated = False
            for c in chosen:
                if level[c] > depth:
                    depth = level[c]
                count = child_count.get(c, 0) + 1
                child_count[c] = count
                if count >= max_dependents:
                    saturated = True
            depth += 1
            if saturated:
                eligible[lo:hi] = [
                    e for e in eligible[lo:hi] if child_count[-e[1]] < max_dependents
                ]
        level[index] = depth
        if depth < max_levels and may_parent:
            insort(eligible, (end, -index))

    return parents
