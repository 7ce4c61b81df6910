"""DAG operations over a job's task set.

The paper leans on three structural notions:

* **children / dependents** — Eq. 12's recursion runs over the set
  :math:`S_{ij}` of tasks that directly depend on :math:`T_{ij}`;
* **levels** — per-level task deadlines (§IV-B) need the partition of the
  DAG into levels 1..L, where a task's level is the length of the longest
  chain from any root to it;
* **chains** — the ILP of §III is written over the chain decomposition
  :math:`C_i^q` of each job.

All functions here are pure: they take mappings and return new structures,
so they are trivially testable and cacheable.  Cycle detection and
topological orders are one Kahn pass over the parent tuples
(:func:`topological_order`), linear in tasks plus edges up to the ready
heap's logarithm; :func:`order_and_children` keeps the pass's child lists
as the children map, so a job inverts its parent relation once.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Mapping

from .task import Task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job import Job

__all__ = [
    "build_children_map",
    "batch_children",
    "validate_acyclic",
    "topological_order",
    "order_and_children",
    "compute_levels",
    "level_partition",
    "enumerate_chains",
    "descendants_by_depth",
    "critical_path_length",
    "DependencyCycleError",
    "UnknownParentError",
]


class DependencyCycleError(ValueError):
    """Raised when a task set's dependency relation contains a cycle."""


class UnknownParentError(KeyError):
    """Raised when a task references a parent id that is not in the set."""


def build_children_map(tasks: Mapping[str, Task]) -> dict[str, tuple[str, ...]]:
    """Invert the parent relation: ``children[t]`` is the tuple of direct
    dependents of *t* (the paper's :math:`S_{ij}`), in deterministic order."""
    children: dict[str, list[str]] = {tid: [] for tid in tasks}
    for task in tasks.values():
        for parent in task.parents:
            if parent not in children:
                raise UnknownParentError(
                    f"task {task.task_id!r} references unknown parent {parent!r}"
                )
            children[parent].append(task.task_id)
    return {tid: tuple(sorted(kids)) for tid, kids in children.items()}


def batch_children(jobs: Iterable["Job"]) -> dict[str, tuple[str, ...]]:
    """Union of the jobs' children maps — the dependent relation of one
    scheduling batch.

    Cross-job dependency edges do not exist, so merging the per-job maps
    is exact.  Offline schedulers should call this once per scheduling
    round instead of re-inverting every task's parent list:
    :attr:`repro.dag.job.Job.children` is a cached property, so each
    job's map is derived once per process and a round costs one dict
    update per job.
    """
    children: dict[str, tuple[str, ...]] = {}
    for job in jobs:
        children.update(job.children)
    return children


def validate_acyclic(tasks: Mapping[str, Task]) -> None:
    """Raise :class:`DependencyCycleError` when the dependency relation has
    a cycle; otherwise return silently."""
    topological_order(tasks)


def topological_order(tasks: Mapping[str, Task]) -> list[str]:
    """A deterministic topological order of task ids (parents first).

    Determinism matters for reproducibility: among the tasks whose parents
    are all placed, the smallest id goes next, so the same workload yields
    the same order on every run and platform.  One Kahn pass over the
    parent tuples with a heap of ready ids; it doubles as the acyclicity
    check, raising :class:`UnknownParentError` for a dangling parent and
    :class:`DependencyCycleError` naming a cycle when tasks are left over.
    """
    return _kahn(tasks)[0]


def order_and_children(
    tasks: Mapping[str, Task],
) -> tuple[list[str], dict[str, tuple[str, ...]]]:
    """:func:`topological_order` and :func:`build_children_map` from one
    Kahn pass: the child lists the pass builds become the children map
    (sorted, as :func:`build_children_map` returns them).

    When the ids ascend in mapping order and every parent comes before
    its child, that order is the topological order (the Kahn pass would
    pop the smallest ready id each time, which is always the next one),
    and one scan checks it; any other mapping takes the Kahn pass, which
    also names the unknown parent or the cycle.
    """
    children = _ascending_children(tasks)
    if children is not None:
        # Appended in ascending id order: already sorted.
        return list(children), {tid: tuple(kids) for tid, kids in children.items()}
    order, children = _kahn(tasks)
    return order, {tid: tuple(sorted(kids)) for tid, kids in children.items()}


def _ascending_children(
    tasks: Mapping[str, Task],
) -> dict[str, list[str]] | None:
    """The child lists of *tasks* if its ids ascend in mapping order and
    every parent comes before its child, else None."""
    children: dict[str, list[str]] = {}
    last = ""
    for tid, task in tasks.items():
        if tid <= last:
            return None
        for parent in task.parents:
            kids = children.get(parent)
            if kids is None:
                return None  # unknown, or later in the mapping
            kids.append(tid)
        children[tid] = []
        last = tid
    return children


def _kahn(
    tasks: Mapping[str, Task],
) -> tuple[list[str], dict[str, list[str]]]:
    """The Kahn pass behind :func:`topological_order`: the order and the
    child lists (in task order) it inverted the parent relation into."""
    children: dict[str, list[str]] = {tid: [] for tid in tasks}
    waiting: dict[str, int] = {}
    ready: list[str] = []
    for tid, task in tasks.items():
        parents = task.parents
        for parent in parents:
            kids = children.get(parent)
            if kids is None:
                raise UnknownParentError(
                    f"task {tid!r} references unknown parent {parent!r}"
                )
            kids.append(tid)
        if parents:
            waiting[tid] = len(parents)
        else:
            ready.append(tid)
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for kid in children[tid]:
            left = waiting[kid] - 1
            if left:
                waiting[kid] = left
            else:
                del waiting[kid]
                heapq.heappush(ready, kid)
    if waiting:
        raise DependencyCycleError(f"dependency cycle: {_cycle_path(tasks, waiting)}")
    return order, children


def _cycle_path(tasks: Mapping[str, Task], unplaced: Mapping[str, int]) -> str:
    """One cycle among the tasks a Kahn pass could not place, as
    ``a -> b -> a`` (each arrow a parent → child edge).

    Every unplaced task has an unplaced parent, so walking from the
    smallest unplaced id to its smallest unplaced parent, again and again,
    must revisit a task; the stretch between the two visits is a cycle,
    read backwards.
    """
    walk = [min(unplaced)]
    seen = {walk[0]: 0}
    while True:
        parent = min(p for p in tasks[walk[-1]].parents if p in unplaced)
        if parent in seen:
            cycle = walk[seen[parent]:] + [parent]
            return " -> ".join(reversed(cycle))
        seen[parent] = len(walk)
        walk.append(parent)


def compute_levels(tasks: Mapping[str, Task]) -> dict[str, int]:
    """Level of each task: 1 + length of the longest chain from a root.

    Roots are level 1; the maximum value is the paper's L.  Runs in
    O(V + E) over a topological order.
    """
    levels: dict[str, int] = {}
    for tid in topological_order(tasks):
        parents = tasks[tid].parents
        levels[tid] = 1 + max((levels[p] for p in parents), default=0)
    return levels


def level_partition(tasks: Mapping[str, Task]) -> list[list[str]]:
    """Partition task ids into levels: element ``i`` holds level ``i+1``.

    Each inner list is sorted for determinism.  The result's length is the
    DAG depth L.
    """
    levels = compute_levels(tasks)
    if not levels:
        return []
    depth = max(levels.values())
    buckets: list[list[str]] = [[] for _ in range(depth)]
    for tid, lvl in levels.items():
        buckets[lvl - 1].append(tid)
    for bucket in buckets:
        bucket.sort()
    return buckets


def enumerate_chains(
    tasks: Mapping[str, Task], max_chains: int | None = None
) -> list[tuple[str, ...]]:
    """Enumerate root→sink chains (the paper's :math:`C_i^q`).

    The number of chains can be exponential in pathological DAGs, so
    *max_chains* bounds the enumeration (``None`` = unbounded).  Chains are
    produced in lexicographic DFS order for determinism.
    """
    children = build_children_map(tasks)
    roots = sorted(tid for tid, t in tasks.items() if t.is_root)
    if not roots and tasks:
        raise DependencyCycleError("task set has no root; dependency cycle")
    chains: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(r, (r,)) for r in reversed(roots)]
    while stack:
        tid, path = stack.pop()
        kids = children[tid]
        if not kids:
            chains.append(path)
            if max_chains is not None and len(chains) >= max_chains:
                return chains
            continue
        for kid in reversed(kids):
            stack.append((kid, path + (kid,)))
    return chains


def descendants_by_depth(
    tasks: Mapping[str, Task], task_id: str
) -> list[list[str]]:
    """Descendants of *task_id* grouped by depth below it.

    Element 0 holds the direct children ("first level" in Fig. 3), element
    1 their children, and so on; a task appearing at several depths is
    reported at its *shallowest* depth, matching the figure's reading.
    """
    if task_id not in tasks:
        raise KeyError(task_id)
    children = build_children_map(tasks)
    seen: set[str] = {task_id}
    frontier: list[str] = [task_id]
    out: list[list[str]] = []
    while frontier:
        nxt: set[str] = set()
        for tid in frontier:
            for kid in children[tid]:
                if kid not in seen:
                    nxt.add(kid)
        if not nxt:
            break
        seen |= nxt
        layer = sorted(nxt)
        out.append(layer)
        frontier = layer
    return out


def critical_path_length(
    tasks: Mapping[str, Task],
    exec_time: Mapping[str, float],
    order: Iterable[str] | None = None,
) -> float:
    """Length of the longest path through the DAG when each task *t* costs
    ``exec_time[t]`` — the lower bound on any schedule's makespan and the
    basis of the per-level deadline computation.

    *order* is a topological order of *tasks* the caller already holds
    (parents first); without it one is computed.
    """
    finish: dict[str, float] = {}
    for tid in topological_order(tasks) if order is None else order:
        parents = tasks[tid].parents
        start = max([finish[p] for p in parents]) if parents else 0.0
        finish[tid] = start + exec_time[tid]
    return max(finish.values(), default=0.0)
