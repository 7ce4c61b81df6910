"""Dependency-aware task priority (Eq. 12–13).

The priority of a task with no (remaining) dependents is a weighted blend
of urgency signals (Eq. 13):

.. math::

    P = \\omega_1 \\frac{1}{t^{rem}} + \\omega_2 t^w + \\omega_3 t^a

— shorter remaining time, longer waiting and more allowable slack all raise
it.  A task with dependents inherits priority from them recursively
(Eq. 12):

.. math::

    P_{ij} = \\sum_{T_{ik} \\in S_{ij}} (\\gamma + 1) P_{ik}

so a task with more dependents — and especially dependents that themselves
fan out at deeper levels — scores higher, which is exactly the Fig. 3
ordering (T11 > T6 > T1).  Completed children no longer gate anything and
are excluded from :math:`S_{ij}`.

The evaluator is stateless across epochs; each call re-evaluates from the
caller-supplied runtime signals, memoizing over a reverse topological order
so the recursion costs O(V + E) per epoch.  It is the *reference*
implementation, the test oracle for the simulator's vectorized scorer
(:class:`repro.sim.arraycore.ArrayCore`, which must match it bit for
bit), and the public stateless API for examples and ablation benches
(see ``docs/api.md``).  :func:`priorities_for` is its lazy per-subgraph
form over a caller-owned children map — the path a DSP policy scored with
non-engine parameters takes over the engine's live structure.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .._util import check_non_negative
from ..config import DSPConfig
from ..dag.graph import topological_order
from ..dag.task import Task

__all__ = ["PriorityEvaluator", "leaf_priority", "priorities_for"]

#: Floor applied to remaining time before taking its reciprocal, so tasks
#: an instant from completion get a large-but-finite priority boost.
_REMAINING_FLOOR = 1e-6


def leaf_priority(
    config: DSPConfig, remaining: float, waiting: float, allowable: float
) -> float:
    """Eq. 13 for one dependent-free task.

    *remaining* must be >= 0 (floored internally before the reciprocal);
    *waiting* must be >= 0; *allowable* may be negative for tasks already
    past their slack (this lowers the score, but such tasks are rescued by
    the urgent-task path of Algorithm 1, not by priority).
    """
    check_non_negative(remaining, "remaining")
    check_non_negative(waiting, "waiting")
    return (
        config.omega_remaining / max(remaining, _REMAINING_FLOOR)
        + config.omega_waiting * waiting
        + config.omega_allowable * allowable
    )


class PriorityEvaluator:
    """Evaluates Eq. 12–13 over a task set.

    Parameters
    ----------
    config:
        Supplies γ and the ω weights.
    tasks:
        Mapping task_id → :class:`Task`; dependencies must stay within the
        mapping (the simulator passes the union of all jobs' tasks —
        cross-job edges do not exist, see §VI future work).

    The reverse topological order and children map are computed once at
    construction; :meth:`compute` is then O(V + E) per call.
    """

    def __init__(self, config: DSPConfig, tasks: Mapping[str, Task]):
        self._config = config
        self._tasks = dict(tasks)
        order = topological_order(self._tasks)
        self._reverse_order: list[str] = list(reversed(order))
        children: dict[str, list[str]] = {tid: [] for tid in self._tasks}
        for task in self._tasks.values():
            for parent in task.parents:
                children[parent].append(task.task_id)
        self._children: dict[str, tuple[str, ...]] = {
            tid: tuple(kids) for tid, kids in children.items()
        }

    @property
    def config(self) -> DSPConfig:
        """The configuration this evaluator scores with."""
        return self._config

    def children_of(self, task_id: str) -> tuple[str, ...]:
        """Direct dependents of *task_id* (the paper's :math:`S_{ij}`)."""
        return self._children[task_id]

    def compute(
        self,
        remaining: Mapping[str, float],
        waiting: Mapping[str, float],
        allowable: Mapping[str, float],
        completed: Iterable[str] = (),
    ) -> dict[str, float]:
        """Priorities of every non-completed task at one instant.

        Parameters
        ----------
        remaining, waiting, allowable:
            Runtime signals per task id (:math:`t^{rem}`, :math:`t^w`,
            :math:`t^a`).  Only consulted for tasks whose dependents have
            all completed (the Eq. 13 leaves of the *remaining* DAG).
        completed:
            Task ids already finished; they are excluded both as outputs
            and from every :math:`S_{ij}`.

        Returns
        -------
        dict task_id → priority, covering exactly the non-completed tasks.
        """
        done = set(completed)
        gamma1 = self._config.gamma + 1.0
        priority: dict[str, float] = {}
        for tid in self._reverse_order:
            if tid in done:
                continue
            live_children = [c for c in self._children[tid] if c not in done]
            if live_children:
                priority[tid] = gamma1 * sum(priority[c] for c in live_children)
            else:
                priority[tid] = leaf_priority(
                    self._config, remaining[tid], waiting[tid], allowable[tid]
                )
        return priority

    def compute_for(
        self,
        task_ids: Iterable[str],
        remaining_fn: Callable[[str], float],
        waiting_fn: Callable[[str], float],
        allowable_fn: Callable[[str], float],
        completed_fn: Callable[[str], bool],
    ) -> dict[str, float]:
        """Priorities of just *task_ids*, pulling signals lazily (see
        :func:`priorities_for`) over this evaluator's children map."""
        return priorities_for(
            self._config,
            task_ids,
            self._children,
            remaining_fn=remaining_fn,
            waiting_fn=waiting_fn,
            allowable_fn=allowable_fn,
            completed_fn=completed_fn,
        )

    def compute_single(
        self,
        task_id: str,
        remaining: Mapping[str, float],
        waiting: Mapping[str, float],
        allowable: Mapping[str, float],
        completed: Iterable[str] = (),
    ) -> float:
        """Priority of one task (computes the full pass; convenience for
        tests and examples, not for hot loops)."""
        return self.compute(remaining, waiting, allowable, completed)[task_id]


def priorities_for(
    config: DSPConfig,
    task_ids: Iterable[str],
    children: Mapping[str, Sequence[str]],
    remaining_fn: Callable[[str], float],
    waiting_fn: Callable[[str], float],
    allowable_fn: Callable[[str], float],
    completed_fn: Callable[[str], bool],
) -> dict[str, float]:
    """Eq. 12–13 priorities of just *task_ids*, pulling signals lazily.

    The Eq. 12 recursion only touches a task's descendants, so scoring
    one node's queue costs O(descendant subgraph), not O(all tasks).
    *children* maps each task to its direct dependents and is read, never
    copied, so a live map (the engine's, which grows and shrinks with
    streaming admission and retirement) stays current; its order is the
    summation order.
    """
    gamma1 = config.gamma + 1.0
    memo: dict[str, float] = {}

    def score(tid: str) -> float:
        cached = memo.get(tid)
        if cached is not None:
            return cached
        # Iterative post-order DFS to avoid recursion limits on deep
        # DAGs.  The live-children list rides on the expansion frame,
        # so it is filtered exactly once per visited node (a plain
        # (node, expanded) flag would rebuild it on the fold visit).
        stack: list[tuple[str, list[str] | None]] = [(tid, None)]
        while stack:
            cur, live = stack.pop()
            if live is not None:
                memo[cur] = gamma1 * sum(memo[c] for c in live)
                continue
            if cur in memo:
                continue
            live = [c for c in children[cur] if not completed_fn(c)]
            if live:
                stack.append((cur, live))
                for c in live:
                    if c not in memo:
                        stack.append((c, None))
            else:
                memo[cur] = leaf_priority(
                    config,
                    remaining_fn(cur),
                    waiting_fn(cur),
                    allowable_fn(cur),
                )
        return memo[tid]

    return {tid: score(tid) for tid in task_ids}
