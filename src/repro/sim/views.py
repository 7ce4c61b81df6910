"""The per-node signal gather for the claim-loop policies.

The baselines (Natjam, Amoeba, SRPT) decide over one
:class:`NodeSignals` per contended node per epoch tick
(:class:`~repro.sim.policy.ClaimPolicy`).  :class:`ViewCache` builds it
without keeping any state between calls: the running set in sorted
order, then the queue head (:data:`VIEW_QUEUE_LIMIT` tasks), with the
time-varying signals taken from one
:meth:`~repro.sim.arraycore.ArrayCore.view_signals` call over the array
mirror — the scalar formulas of :class:`~repro.sim.executor.TaskRuntime`
bit for bit (same float ops in the same order — see the array-core
module docstring) — and the static attributes read from the live
:class:`~repro.sim.state.SimState`.  DSP visits nodes in the same order
under the same queue limit but never gathers these signals
(:mod:`repro.core.preemption`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .executor import NodeRuntime
from .state import SimRuntime

__all__ = ["VIEW_QUEUE_LIMIT", "NodeSignals", "ViewCache"]

#: How many waiting tasks, from the queue head, a policy sees per node
#: per epoch.  Algorithm 1 only examines the first δ-fraction of a queue
#: plus urgent tasks near its head, so the bounded window keeps the epoch
#: cost independent of backlog length.
VIEW_QUEUE_LIMIT = 32


@dataclass(frozen=True, slots=True)
class NodeSignals:
    """One node's tasks at an epoch boundary, as aligned columns.

    ``ids`` holds the sorted running set, then the queue head in queue
    order (ascending planned start — Fig. 4); ``split`` is where the
    running set ends.  Per task, aligned with ``ids``:

    * ``remaining`` — :math:`t^{rem}` at the node's rate (seconds),
      including pending recovery cost;
    * ``waiting`` — :math:`t^w`, the accumulated queued wait (seconds);
    * ``preemptable`` — occupying capacity and under the preemption cap;
    * ``footprint`` — ℓ1 size of the demand vector (the "most resources"
      signal Amoeba and Natjam evict by);
    * ``weight``, ``deadline`` — the owning job's weight and absolute
      deadline.
    """

    ids: Sequence[str]
    split: int
    remaining: Sequence[float]
    waiting: Sequence[float]
    preemptable: Sequence[bool]
    footprint: Sequence[float]
    weight: Sequence[float]
    deadline: Sequence[float]


class ViewCache:
    """Gathers per-node :class:`NodeSignals` from the array mirror
    (stateless)."""

    def __init__(self, runtime: SimRuntime) -> None:
        self._rt = runtime

    def build(self, node: NodeRuntime, now: float) -> NodeSignals:
        """Gather *node*'s signals at *now* for the preemption policy."""
        rt = self._rt
        state = rt.state
        running = sorted(node.running)
        ids = running + node.queued_ids(VIEW_QUEUE_LIMIT)
        remaining, waiting, preemptable = rt.array.view_signals(
            rt.array.rows_of(ids), now, node.rate, rt.max_preemptions
        )
        jobs = [state.jobs[state.job_of[tid]] for tid in ids]
        return NodeSignals(
            ids=tuple(ids),
            split=len(running),
            remaining=remaining,
            waiting=waiting,
            preemptable=preemptable,
            footprint=[state.static_tasks[tid].demand.norm1() for tid in ids],
            weight=[job.weight for job in jobs],
            deadline=[job.deadline for job in jobs],
        )
