"""Graphene-lite: trouble-first DAG packing [Grandl et al., OSDI'16].

The paper positions Graphene as the strongest related DAG scheduler
(§II): it identifies the *troublesome* tasks — long-running ones and ones
with tough-to-pack resource demands — places them first, and packs the
remaining tasks around that skeleton.  The paper does not benchmark
against it, so this implementation is an **extension baseline**: a
simplified single-objective Graphene that keeps the trouble-first
ordering idea while reusing this repo's lane-timeline placement.

Trouble score per task (both terms normalized to the batch):

``trouble = duration_score + packability_score``

* ``duration_score`` — execution time at the mean rate over the batch max;
* ``packability_score`` — the task's dominant resource share (a task that
  nearly fills one dimension fragments nodes and is hard to pack late).

Troublesome tasks (the top quartile by score) are placed first, then
everyone else, with precedence always respected: a task enters the ready
frontier once its parents are placed, and the frontier pops troublesome
tasks before the rest.  On the shared :class:`~repro.core.lanes.LanePlanner`
loop that is the order key ``(0 if troublesome else 1, -score)`` with
earliest-finish-time placement.  Like TetrisW/SimDep, Graphene-lite sees
*structure* but not the paper's dependents-unlocked objective, which is
the gap DSP exploits.
"""

from __future__ import annotations

from typing import Sequence

from ..core.lanes import LanePlanner
from ..dag.job import Job

__all__ = ["GrapheneLiteScheduler"]

#: Fraction of a batch's tasks (by trouble score, descending) treated as
#: troublesome and placed first (Graphene's T ≈ the long/tough subset).
TROUBLE_QUANTILE = 0.25


class GrapheneLiteScheduler(LanePlanner):
    """Trouble-first DAG packing with EFT placement."""

    name = "Graphene-lite"

    # -- trouble scoring -----------------------------------------------------
    def trouble_scores(self, jobs: Sequence[Job]) -> dict[str, float]:
        """duration + packability, both normalized to the batch."""
        exec_time: dict[str, float] = {}
        share: dict[str, float] = {}
        max_cap = {
            d: max(n.capacity.as_tuple()[d] for n in self._cluster) for d in range(4)
        }
        for job in jobs:
            for tid, task in job.tasks.items():
                exec_time[tid] = task.size_mi / self._mean_rate
                demand = task.demand.as_tuple()
                share[tid] = max(
                    (demand[d] / max_cap[d] for d in range(4) if max_cap[d] > 0),
                    default=0.0,
                )
        if not exec_time:
            return {}
        max_exec = max(exec_time.values()) or 1.0
        return {
            tid: exec_time[tid] / max_exec + share[tid] for tid in exec_time
        }

    def order_keys(self, jobs: Sequence[Job]) -> dict[str, tuple[int, float]]:
        """Troublesome tasks first, each group by descending score."""
        scores = self.trouble_scores(jobs)
        cutoff = max(1, int(len(scores) * TROUBLE_QUANTILE))
        troublesome = set(sorted(scores, key=scores.get, reverse=True)[:cutoff])
        return {
            tid: (0 if tid in troublesome else 1, -score) for tid, score in scores.items()
        }
