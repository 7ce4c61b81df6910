"""DSP's dependency-aware task preemption (§IV-B, Algorithm 1).

Per epoch and per node queue the engine hands us a snapshot; we decide
which waiting tasks evict which running tasks:

1. **Urgent pass** (Algorithm 1 lines 3–11): waiting tasks whose allowable
   waiting time has dropped to ε, or that have waited beyond τ, evict the
   lowest-priority preemptable running task they do not depend on —
   unconditionally (deadline protection beats priority).
2. **Priority pass** (lines 12–19): the first δ-fraction of the queue
   (*preempting tasks*) try, in queue order, to evict the lowest-priority
   preemptable running task satisfying

   * **C1** — the waiting task's priority strictly exceeds the victim's;
   * **C2** — the waiting task does not (transitively) depend on the
     victim;
   * **PP** (normalized priority; §IV-B last part): the raw gap
     :math:`\\hat P` must be large on the *global* priority scale —
     :math:`\\tilde P = \\hat P / \\bar P > \\rho` where :math:`\\bar P`
     is the mean gap between priority-adjacent tasks.  PP is what
     suppresses churn whose context-switch cost outweighs its gain;
     disabling it yields the paper's DSPW/oPP variant.

   If C1 fails against the lowest-priority candidate it fails against all
   (the list is sorted), so the scan stops; C2 failures skip to the next
   candidate.

Only running tasks whose allowable waiting time exceeds the epoch length
are *preemptable* — evicting anything tighter would make it miss its own
deadline (§IV-B).

Priorities come from Eq. 12–13.  When this policy's config scores like
the engine's (same γ and ω weights), the policy adopts the engine's
:class:`~repro.sim.arraycore.ArrayCore` and runs Algorithm 1 straight off
its columns (:meth:`DSPPreemption.select_preemptions_from_core`), with no
``TaskView`` snapshot at all.  Otherwise the engine hands it snapshots
(:meth:`DSPPreemption.select_preemptions`) and the policy scores them
itself with :func:`~repro.core.priority.priorities_for`, evaluated lazily
over the descendant subgraphs of the snapshot's tasks through the
engine's live children map and signals
(:class:`~repro.sim.engine.SimContext`).  The snapshot path is also the
test oracle for the column path: ``tests/test_sched_core.py`` checks the
two decide identically at every epoch of a seeded chaos run.
"""

from __future__ import annotations

import math
from typing import Sequence

from .._util import pairwise_mean_gap
from ..config import DSPConfig
from ..sim.policy import (
    NodeView,
    PreemptionDecision,
    PreemptionPolicy,
    TaskView,
    preemptable_victims,
)
from .priority import priorities_for

__all__ = ["DSPPreemption"]


class DSPPreemption(PreemptionPolicy):
    """Algorithm 1 with (DSP) or without (DSPW/oPP) the PP filter.

    Parameters
    ----------
    config:
        Table II parameters; ``config.use_pp`` selects the variant and is
        reflected in :attr:`name` (``"DSP"`` vs ``"DSPW/oPP"``).
    """

    respects_dependencies = True
    uses_checkpointing = True

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()
        self.name = "DSP" if self._config.use_pp else "DSPW/oPP"
        self._core = None
        self._ctx = None

    # -- engine handshake ---------------------------------------------------
    def attach(self, ctx) -> None:
        """Receive the engine facade and adopt the engine's array core
        when it scores with this policy's parameters (see module
        docstring); otherwise score snapshots through the facade."""
        self._ctx = ctx
        core = getattr(ctx, "priority_index", None)
        self._core = (
            core if core is not None and core.scores_like(self._config) else None
        )

    # -- decision logic -------------------------------------------------------
    def _priorities(self, view: NodeView) -> dict[str, float]:
        """Eq. 12–13 scores for every task in the snapshot, recomputed
        over the engine's live children map and signals."""
        ctx = self._ctx
        assert ctx is not None, "DSPPreemption used before attach()"
        wanted = [t.task_id for t in view.running] + [t.task_id for t in view.waiting]
        return priorities_for(
            self._config,
            wanted,
            ctx.children,
            remaining_fn=ctx.remaining_time,
            waiting_fn=ctx.waiting_time,
            allowable_fn=ctx.allowable_wait,
            completed_fn=ctx.is_completed,
        )

    def select_preemptions(self, view: NodeView) -> Sequence[PreemptionDecision]:
        if not view.waiting or not view.running:
            return ()
        priority = self._priorities(view)

        # Preemptable running tasks, ascending priority (Algorithm 1 line 2),
        # through the same victim-scan substrate the baselines use.
        available = preemptable_victims(
            view,
            key=lambda r: (priority[r.task_id], r.task_id),
            eligible=lambda r: r.allowable_wait > view.epoch,
        )
        if not available:
            return ()

        # The PP scale (mean neighbour gap of the snapshot's sorted
        # priorities) is a property of the whole snapshot, not of one
        # candidate pair — compute it once per node per epoch.
        mean_gap = (
            pairwise_mean_gap(sorted(priority.values()))
            if self._config.use_pp
            else 0.0
        )

        decisions: list[PreemptionDecision] = []
        decided: set[str] = set()

        def take_victim(waiting: TaskView, require_c1: bool, require_pp: bool) -> bool:
            """Scan candidates ascending; apply C2/C1/PP; consume on success."""
            p_wait = priority[waiting.task_id]
            for idx, victim in enumerate(available):
                if victim.task_id in waiting.depends_on_running:
                    continue  # C2: never evict an ancestor
                p_run = priority[victim.task_id]
                gap = p_wait - p_run
                if require_c1:
                    if gap <= 0:
                        return False  # sorted: every later victim is higher
                    if require_pp and not self._pp_allows(gap, mean_gap):
                        # PP rejects this victim; a higher-priority victim
                        # has an even smaller gap, so stop scanning.
                        return False
                decisions.append(
                    PreemptionDecision(
                        preempting_task_id=waiting.task_id,
                        victim_task_id=victim.task_id,
                    )
                )
                del available[idx]
                decided.add(waiting.task_id)
                return True
            return False

        # Pass 1 — urgent tasks (t_a <= ε or t_w >= τ): preempt regardless
        # of C1/PP, still honouring C2.
        for waiting in view.waiting:
            if not available:
                break
            if waiting.task_id in decided or not waiting.is_runnable:
                continue
            if (
                waiting.allowable_wait <= self._config.epsilon
                or waiting.overdue_waiting_time >= self._config.tau
            ):
                take_victim(waiting, require_c1=False, require_pp=False)

        # Pass 2 — the first δ-fraction of the queue, priority-gated.
        head = max(1, math.ceil(self._config.delta * len(view.waiting)))
        for waiting in view.waiting[:head]:
            if not available:
                break
            if waiting.task_id in decided or not waiting.is_runnable:
                continue
            take_victim(waiting, require_c1=True, require_pp=self._config.use_pp)

        return decisions

    # -- array fast path ------------------------------------------------------
    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision] | None:
        """Algorithm 1 straight off the adopted array core's columns.

        Decides exactly as :meth:`select_preemptions` over a freshly
        built :class:`~repro.sim.policy.NodeView` — same visit order (the
        view cache's ``node_order``), same signals, same scores — but
        skips materializing ``TaskView`` objects entirely, which
        dominates the snapshot path's epoch cost.  An Algorithm 1 oracle
        in ``tests/test_sched_core.py`` holds the two paths together.

        Returns ``None`` when this policy has not adopted the engine's
        array core (different scoring parameters); the caller then falls
        back to the snapshot protocol.
        """
        core = self._core
        if core is None:
            return None
        ordered, queued = runtime.views.node_order(node)
        if not queued or not ordered:
            return ()
        now = runtime.now
        ids = ordered + queued
        rows = core.rows_of(ids)
        # Scores first: the scoring pass is what the generation's scan
        # columns are derived from.
        scores = core.scores_at(rows, now)
        overdue, allowable, runnable, preemptable = core.scan_signals(
            rows, now, node.rate, runtime.max_preemptions
        )
        n_run = len(ordered)
        epoch = runtime.sim_config.epoch

        # Preemptable running tasks, ascending (score, id) — the same
        # order preemptable_victims() yields on the snapshot path.
        available = sorted(
            (scores[i], ordered[i])
            for i in range(n_run)
            if preemptable[i] and allowable[i] > epoch
        )
        if not available:
            return ()
        # The PP scale is a pure function of the snapshot's scores;
        # computing it lazily (first PP check that needs it) decides
        # identically to the snapshot path's eager computation.
        mean_gap: float | None = None
        ancestors = runtime.state.ancestors
        decisions: list[PreemptionDecision] = []
        decided: set[str] = set()

        def take_victim(wid: str, p_wait: float, require_c1: bool, require_pp: bool) -> bool:
            nonlocal mean_gap
            anc = ancestors[wid]
            for idx, (p_run, vid) in enumerate(available):
                if vid in anc:
                    continue  # C2: never evict an ancestor
                gap = p_wait - p_run
                if require_c1:
                    if gap <= 0:
                        return False
                    if require_pp:
                        if mean_gap is None:
                            mean_gap = pairwise_mean_gap(sorted(scores))
                        if not self._pp_allows(gap, mean_gap):
                            return False
                decisions.append(
                    PreemptionDecision(
                        preempting_task_id=wid, victim_task_id=vid
                    )
                )
                del available[idx]
                decided.add(wid)
                return True
            return False

        epsilon, tau = self._config.epsilon, self._config.tau
        for i in range(n_run, len(ids)):
            if not available:
                break
            wid = ids[i]
            if wid in decided or not runnable[i]:
                continue
            if allowable[i] <= epsilon or overdue[i] >= tau:
                take_victim(wid, scores[i], require_c1=False, require_pp=False)

        head = max(1, math.ceil(self._config.delta * len(queued)))
        for i in range(n_run, n_run + min(head, len(queued))):
            if not available:
                break
            wid = ids[i]
            if wid in decided or not runnable[i]:
                continue
            take_victim(
                wid, scores[i], require_c1=True, require_pp=self._config.use_pp
            )
        return decisions

    def _pp_allows(self, gap: float, mean_gap: float) -> bool:
        """Normalized-priority check: gap / mean-neighbour-gap > ρ.

        With fewer than two distinct priorities the scale is undefined
        (*mean_gap* <= 0); any strictly positive gap is then allowed
        (matching DSPW/oPP).
        """
        if mean_gap <= 0.0:
            return gap > 0.0
        return gap / mean_gap > self._config.rho
