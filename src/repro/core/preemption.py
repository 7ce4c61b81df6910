"""DSP's dependency-aware task preemption (§IV-B, Algorithm 1).

Per epoch and per node queue we decide which waiting tasks evict which
running tasks:

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

:func:`algorithm1` is the one implementation of both passes, over plain
per-task values.  :class:`DSPPreemption` feeds it from the engine's
:class:`~repro.sim.arraycore.ArrayCore`: Eq. 12–13 scores and the scan
signals come from the core's columns, C2 from the ancestor closures of
:class:`~repro.sim.state.SimState`, and the visit order is the sorted
running set followed by the queue head
(:data:`~repro.sim.views.VIEW_QUEUE_LIMIT` tasks).  Both passes pick
preempting tasks only among runnable queued ones, so a node whose queue
head holds no runnable task gets no decision and no scoring (the core's
dispatch index answers that:
:meth:`~repro.sim.arraycore.ArrayCore.runnable_through`).  The policy
must score with the engine's γ/ω weights; :meth:`DSPPreemption.attach`
refuses any other configuration.  ``tests/test_sched_core.py`` holds
:func:`algorithm1` to an independent reference written from the paper's
text.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Mapping, Sequence

from .._util import pairwise_mean_gap
from ..config import DSPConfig
from ..sim.policy import NodeView, PreemptionDecision, PreemptionPolicy
from ..sim.views import VIEW_QUEUE_LIMIT

__all__ = ["DSPPreemption", "algorithm1"]


def algorithm1(
    config: DSPConfig,
    epoch: float,
    running: Sequence[str],
    queued: Sequence[str],
    scores: Sequence[float],
    overdue: Sequence[float],
    allowable: Sequence[float],
    runnable: Sequence[bool],
    preemptable: Sequence[bool],
    ancestors: Mapping[str, AbstractSet[str]],
) -> list[PreemptionDecision]:
    """Algorithm 1's two passes over one node's tasks.

    *running* lists the node's running set, *queued* its waiting tasks in
    queue order (head first).  The five per-task sequences align with
    ``running + queued``: Eq. 12–13 *scores*, *overdue* waiting time (the
    τ signal), *allowable* waiting time :math:`t^a`, whether every parent
    has completed (*runnable*) and the engine's *preemptable* flag
    (occupying capacity and under the preemption cap).  *ancestors* maps
    each queued task to its full ancestor set (C2).  Running tasks are
    tried cheapest first, by ascending (score, task id).
    """
    n_run = len(running)
    available = sorted(
        (scores[i], running[i])
        for i in range(n_run)
        if preemptable[i] and allowable[i] > epoch
    )
    if not available:
        return []
    # The PP scale is a pure function of the node's scores, computed at
    # the first PP check that needs it.
    mean_gap: float | None = None
    decisions: list[PreemptionDecision] = []
    decided: set[str] = set()

    def take_victim(wid: str, p_wait: float, require_c1: bool, require_pp: bool) -> None:
        """Scan candidates ascending; apply C2/C1/PP; consume on success."""
        nonlocal mean_gap
        anc = ancestors[wid]
        for idx, (p_run, vid) in enumerate(available):
            if vid in anc:
                continue  # C2: never evict an ancestor
            gap = p_wait - p_run
            if require_c1:
                if gap <= 0:
                    return  # sorted: every later victim is higher
                if require_pp:
                    if mean_gap is None:
                        mean_gap = pairwise_mean_gap(sorted(scores))
                    if not _pp_allows(gap, mean_gap, config.rho):
                        # A higher-priority victim has an even smaller
                        # gap, so stop scanning.
                        return
            decisions.append(
                PreemptionDecision(preempting_task_id=wid, victim_task_id=vid)
            )
            del available[idx]
            decided.add(wid)
            return

    # Pass 1 — urgent tasks (t_a <= ε or t_w >= τ): preempt regardless of
    # C1/PP, still honouring C2.
    for i, wid in enumerate(queued, n_run):
        if not available:
            break
        if wid in decided or not runnable[i]:
            continue
        if allowable[i] <= config.epsilon or overdue[i] >= config.tau:
            take_victim(wid, scores[i], require_c1=False, require_pp=False)

    # Pass 2 — the first δ-fraction of the queue, priority-gated.
    head = max(1, math.ceil(config.delta * len(queued)))
    for i, wid in enumerate(queued[:head], n_run):
        if not available:
            break
        if wid in decided or not runnable[i]:
            continue
        take_victim(wid, scores[i], require_c1=True, require_pp=config.use_pp)
    return decisions


def _pp_allows(gap: float, mean_gap: float, rho: float) -> bool:
    """Normalized-priority check: gap / mean-neighbour-gap > ρ.

    With fewer than two distinct priorities the scale is undefined
    (*mean_gap* <= 0); any strictly positive gap is then allowed
    (matching DSPW/oPP).
    """
    if mean_gap <= 0.0:
        return gap > 0.0
    return gap / mean_gap > rho


class DSPPreemption(PreemptionPolicy):
    """Algorithm 1 with (DSP) or without (DSPW/oPP) the PP filter.

    Parameters
    ----------
    config:
        Table II parameters; ``config.use_pp`` selects the variant and is
        reflected in :attr:`name` (``"DSP"`` vs ``"DSPW/oPP"``).  Its γ
        and ω weights must equal the engine's ``dsp_config`` (see
        :meth:`attach`).
    """

    respects_dependencies = True
    uses_checkpointing = True

    def __init__(self, config: DSPConfig | None = None):
        self._config = config or DSPConfig()
        self.name = "DSP" if self._config.use_pp else "DSPW/oPP"
        self._core = None

    def attach(self, ctx) -> None:
        """Adopt the engine's array core as this policy's scorer.

        Raises ``ValueError`` naming the differing fields when this
        policy's Eq. 12–13 parameters (γ, ω) differ from the engine's
        (:meth:`~repro.sim.arraycore.ArrayCore.scores_like`).
        """
        core = ctx.priority_index
        core.scores_like(self._config)
        self._core = core

    def select_preemptions(self, view: NodeView) -> Sequence[PreemptionDecision]:
        raise NotImplementedError(
            "DSPPreemption decides off the engine's array core "
            "(select_preemptions_from_core), not over NodeView snapshots"
        )

    def select_preemptions_from_core(
        self, runtime, node
    ) -> Sequence[PreemptionDecision]:
        """Run :func:`algorithm1` for *node* off the adopted array core.

        Raises ``RuntimeError`` before :meth:`attach`.
        """
        core = self._core
        if core is None:
            raise RuntimeError("DSPPreemption used before attach()")
        queued = node.queued_ids(VIEW_QUEUE_LIMIT)
        # A head with no runnable task decides nothing: skip the scoring.
        if not queued or not core.runnable_through(node, queued[-1]):
            return []
        running = sorted(node.running)
        now = runtime.now
        rows = core.rows_of(running + queued)
        # Scores first: the scoring pass is what the generation's scan
        # columns are derived from.
        scores = core.scores_at(rows, now)
        overdue, allowable, runnable, preemptable = core.scan_signals(
            rows, now, node.rate, runtime.max_preemptions
        )
        return algorithm1(
            self._config,
            runtime.sim_config.epoch,
            running,
            queued,
            scores,
            overdue,
            allowable,
            runnable,
            preemptable,
            runtime.state.ancestors,
        )
