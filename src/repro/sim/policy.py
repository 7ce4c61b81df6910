"""Preemption-policy interface between the engine and the strategies.

At every epoch tick the engine hands each policy a :class:`NodeView` — an
immutable snapshot of one node's running set and waiting queue with the
runtime signals every strategy in the paper consumes (remaining time,
waiting time, allowable waiting time, dependencies, job class, resource
footprint).  The policy answers with :class:`PreemptionDecision` pairs;
the engine validates and applies them, charging context-switch costs and
counting disorders.

Keeping the interface snapshot-based means DSP and all four baselines
differ *only* in their decision logic — dispatch, bookkeeping and metric
accounting are shared, so measured differences are attributable to the
policies alone (the property the paper's §V-B comparison needs).

Every strategy — DSP included — opens with the same victim scan: filter
the running set down to preemptable members (optionally narrowed by a
policy rule such as "allowable wait exceeds the epoch"), then sort by a
victim-preference key.  That substrate lives here as
:func:`preemptable_victims`.  The baselines (SRPT, Amoeba, Natjam)
additionally share the greedy pairing of claimants against the cheapest
victim under an acceptance predicate (:func:`greedy_claim`), so each
baseline contributes only its keys and predicate.  The snapshots handed
to these scans are assembled from the engine's vectorized array mirror
(:class:`~repro.sim.arraycore.ArrayCore`); policy code sees only the
``TaskView`` values.  A policy may additionally implement
``select_preemptions_from_core(runtime, node)`` to decide straight off
the mirror's columns (DSP does, when it scores like the engine); a
``None`` return sends the engine back to the snapshot protocol.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "TaskView",
    "NodeView",
    "PreemptionDecision",
    "PreemptionPolicy",
    "NullPreemption",
    "preemptable_victims",
    "greedy_claim",
]


@dataclass(frozen=True, slots=True)
class TaskView:
    """Snapshot of one task's runtime state at an epoch boundary.

    Attributes
    ----------
    task_id, job_id:
        Identity.
    remaining_time:
        :math:`t^{rem}` — remaining work divided by the node's rate
        (seconds), including pending recovery cost.
    waiting_time:
        :math:`t^w` — accumulated queued-wait over the task's lifetime
        (seconds); the signal of Eq. 13.
    stint_waiting_time:
        Queued-wait of the *current* stint only (since the task last
        entered the queue).
    overdue_waiting_time:
        Wait beyond ``max(stint start, planned start)``.  Algorithm 1's τ
        starvation override keys on this: a task quietly waiting for its
        scheduled slot is not starving, and one long-ago wait does not make
        a task permanently urgent.
    allowable_wait:
        :math:`t^a` — slack before the task's level-deadline is lost
        (seconds; may be negative).
    is_runnable:
        True when every parent has completed.
    is_running:
        True for members of the running set (False: waiting in queue).
    is_preemptable:
        Engine-level flag: False once a task has hit the preemption cap
        (the starvation guard, see DESIGN.md §4) or is otherwise pinned.
    resource_footprint:
        ℓ1 size of the task's demand vector — the "most resources" signal
        Amoeba and Natjam evict by.
    job_weight:
        Owning job's weight; Natjam treats weight >= 1 as production.
    job_deadline:
        Owning job's absolute deadline.
    depends_on_running:
        Task ids *within this node's running set* that are ancestors of
        this task (condition C2 forbids preempting them).
    """

    task_id: str
    job_id: str
    remaining_time: float
    waiting_time: float
    stint_waiting_time: float
    overdue_waiting_time: float
    allowable_wait: float
    is_runnable: bool
    is_running: bool
    is_preemptable: bool
    resource_footprint: float
    job_weight: float
    job_deadline: float
    depends_on_running: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class NodeView:
    """Snapshot of one node at an epoch boundary.

    ``waiting`` preserves queue order (ascending planned start — Fig. 4);
    ``running`` has no meaningful order.  ``epoch`` is the epoch length so
    policies can apply the paper's "allowable waiting time larger than the
    epoch" preemptability rule.
    """

    node_id: str
    now: float
    epoch: float
    running: tuple[TaskView, ...]
    waiting: tuple[TaskView, ...]


@dataclass(frozen=True, slots=True)
class PreemptionDecision:
    """One policy decision: *preempting* (a waiting task) evicts *victim*
    (a running task).  The engine suspends the victim, dispatches the
    preempting task in its place and charges the context switch."""

    preempting_task_id: str
    victim_task_id: str


def preemptable_victims(
    view: NodeView,
    key: Callable[[TaskView], object],
    eligible: Callable[[TaskView], bool] | None = None,
) -> list[TaskView]:
    """The snapshot's preemptable running tasks, cheapest victim first.

    *key* orders victims by the policy's eviction preference (include the
    task id as the final tiebreak for determinism); *eligible* optionally
    narrows the pool further (e.g. Natjam's research-only rule).
    """
    victims = [
        r
        for r in view.running
        if r.is_preemptable and (eligible is None or eligible(r))
    ]
    victims.sort(key=key)
    return victims


def greedy_claim(
    claimants: Sequence[TaskView],
    victims: Sequence[TaskView],
    accepts: Callable[[TaskView, TaskView], bool] | None = None,
) -> list[PreemptionDecision]:
    """Greedily pair *claimants* (in order) against the cheapest unclaimed
    victim.

    A victim is consumed only when *accepts*(claimant, victim) holds
    (``None`` accepts unconditionally); a rejected claimant does **not**
    consume the victim — the next claimant is tried against the same one.
    """
    decisions: list[PreemptionDecision] = []
    vi = 0
    for claimant in claimants:
        if vi >= len(victims):
            break
        victim = victims[vi]
        if accepts is None or accepts(claimant, victim):
            decisions.append(
                PreemptionDecision(
                    preempting_task_id=claimant.task_id,
                    victim_task_id=victim.task_id,
                )
            )
            vi += 1
    return decisions


class PreemptionPolicy(abc.ABC):
    """Strategy interface evaluated at every epoch tick.

    Class attributes declare the two behavioural axes the engine needs:

    * ``respects_dependencies`` — when False, the engine may dispatch this
      policy's choices (and queue heads) before their parents complete,
      producing *disorders* (Figs. 6a/7a);
    * ``uses_checkpointing`` — when False, a preempted task loses all
      progress and restarts from scratch (the SRPT behaviour §V describes).
    """

    #: Whether dispatch and preemption honour the dependency relation.
    respects_dependencies: bool = True
    #: Whether preempted tasks resume from their last checkpoint.
    uses_checkpointing: bool = True
    #: True for policies that never preempt — lets the engine skip the
    #: per-node snapshot/sweep entirely without type-checking the policy.
    is_noop: bool = False
    #: Human-readable policy name used in reports.
    name: str = "base"

    @abc.abstractmethod
    def select_preemptions(self, view: NodeView) -> Sequence[PreemptionDecision]:
        """Decide this epoch's preemptions for one node.

        Decisions are applied in order; each (preempting, victim) pair is
        re-validated by the engine against live state (both tasks still
        present, victim under the preemption cap, freed capacity
        sufficient), so a policy may be optimistic.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class NullPreemption(PreemptionPolicy):
    """No preemption at all — used to isolate the scheduling comparison of
    §V-A, where makespan differences must come from placement alone."""

    respects_dependencies = True
    uses_checkpointing = True
    is_noop = True
    name = "none"

    def select_preemptions(self, view: NodeView) -> Sequence[PreemptionDecision]:
        return ()
